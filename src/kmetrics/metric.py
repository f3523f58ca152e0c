"""Arity-k distance tables and their weak/strong verification.

A k-metric assigns a nonnegative value to every k-tuple of vertices,
invariant under permutation and zero on tuples with repeats, so the table
is stored over canonical (k-1)-simplices.  The weak property is the simplex
inequality (replace one point at a time); the strong property bounds the
value at t by the weighted mass of every chain whose boundary matches the
boundary of the indicator of t, and is decided by one small linear program
per tuple, all solved as one warm-started sweep (lp.bounding_sweep).  Both
checks read the incidence from face_ranks alone, on the rows they list
once: the weak one through a coface table, the sweep for its targets,
residuals and dual checks, and for its rows through
simplicial.boundary_block, which keeps those of the faces that miss vertex 0
and only fills the tableau.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

import numpy as np

import kmetrics as km

from .simplicial import (
    Record, ValueRecord, _check_arity, _check_counts, _freeze, enumerate_simplices, face_ranks,
    simplex_at, simplex_index, simplex_rows, validate_simplex,
)

# Downstream comparisons of metric values; looser than the LP pivot tolerance.
VALUE_TOL = 1e-6


def undercuts(cost, value):
    """cost < value (1 - VALUE_TOL), elementwise: a chain this cheap refutes the value."""
    return cost < value * (1.0 - VALUE_TOL)


class KMetric(Record):
    """Distance table of arity k on n vertices, one value per k-subset."""

    __slots__ = ("n", "k", "values")

    def _validate(self):
        _check_arity(self.n, self.k)
        count = _check_counts(self.n, self.k - 1)
        arr = np.array(self.values, dtype=float).reshape(-1)
        if arr.shape != (count,):
            raise ValueError(f"expected {count} values, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("distance values must be finite")
        if (arr < 0).any():
            raise ValueError("distance values must be nonnegative")
        object.__setattr__(self, "values", _freeze(arr))

    def value(self, vertices: Sequence[int]) -> float:
        """Evaluate at an arbitrary k-tuple; repeats give zero."""
        key = tuple(sorted(vertices))
        if len(key) != self.k:
            raise ValueError(f"expected {self.k} vertices, got {len(key)}")
        if len(set(key)) == self.k:
            return float(self.values[simplex_index(self.n, key)])
        for v in key:
            validate_simplex(self.n, (v,))
        return 0.0

    def simplices(self) -> tuple:
        return enumerate_simplices(self.n, self.k - 1)


class StrongWitness(ValueRecord):
    """A tuple (simplex) whose value exceeds the cost of a bounding chain."""

    __slots__ = ("simplex", "value", "cost", "chain")


class VerificationReport(ValueRecord):
    """Weak and strong verdicts; strong_margins: (simplex, chain cost, value) per tuple checked."""

    __slots__ = ("is_weak", "weak_violations", "pseudo_violations", "is_strong",
                 "strong_witness", "strong_margins")
    _defaults = {"is_strong": None, "strong_witness": None, "strong_margins": ()}


def check_weak(d: KMetric) -> VerificationReport:
    """Test the one-point replacement inequality at every tuple.

    For each k-subset t and outside point y the sum of the values with one
    vertex of t swapped for y must not undercut value(t).  check_strong
    tests a chain's cost by the same undercuts, and the cone over y is a
    bounding chain of that cost, so a strong table reads weak.  Zero
    values on distinct tuples do not fail the check but are reported so
    callers can see the table is pseudo rather than positive.

    Swapping t_i for y gives the face of t that drops t_i, plus y, so the
    totals are gathers through one coface table: coface[f, y] is the tuple
    f + y, or a NaN slot, which never fails, when y is in f.  The failures
    of each y are kept as codes t * n + y, sorted once into (t, y) order,
    and only the reported tuples are made from simplex_rows.
    """
    rows = simplex_rows(d.n, d.k - 1)
    count = rows.shape[0]
    faces = face_ranks(d.n, rows)
    coface = np.full((comb(d.n, d.k - 1), d.n), count)
    for face, vertex in zip(faces, rows.T):
        coface[face, vertex] = np.arange(count)
    table = np.append(d.values, np.nan)
    codes = []
    for y in range(d.n):
        total = table[coface[faces[0], y]]
        for face in faces[1:]:  # summed in the order of i, as the inequality reads
            total = total + table[coface[face, y]]
        codes.append(np.flatnonzero(undercuts(total, d.values)) * d.n + y)
    t, y = np.divmod(np.sort(np.concatenate(codes)), d.n)
    violations = [(tuple(s), v) for s, v in zip(rows[t].tolist(), y.tolist())]
    pseudo = tuple(map(tuple, rows[d.values == 0.0].tolist()))
    return VerificationReport(
        is_weak=not violations,
        weak_violations=tuple(violations),
        pseudo_violations=pseudo,
    )


def check_strong(
    d: KMetric,
    exhaustive: bool = False,
    jobs: int = 1,
) -> VerificationReport:
    """Compare each table value with its minimum bounding-chain cost.

    The table is strong when no chain bounds the boundary of a tuple so
    cheaply that it undercuts the tuple's value, the test frechet_embed
    makes too.  By default the scan stops at the first failing tuple in
    canonical order; exhaustive mode records the margin of every tuple.
    The tuples are one sequential sweep, so jobs has no effect; it is kept
    for callers that pass it.  Nothing is listed before the sweep, so a
    table over the LP budget is refused before any allocation; the sweep,
    the margins and the weak pass list the order once each, and tuples are
    made only for the witness and the swept margins.
    """
    costs, witness = [], None
    for i, (cost, chain, _) in enumerate(km.lp.bounding_sweep(d.values, d.n, d.k)):
        costs.append(cost)
        value = float(d.values[i])
        if witness is None and undercuts(cost, value):
            witness = StrongWitness(simplex_at(d.n, d.k - 1, i), value, cost, chain)
            if not exhaustive:
                break
    swept = map(tuple, simplex_rows(d.n, d.k - 1)[: len(costs)].tolist())
    margins = tuple(zip(swept, costs, d.values[: len(costs)].tolist()))
    weak = check_weak(d)
    return VerificationReport(weak.is_weak, weak.weak_violations, weak.pseudo_violations,
                              witness is None, witness, margins)
