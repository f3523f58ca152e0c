"""Arity-k distance tables and their weak/strong verification.

A k-metric assigns a nonnegative value to every k-tuple of vertices,
invariant under permutation and zero on tuples with repeats, so the table
is stored over canonical (k-1)-simplices.  The weak property is the simplex
inequality (replace one point at a time); the strong property bounds the
value at t by the weighted mass of every chain whose boundary matches the
boundary of the indicator of t, and is decided here by one small linear
program per tuple, all solved as one warm-started sweep.  Both checks read
the incidence from face_ranks alone, on the rows they list once: the weak
one through a coface table, the programs for their targets, residuals and
dual checks, and for their rows through simplicial.boundary_block, which
keeps those of the faces that miss vertex 0 and only fills the tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Iterable, Optional, Sequence

import numpy as np

from .lp import DEFAULT_TOL, LPError, Simplex
from .simplicial import (
    Chain,
    SimplexKey,
    _check_bytes,
    _check_counts,
    boundary_block,
    boundary_rows,
    coboundary_rows,
    enumerate_simplices,
    face_ranks,
    simplex_at,
    simplex_index,
    simplex_rows,
    validate_simplex,
)

# Downstream comparisons of metric values; looser than the LP pivot tolerance.
VALUE_TOL = 1e-6
RESIDUAL_TOL = 1e-6


class UnfillableBoundaryError(Exception):
    """The requested boundary has no chain supported on the allowed simplices."""


@dataclass(frozen=True, eq=False)
class KMetric:
    """Distance table of arity k on n vertices, one value per k-subset."""

    n: int
    k: int
    values: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        count = _check_counts(self.n, self.k - 1)
        arr = np.array(self.values, dtype=float).reshape(-1)
        if arr.shape != (count,):
            raise ValueError(f"expected {count} values, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError("distance values must be finite")
        if (arr < 0).any():
            raise ValueError("distance values must be nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

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


@dataclass(frozen=True)
class StrongWitness:
    """A tuple whose value exceeds the cost of some bounding chain."""

    simplex: SimplexKey
    value: float
    cost: float
    chain: Chain


@dataclass(frozen=True)
class VerificationReport:
    is_weak: bool
    weak_violations: tuple
    pseudo_violations: tuple
    is_strong: Optional[bool] = None
    strong_witness: Optional[StrongWitness] = None
    # (simplex, bounding-chain cost, table value) for every tuple checked
    strong_margins: tuple = ()


def check_weak(d: KMetric) -> VerificationReport:
    """Test the one-point replacement inequality at every tuple.

    For each k-subset t and outside point y the sum of the values with one
    vertex of t swapped for y must not fall below value(t) (1 - VALUE_TOL).
    check_strong tests a chain's cost in the same form, and the cone over y
    is a bounding chain of that cost, so a strong table reads weak.  Zero
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
        codes.append(np.flatnonzero(total < d.values * (1.0 - VALUE_TOL)) * d.n + y)
    t, y = np.divmod(np.sort(np.concatenate(codes)), d.n)
    violations = [(tuple(s), v) for s, v in zip(rows[t].tolist(), y.tolist())]
    pseudo = tuple(map(tuple, rows[d.values == 0.0].tolist()))
    return VerificationReport(
        is_weak=not violations,
        weak_violations=tuple(violations),
        pseudo_violations=pseudo,
    )


def bounding_sweep(weights: np.ndarray, n: int, k: int, cols: Optional[np.ndarray] = None,
                   targets: Optional[Iterable] = None):
    """Yield (cost, chain, y) per target: one warm-started bounding-chain sweep.

    Every program min sum_s w(s)|alpha(s)| s.t. boundary(alpha) = target on
    the allowed (k-1)-simplices cols (all of them by default) shares A and
    c, so one dual simplex solves them all: the first from the artificial
    basis (y = 0, feasible because w >= 0), each later one from the previous
    target's final basis.  targets are (k-2)-chains as coefficient arrays;
    by default they are the boundaries of every k-tuple's indicator, in
    canonical order.  Stop early by leaving the loop.  Only the rows of
    faces that miss vertex 0, the last C(n-1, k-1) in canonical order, are
    kept (boundary_block): they are independent on boundaries and decide
    them, so they imply the others for every target that is a boundary.

    The costs are divided by their max and each target by its largest entry
    before solving, and cost, chain and y are multiplied back, so every
    tolerance inside the solver is relative.  With no allowed simplex a zero
    target costs 0 and any other is refused as not fillable.  Each answer is
    certified against rounding drift in the warm-started tableau: the chain
    passes a residual check on all faces (a target that is not a boundary
    fails there), and the dual y, zero on the dropped rows, must satisfy
    |coboundary(y)| <= w (1 + tol) + tol max(w) on cols, read by the
    face-table gather, and <target, y> = cost to tol = lp.DEFAULT_TOL, or
    LPError is raised.  It is the one dual check: by weak duality cost is
    optimal, and y, an embedding column in coboundary, never expands w.  The
    kept block only fills the tableau and is not held, so the peak is two
    tableaux (a pivot's update is one); a program over the byte budget is
    refused with ValueError before anything is listed or allocated (_check_bytes).
    """
    w = np.asarray(weights, dtype=float)
    dim = k - 1
    size, first = comb(n, dim), comb(n - 1, dim - 1)
    m = size - first
    width = comb(n, k) if cols is None else cols.size
    _check_bytes("bounding-chain LP", 8 * 2 * (m + 1) * (width + m + 1))
    faces = face_ranks(n, simplex_rows(n, dim))
    if cols is None:
        cols = np.arange(faces.shape[1])
    if targets is None:
        targets = (boundary_rows(faces[:, [i]], np.ones(1), size) for i in range(faces.shape[1]))
    allowed = faces[:, cols]
    scale = float(w[cols].max(initial=0.0)) or 1.0
    c = w[cols] / scale
    simplex = Simplex(boundary_block(allowed, size, first), c, c)
    for target in targets:
        unit = float(np.abs(target).max(initial=0.0)) or 1.0
        target = target / unit
        b = target[first:]
        sol = simplex.solve(b)
        if sol.status == "infeasible":
            raise UnfillableBoundaryError("boundary not fillable on the allowed simplices")
        y = np.zeros(size)
        y[first:] = sol.y
        expansion = (np.abs(coboundary_rows(allowed, y)) - c * (1.0 + DEFAULT_TOL)).max(initial=0.0)
        gap = abs(float(b @ sol.y) - sol.objective)
        if expansion > DEFAULT_TOL or gap > DEFAULT_TOL * max(1.0, sol.objective):
            raise LPError(
                f"bounding-chain optimum not certified: dual excess {expansion:.3e}, "
                f"duality gap {gap:.3e} (relative to the largest weight)"
            )

        residual = np.abs(boundary_rows(allowed, sol.x, size) - target).max(initial=0.0)
        if residual > RESIDUAL_TOL:
            raise UnfillableBoundaryError(
                f"bounding chain residual {residual:.3e} exceeds {RESIDUAL_TOL}"
            )
        coeffs = np.zeros(faces.shape[1])
        coeffs[cols] = sol.x * unit
        yield sol.objective * scale * unit, Chain(n=n, dim=dim, coeffs=coeffs), y * scale


def min_bounding_chain(
    weights: np.ndarray,
    target: Chain,
    mask: Optional[Iterable] = None,
):
    """Cheapest chain with the prescribed boundary.

    Minimises sum_s w(s) |alpha(s)| over chains alpha one dimension above the
    target with boundary(alpha) = target, optionally restricted to a set of
    allowed simplices.  Each coefficient is one LP column, priced at w(s)
    on either side of zero.

    Args:
        weights: nonnegative cost per simplex of dimension target.dim + 1.
        target: the boundary to fill.
        mask: allowed simplices, as flat indices into the canonical order.

    Returns:
        (cost, chain) with the chain living on the full simplex list.
    """
    n, k = target.n, target.dim + 2
    count = comb(n, k)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (count,):
        raise ValueError(f"expected {count} weights, got {w.shape[0]}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and nonnegative")

    cols = None
    if mask is not None:
        idx = []
        for item in mask:
            if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
                raise ValueError(f"mask items must be flat simplex indices, got {item!r}")
            idx.append(int(item))
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= count):
            raise ValueError("mask index out of range")
        allowed = np.zeros(count, dtype=bool)
        allowed[idx] = True
        cols = np.flatnonzero(allowed)  # sorted and distinct; np.unique would import numpy.ma

    cost, chain, _ = next(bounding_sweep(w, n, k, cols, [target.coeffs]))
    return cost, chain


def check_strong(
    d: KMetric,
    exhaustive: bool = False,
    jobs: int = 1,
) -> VerificationReport:
    """Compare each table value with its minimum bounding-chain cost.

    The table is strong when no chain bounds the boundary of a tuple more
    cheaply than the tuple's own value, up to the relative tolerance
    VALUE_TOL, which frechet_embed reads too.  By default the scan stops at
    the first failing tuple in canonical order; exhaustive mode records the
    margin of every tuple.  The tuples are one sequential sweep, so jobs has
    no effect; it is kept for callers that pass it.  Nothing is listed
    before the sweep, so a table over the LP budget is refused before any
    allocation; the sweep, the margins and the weak pass list the order
    once each, and tuples are made only for the witness and the swept
    margins.
    """
    costs, witness = [], None
    for i, (cost, chain, _) in enumerate(bounding_sweep(d.values, d.n, d.k)):
        costs.append(cost)
        value = float(d.values[i])
        if witness is None and cost < value * (1.0 - VALUE_TOL):
            witness = StrongWitness(simplex_at(d.n, d.k - 1, i), value, cost, chain)
            if not exhaustive:
                break
    swept = map(tuple, simplex_rows(d.n, d.k - 1)[: len(costs)].tolist())
    margins = tuple(zip(swept, costs, d.values[: len(costs)].tolist()))
    return replace(check_weak(d), is_strong=witness is None, strong_witness=witness,
                   strong_margins=margins)
