"""Arity-k distance tables and their weak/strong verification.

A k-metric assigns a nonnegative value to every k-tuple of vertices,
invariant under permutation and zero on tuples with repeats, so the table
is stored over canonical (k-1)-simplices.  The weak property is the simplex
inequality (replace one point at a time); the strong property bounds the
value at t by the weighted mass of every chain whose boundary matches the
boundary of the indicator of t, and is decided here by one small linear
program per tuple.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .lp import DEFAULT_TOL, StandardFormLP, solve
from .simplicial import (
    Chain,
    SimplexKey,
    boundary_operator,
    enumerate_simplices,
    simplex_index,
    validate_simplex,
    zero_chain,
)

# Downstream comparisons of metric values; looser than the LP pivot tolerance.
VALUE_TOL = 1e-6
RESIDUAL_TOL = 1e-6


class UnfillableBoundaryError(Exception):
    """The requested boundary has no chain supported on the allowed simplices."""


@dataclass(frozen=True)
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
        count = comb(self.n, self.k)
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
        key = tuple(int(v) for v in vertices)
        if len(key) != self.k:
            raise ValueError(f"expected {self.k} vertices, got {len(key)}")
        if any(v < 0 or v >= self.n for v in key):
            raise ValueError(f"vertex out of range 0..{self.n - 1}: {key}")
        if len(set(key)) < self.k:
            return 0.0
        return float(self.values[simplex_index(self.n, tuple(sorted(key)))])

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


def check_weak(d: KMetric, tol: float = VALUE_TOL) -> VerificationReport:
    """Test the one-point replacement inequality at every tuple.

    For each k-subset t and outside point y the value at t must not exceed
    the sum of the values with one vertex of t swapped for y.  Zero values on
    distinct tuples do not fail the check but are reported so callers can see
    the table is pseudo rather than positive.
    """
    simplices = d.simplices()
    table = d.values
    index = {s: i for i, s in enumerate(simplices)}
    violations = []
    for t, value in zip(simplices, table):
        members = set(t)
        for y in range(d.n):
            if y in members:
                continue  # replacement recreates t or hits a repeat
            total = 0.0
            for i in range(d.k):
                swapped = tuple(sorted(t[:i] + t[i + 1 :] + (y,)))
                total += table[index[swapped]]
            if value > total + tol * max(1.0, value):
                violations.append((t, y))
    pseudo = tuple(t for t, v in zip(simplices, table) if v == 0.0)
    return VerificationReport(
        is_weak=not violations,
        weak_violations=tuple(violations),
        pseudo_violations=pseudo,
    )


def map_tuples(solve_one: Callable, count: int, jobs: int = 1,
               stop: Optional[Callable] = None) -> list:
    """solve_one(i) for the tuples i = 0..count-1, in canonical order.

    This is the one per-tuple loop.  It runs serially and ends after the
    first i where stop(i, result) holds.  With jobs > 1 every tuple is solved
    on a thread pool, stop is not applied, and the first exception in
    canonical order is the one raised.
    """
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(solve_one, range(count)))
    results = []
    for i in range(count):
        results.append(solve_one(i))
        if stop is not None and stop(i, results[-1]):
            break
    return results


def tuple_boundary(n: int, k: int, i: int) -> Chain:
    """Boundary of the indicator of the i-th k-tuple in canonical order."""
    return Chain(n=n, dim=k - 2, coeffs=boundary_operator(n, k - 1).matrix[:, i])


def _bounding_lp(w: np.ndarray, target: Chain, cols: np.ndarray, tol: float):
    """(cost, chain, y): the bounding-chain LP on the columns cols, and its dual.

    The costs are divided by their max before the solve and cost and y are
    multiplied back, so every tolerance inside the solver is relative to the
    table.  The dual y satisfies |coboundary(y)| <= w on cols (up to the
    solver tolerance) and <target, y> = cost.
    """
    n, dim = target.n, target.dim + 1
    B = boundary_operator(n, dim).matrix
    scale = float(w[cols].max())
    if scale <= 0.0:
        scale = 1.0
    c = w[cols] / scale
    sol = solve(
        StandardFormLP(A=np.hstack([B[:, cols], -B[:, cols]]), b=target.coeffs,
                       c=np.concatenate([c, c])),
        tol=tol,
    )
    if sol.status == "infeasible":
        raise UnfillableBoundaryError("boundary not fillable on the allowed simplices")
    if sol.status != "optimal":
        raise UnfillableBoundaryError(f"bounding-chain solve ended {sol.status}")

    coeffs = np.zeros(B.shape[1])
    coeffs[cols] = sol.x[: cols.size] - sol.x[cols.size :]
    residual = np.abs(B @ coeffs - target.coeffs).max(initial=0.0)
    if residual > RESIDUAL_TOL:
        raise UnfillableBoundaryError(
            f"bounding chain residual {residual:.3e} exceeds {RESIDUAL_TOL}"
        )
    return sol.objective * scale, Chain(n=n, dim=dim, coeffs=coeffs), sol.y * scale


def min_bounding_chain(
    weights: np.ndarray,
    target: Chain,
    mask: Optional[Iterable] = None,
    tol: float = DEFAULT_TOL,
):
    """Cheapest chain with the prescribed boundary.

    Minimises sum_s w(s) |alpha(s)| over chains alpha one dimension above the
    target with boundary(alpha) = target, optionally restricted to a set of
    allowed simplices.  Signed coefficients are handled by splitting alpha
    into positive and negative parts inside the LP.

    Args:
        weights: nonnegative cost per simplex of dimension target.dim + 1.
        target: the boundary to fill.
        mask: allowed simplices, as canonical vertex tuples or flat indices.

    Returns:
        (cost, chain) with the chain living on the full simplex list.
    """
    n = target.n
    dim = target.dim + 1
    count = comb(n, dim + 1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (count,):
        raise ValueError(f"expected {count} weights, got {w.shape[0]}")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and nonnegative")

    if mask is None:
        cols = np.arange(count)
    else:
        idx = []
        for item in mask:
            if isinstance(item, (int, np.integer)):
                idx.append(int(item))
            else:
                idx.append(simplex_index(n, validate_simplex(n, item)))
        cols = np.unique(np.asarray(idx, dtype=int))
        if cols.size and (cols[0] < 0 or cols[-1] >= count):
            raise ValueError("mask index out of range")

    if cols.size == 0:
        if np.abs(target.coeffs).max(initial=0.0) <= RESIDUAL_TOL:
            return 0.0, zero_chain(n, dim)
        raise UnfillableBoundaryError("boundary not fillable: empty simplex mask")

    cost, chain, _ = _bounding_lp(w, target, cols, tol)
    return cost, chain


def check_strong(
    d: KMetric,
    exhaustive: bool = False,
    tol: float = VALUE_TOL,
    jobs: int = 1,
) -> VerificationReport:
    """Compare each table value with its minimum bounding-chain cost.

    The table is strong when no chain bounds the boundary of a tuple more
    cheaply than the tuple's own value, up to the relative tolerance tol.  By
    default the scan stops at the first failing tuple in canonical order;
    exhaustive mode records the margin of every tuple.  The result does not
    depend on the number of worker threads.
    """
    weak = check_weak(d, tol=tol)
    simplices = d.simplices()

    def solve_one(i: int):
        return min_bounding_chain(d.values, tuple_boundary(d.n, d.k, i))

    def is_failure(i: int, cost: float) -> bool:
        return cost < float(d.values[i]) * (1.0 - tol)

    stop = None if exhaustive else lambda i, result: is_failure(i, result[0])
    results = map_tuples(solve_one, len(simplices), jobs, stop)
    margins = []
    witness = None
    for i, (cost, chain) in enumerate(results):
        margins.append((simplices[i], cost, float(d.values[i])))
        if witness is None and is_failure(i, cost):
            witness = StrongWitness(
                simplex=simplices[i],
                value=float(d.values[i]),
                cost=cost,
                chain=chain,
            )
            if not exhaustive:
                break

    return VerificationReport(
        is_weak=weak.is_weak,
        weak_violations=weak.weak_violations,
        pseudo_violations=weak.pseudo_violations,
        is_strong=witness is None,
        strong_witness=witness,
        strong_margins=tuple(margins),
    )
