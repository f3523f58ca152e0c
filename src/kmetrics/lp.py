"""Dense tableau dual simplex for the small equality-form programs here.

Programs minimise c.x+ + c_neg.x- over A x = b, where x+ and x- are the
positive and negative parts of x and both costs are nonnegative (c_neg =
inf keeps x >= 0).  A ``Simplex`` keeps one tableau ``[B^-1 A | B^-1 |
B^-1 b]``, one column per variable and the reduced-cost row inside it, and
solves it for a sequence of right-hand sides by one algorithm, the dual
simplex.  It starts from the all-artificial basis, whose dual ``y = 0`` is
feasible because the costs are nonnegative; each later ``b`` starts from
the last basis, still dual feasible as the reduced costs do not depend on b.

Pivoting is deterministic and never cycles: the infeasible row with the
lowest basic index leaves, and the lowest index among ratio-test ties
enters, up or down, whichever moves the leaving value towards zero.  The
package solves one kind of program, the bounding-chain LP that
``bounding_sweep`` below states: its primal solution is the cheapest
bounding chain and its dual ``y`` is a max-norm embedding column.  The
solver's tolerances are absolute, so the sweep scales costs to order one.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Optional

import numpy as np

from .simplicial import (
    Chain, Record, _check_bytes, _freeze, boundary_block, boundary_rows, coboundary_rows,
    face_ranks, simplex_rows,
)

DEFAULT_TOL = 1e-9
_MAX_PIVOTS = 200_000
# bounding_sweep's bound on a chain's boundary residual; looser than the pivot tolerance
RESIDUAL_TOL = 1e-6


class LPError(Exception):
    """Solver failure: numerical breakdown or pivot overflow."""


class UnfillableBoundaryError(Exception):
    """The requested boundary has no chain supported on the allowed simplices."""


class StandardFormLP(Record):
    """min c.x  subject to  A x = b,  x >= 0."""

    __slots__ = ("A", "b", "c")

    def _validate(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        b = np.array(self.b, dtype=float).reshape(-1)
        c = np.array(self.c, dtype=float).reshape(-1)
        if A.shape != (b.size, c.size):
            raise ValueError(
                f"shape mismatch: A {A.shape}, b {b.shape}, c {c.shape}"
            )
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("LP data must be finite")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            object.__setattr__(self, name, _freeze(arr))


class LPSolution(Record):
    """status "optimal" or "infeasible"; x, y (the rows' dual) and objective, None if infeasible."""

    __slots__ = ("status", "x", "y", "objective")


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int, reduced: float = 0.0) -> None:
    T[row] = T[row] / T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    column[-1] -= reduced
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    T[-1, col] = reduced
    basis[row] = col


def _feasibility_tol(b: np.ndarray) -> float:
    return 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0)))


def _ratio_ties(ratios: np.ndarray, tol: float) -> np.ndarray:
    best = ratios.min()
    return ratios <= best + tol * (1.0 + abs(best))


class Simplex:
    """min c.x+ + c_neg.x- s.t. A x = b for fixed A, c, c_neg >= 0 and changing b.

    The tableau has m constraint rows and then the reduced-cost row.  Its
    columns are the nv variables, the m columns of B^-1 and the right-hand
    side.  The row holds d = c - A'y, the reduced cost of going up; going
    down costs c + c_neg - d.  Each row's sign is the side of zero its basic
    variable is on.  Artificial variables (basis entries >= nv) are held at
    zero and have no column: once one leaves the basis it cannot return.
    A only fills the tableau; its shape is kept, not A.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray, c_neg):
        self.c = np.asarray(c, dtype=float)
        self.c_neg = np.broadcast_to(np.asarray(c_neg, dtype=float), self.c.shape)
        if (self.c < 0).any() or (self.c_neg < 0).any():
            raise ValueError("costs must be nonnegative")
        m, nv = self.shape = np.shape(A)
        self.T = np.zeros((m + 1, nv + m + 1))
        self.T[:m, :nv] = A
        self.T[:m, nv : nv + m] = np.eye(m)
        self.T[m, :nv] = self.c
        self.basis = np.arange(nv, nv + m)
        self.sign = np.ones(m)

    def solve(self, b: np.ndarray) -> LPSolution:
        """Solve for b by the dual simplex from the current basis.

        That basis is the artificial one on the first call and the last one
        reached after that; it stays dual feasible, also after an infeasible
        answer.  A row leaves while its basic value is on the wrong side of
        zero, or while its basic artificial is off zero, on either side.  A
        leaving row with no entering column proves b infeasible; a redundant
        row whose value is off zero is one.
        """
        T, basis, tol = self.T, self.basis, DEFAULT_TOL
        m, nv = self.shape
        b = np.asarray(b, dtype=float)
        T[:, -1] = T[:, nv : nv + m] @ b
        off_zero = _feasibility_tol(b)
        for _ in range(_MAX_PIVOTS):
            value = T[:m, -1]
            infeasible = np.nonzero(
                (self.sign * value < -tol) | ((basis >= nv) & (np.abs(value) > off_zero))
            )[0]
            if infeasible.size == 0:
                return self._solution()
            row = int(infeasible[np.argmin(basis[infeasible])])
            eligible = np.nonzero(np.abs(T[row, :nv]) > tol)[0]
            up = value[row] * T[row, eligible] > 0  # else down; a basic column flips side
            span = self.c[eligible] + self.c_neg[eligible]
            ratios = np.where(up, T[m, eligible], span - T[m, eligible]) / np.abs(T[row, eligible])
            if ratios.min(initial=np.inf) == np.inf:
                return LPSolution("infeasible", None, None, None)
            pick = np.flatnonzero(_ratio_ties(ratios, tol))[0]
            self.sign[row] = 1.0 if up[pick] else -1.0
            _pivot(T, basis, row, int(eligible[pick]), 0.0 if up[pick] else float(span[pick]))
        raise LPError("pivot limit exceeded; dual simplex did not terminate")

    def _solution(self) -> LPSolution:
        m, nv = self.shape
        x = np.zeros(nv)
        real = self.basis < nv
        x[self.basis[real]] = (self.sign * np.maximum(self.sign * self.T[:m, -1], 0.0))[real]
        cost = float(np.where(x < 0, -self.c_neg, self.c) @ x)
        return LPSolution("optimal", _freeze(x), _freeze(-self.T[m, nv : nv + m]), cost)


def solve(lp: StandardFormLP) -> LPSolution:
    """Dual simplex for one program.  Returns a basic optimum and its dual.

    Redundant equality rows keep their artificials basic at zero.  At an
    optimal solution the residual ``A x - b`` and the duality gap
    ``c.x - b.y`` are within solver tolerance.
    """
    if lp.c.size == 0:
        raise ValueError("LP has no variables")
    return Simplex(lp.A, lp.c, np.inf).solve(lp.b)


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
