"""Dense two-phase primal simplex for the small equality-form programs here.

Programs are minimisation over nonnegative variables with equality rows.
Pivoting follows Bland's rule (lowest eligible index) so runs are
deterministic and never cycle.  Sizes stay in the hundreds of rows/columns,
so the full tableau is kept as one float array.  The package solves one kind
of program, the bounding-chain LP of ``metric``: its primal solution is the
cheapest bounding chain and its dual ``y`` is a max-norm embedding column.
Tolerances are absolute, so callers scale their costs to order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-9
_MAX_PIVOTS = 200_000


class LPError(Exception):
    """Solver failure: numerical breakdown, unboundedness, or pivot overflow."""


@dataclass(frozen=True)
class StandardFormLP:
    """min c.x  subject to  A x = b,  x >= 0."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
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
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]  # dual of the equality rows (zero on dropped rows)
    objective: Optional[float]


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(
    T: np.ndarray, basis: np.ndarray, c: np.ndarray, tol: float, n_entering: int
) -> str:
    """Minimise c over the tableau T = [B^-1 A | B^-1 b] in place.

    Only the first n_entering columns may enter the basis; the artificial
    block beyond them stays out once left.
    """
    rhs = T.shape[1] - 1
    for _ in range(_MAX_PIVOTS):
        reduced = c[:n_entering] - c[basis] @ T[:, :n_entering]
        entering = np.nonzero(reduced < -tol)[0]
        if entering.size == 0:
            return "optimal"
        col = int(entering[0])
        column = T[:, col]
        eligible = np.nonzero(column > tol)[0]
        if eligible.size == 0:
            return "unbounded"
        ratios = T[eligible, rhs] / column[eligible]
        best = ratios.min()
        tied = eligible[ratios <= best + tol * (1.0 + abs(best))]
        row = int(tied[np.argmin(basis[tied])])
        _pivot(T, basis, row, col)
    raise LPError("pivot limit exceeded; simplex did not terminate")


def solve(lp: StandardFormLP, tol: float = DEFAULT_TOL) -> LPSolution:
    """Two-phase simplex.  Returns a basic optimal solution and its dual.

    Redundant equality rows are detected in phase one and dropped; their dual
    entries are reported as zero.  At an optimal solution the residual
    ``A x - b`` and the duality gap ``c.x - b.y`` are within solver tolerance.
    """
    A0 = np.array(lp.A, dtype=float)
    b0 = np.array(lp.b, dtype=float)
    c = np.array(lp.c, dtype=float)
    m, nv = A0.shape
    if nv == 0:
        raise ValueError("LP has no variables")

    flip = np.where(b0 < 0, -1.0, 1.0)
    A = A0 * flip[:, None]
    b = b0 * flip

    if m == 0:
        if (c < -tol).any():
            return LPSolution("unbounded", None, None, None)
        x = np.zeros(nv)
        x.flags.writeable = False
        y = np.zeros(0)
        y.flags.writeable = False
        return LPSolution("optimal", x, y, 0.0)

    # Phase one: artificial basis, minimise the artificial mass.  The
    # artificial block doubles as an explicit B^-1, so it is kept through
    # phase two (barred from re-entering) and yields the dual at the end.
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = np.arange(nv, nv + m)
    c1 = np.concatenate([np.zeros(nv), np.ones(m)])
    if _run_simplex(T, basis, c1, tol, n_entering=nv) == "unbounded":
        raise LPError("phase one reported unbounded")
    infeasibility = float(c1[basis] @ T[:, -1])
    if infeasibility > 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0))):
        return LPSolution("infeasible", None, None, None)

    # Pivot leftover artificials out where possible.  A row with no usable
    # pivot is a redundant constraint; it is zero on every real column and
    # stays inert, with its artificial basic at level zero.
    for i in range(m):
        if basis[i] >= nv:
            pivots = np.nonzero(np.abs(T[i, :nv]) > tol)[0]
            if pivots.size:
                _pivot(T, basis, i, int(pivots[0]))

    c2 = np.concatenate([c, np.zeros(m)])
    if _run_simplex(T, basis, c2, tol, n_entering=nv) == "unbounded":
        return LPSolution("unbounded", None, None, None)

    x = np.zeros(nv)
    for i, col in enumerate(basis):
        if col < nv:
            x[col] = max(T[i, -1], 0.0)
    objective = float(c @ x)
    y = (c2[basis] @ T[:, nv : nv + m]) * flip

    x.flags.writeable = False
    y.flags.writeable = False
    return LPSolution("optimal", x, y, objective)

