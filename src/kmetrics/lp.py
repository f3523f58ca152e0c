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
package solves one kind of program, the bounding-chain LP of ``metric``:
its primal solution is the cheapest bounding chain and its dual ``y`` is a
max-norm embedding column.  Tolerances are absolute, so callers scale their
costs to order one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-9
_MAX_PIVOTS = 200_000


class LPError(Exception):
    """Solver failure: numerical breakdown or pivot overflow."""


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class LPSolution:
    status: str  # "optimal" | "infeasible"
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]  # dual of the equality rows
    objective: Optional[float]


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
        y = -self.T[m, nv : nv + m]
        x.flags.writeable = False
        y.flags.writeable = False
        return LPSolution("optimal", x, y, float(np.where(x < 0, -self.c_neg, self.c) @ x))


def solve(lp: StandardFormLP) -> LPSolution:
    """Dual simplex for one program.  Returns a basic optimum and its dual.

    Redundant equality rows keep their artificials basic at zero.  At an
    optimal solution the residual ``A x - b`` and the duality gap
    ``c.x - b.y`` are within solver tolerance.
    """
    if lp.c.size == 0:
        raise ValueError("LP has no variables")
    return Simplex(lp.A, lp.c, np.inf).solve(lp.b)
