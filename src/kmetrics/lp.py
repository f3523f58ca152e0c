"""Dense tableau simplex for the small equality-form programs here.

Programs are minimisation over nonnegative variables with equality rows.  A
``Simplex`` keeps one tableau ``[B^-1 A | B^-1 | B^-1 b]`` for fixed ``A``
and ``c``, with the reduced-cost row inside it, and solves it for a sequence
of right-hand sides:

- the first by two phases (artificial start);
- every later one by the dual simplex from the last optimal basis.  That
  basis stays dual feasible when only ``b`` changes, so only the column
  ``B^-1 b`` is recomputed before pivoting.

Pivoting is deterministic and never cycles.  The primal simplex follows
Bland's rule (lowest entering index, lowest basic index among ratio ties);
the dual simplex its counterpart (the infeasible row with the lowest basic
index leaves, the lowest index among ratio-test ties enters).  Sizes stay in
the hundreds of rows, so the tableau is one dense float array.  The package
solves one kind of program, the bounding-chain LP of ``metric``: its primal
solution is the cheapest bounding chain and its dual ``y`` is a max-norm
embedding column.  Tolerances are absolute, so callers scale their costs to
order one.
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
    y: Optional[np.ndarray]  # dual of the equality rows
    objective: Optional[float]


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _feasibility_tol(b: np.ndarray) -> float:
    return 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0)))


def _ratio_ties(ratios: np.ndarray, tol: float) -> np.ndarray:
    best = ratios.min()
    return ratios <= best + tol * (1.0 + abs(best))


class Simplex:
    """min c.x s.t. A x = b, x >= 0 for fixed A and c and changing b.

    The tableau has m constraint rows and then the reduced-cost row.  Its
    columns are the nv variables, the m columns of B^-1 and the right-hand
    side.  Artificial variables (basis entries >= nv) have no column: once
    one leaves the basis it cannot return.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray, tol: float = DEFAULT_TOL):
        self.A = np.asarray(A, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.tol = tol
        self.T = None
        self.basis = None
        self._dual_feasible = False  # an optimal basis to warm-start from

    def solve(self, b: np.ndarray) -> LPSolution:
        """Cold solve for b by two phases.

        Phase one starts from artificials and drops the redundant equality
        rows it finds; their artificials stay basic at level zero.
        """
        A, c, tol = self.A, self.c, self.tol
        m, nv = A.shape
        b = np.asarray(b, dtype=float)
        self._dual_feasible = False
        self.basis = np.arange(nv, nv + m)
        # artificial i is sign(b_i) e_i, so B^-1 is diagonal
        rows = np.diag(np.where(b < 0, -1.0, 1.0)) @ np.hstack([A, np.eye(m), b[:, None]])
        cost = np.concatenate([c, np.zeros(m + 1)])  # artificials cost 0 here
        self.T = np.vstack([rows, cost - cost[self.basis] @ rows])

        # Phase one minimises the artificial mass, in a second cost row.
        self.T = np.vstack([self.T, -rows.sum(axis=0)])
        if self._primal(m + 1) == "unbounded":
            raise LPError("phase one reported unbounded")
        infeasibility = -self.T[m + 1, -1]
        self.T = self.T[: m + 1]
        if infeasibility > _feasibility_tol(b):
            return LPSolution("infeasible", None, None, None)
        # Pivot leftover artificials out where possible.  A row with no
        # usable pivot is a redundant constraint: zero on every column.
        for i in range(m):
            if self.basis[i] >= nv:
                pivots = np.nonzero(np.abs(self.T[i, :nv]) > tol)[0]
                if pivots.size:
                    _pivot(self.T, self.basis, i, int(pivots[0]))

        if self._primal(m) == "unbounded":
            return LPSolution("unbounded", None, None, None)
        return self._solution()

    def resolve(self, b: np.ndarray) -> LPSolution:
        """Warm solve for a new b by the dual simplex from the current basis.

        Needs an earlier optimal solve: the reduced costs do not depend on b,
        so that basis stays dual feasible and only B^-1 b is recomputed.  The
        dual simplex keeps it dual feasible, also when b is infeasible.
        """
        if not self._dual_feasible:
            raise LPError("no optimal basis to warm-start from")
        T, basis, tol = self.T, self.basis, self.tol
        m, nv = self.A.shape
        b = np.asarray(b, dtype=float)
        T[:, -1] = T[:, nv : nv + m] @ b
        # A redundant row (its artificial still basic) is zero on every
        # column, so b is infeasible unless B^-1 b vanishes there.
        if (np.abs(T[:m, -1][basis >= nv]) > _feasibility_tol(b)).any():
            return LPSolution("infeasible", None, None, None)
        for _ in range(_MAX_PIVOTS):
            infeasible = np.nonzero(T[:m, -1] < -tol)[0]
            if infeasible.size == 0:
                return self._solution()
            row = int(infeasible[np.argmin(basis[infeasible])])
            eligible = np.nonzero(T[row, :nv] < -tol)[0]
            if eligible.size == 0:
                return LPSolution("infeasible", None, None, None)
            ratios = T[m, eligible] / -T[row, eligible]
            _pivot(T, basis, row, int(eligible[_ratio_ties(ratios, tol)][0]))
        raise LPError("pivot limit exceeded; dual simplex did not terminate")

    def _primal(self, cost_row: int) -> str:
        """Primal simplex on the given cost row; only real columns enter."""
        T, basis, tol = self.T, self.basis, self.tol
        m, nv = self.A.shape
        for _ in range(_MAX_PIVOTS):
            entering = np.nonzero(T[cost_row, :nv] < -tol)[0]
            if entering.size == 0:
                return "optimal"
            col = int(entering[0])
            eligible = np.nonzero(T[:m, col] > tol)[0]
            if eligible.size == 0:
                return "unbounded"
            tied = eligible[_ratio_ties(T[eligible, -1] / T[eligible, col], tol)]
            _pivot(T, basis, int(tied[np.argmin(basis[tied])]), col)
        raise LPError("pivot limit exceeded; simplex did not terminate")

    def _solution(self) -> LPSolution:
        m, nv = self.A.shape
        x = np.zeros(nv)
        real = self.basis < nv
        x[self.basis[real]] = np.maximum(self.T[:m, -1][real], 0.0)
        y = -self.T[m, nv : nv + m]
        self._dual_feasible = True
        x.flags.writeable = False
        y.flags.writeable = False
        return LPSolution("optimal", x, y, float(self.c @ x))


def solve(lp: StandardFormLP, tol: float = DEFAULT_TOL) -> LPSolution:
    """Two-phase simplex for one program.  Returns a basic optimum and its dual.

    Redundant equality rows are detected in phase one and dropped.  At an
    optimal solution the residual ``A x - b`` and the duality gap
    ``c.x - b.y`` are within solver tolerance.
    """
    if lp.c.size == 0:
        raise ValueError("LP has no variables")
    return Simplex(lp.A, lp.c, tol).solve(lp.b)
