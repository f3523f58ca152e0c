"""Metrics obtained from coboundaries of chain collections, and embeddings.

A collection of m chains one dimension below the tuples (columns of a
ChainMatrix) induces the arity-k table d(t) = || row t of coboundary(F) ||_p.
Tables of this shape always satisfy the strong chain inequality.  The reverse
direction is computed here as well: every strong table is realised exactly
under the max norm by one column per tuple, the dual of that tuple's
bounding-chain LP.  Gaussian random projection shrinks the number of columns
at a controlled distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from .metric import KMetric, VALUE_TOL, bounding_sweep
from .simplicial import (
    Chain, SimplexKey, _check_bytes, boundary_rows, coboundary_rows, face_ranks, simplex_at,
    simplex_index, simplex_rows,
)

# Entries that eval_coboundary_metric and volume_metric gather at once (0.5 MB of floats).
_EVAL_BLOCK = 2**16


class NotStrongError(Exception):
    """Embedding requested for a table that fails the strong chain inequality."""

    def __init__(self, simplex: SimplexKey, value: float, achieved: float):
        self.simplex = simplex
        self.value = value
        self.achieved = achieved
        super().__init__(
            f"input not strong: best bounding value {achieved:.9g} at "
            f"{simplex} is below the table value {value:.9g}"
        )


@dataclass(frozen=True)
class NormSpec:
    """Entrywise p-norm used on coboundary rows; p in [1, inf]."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"p must be at least 1, got {self.p}")
        object.__setattr__(self, "p", p)

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.p)

    def row_norms(self, matrix: np.ndarray) -> np.ndarray:
        """p-norm of each row.

        Other than at p = 1, 2 and inf, each row is divided by its largest
        |entry| before the power, so no |x|**p overflows or underflows.
        """
        if self.p in (1.0, 2.0, math.inf):
            return np.linalg.norm(matrix, ord=self.p, axis=1)
        top = np.abs(matrix).max(axis=1)
        scaled = matrix / np.where(top > 0.0, top, 1.0)[:, None]
        return top * np.linalg.norm(scaled, ord=self.p, axis=1)


@dataclass(frozen=True, eq=False)
class ChainMatrix:
    """m chains of dimension k-2 on n vertices, stored as columns."""

    n: int
    k: int
    data: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        rows = comb(self.n, self.k - 1)
        arr = np.array(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != rows:
            raise ValueError(
                f"expected a ({rows}, m) array of column chains, got {arr.shape}"
            )
        if arr.shape[1] < 1:
            raise ValueError("need at least one column")
        if not np.isfinite(arr).all():
            raise ValueError("chain entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[1]


def eval_coboundary_metric(F: ChainMatrix, norm: NormSpec) -> KMetric:
    """Arity-k table whose entry at t is the p-norm of row t of coboundary(F)."""
    faces = face_ranks(F.n, simplex_rows(F.n, F.k - 1))
    step = max(1, _EVAL_BLOCK // F.m)  # tuples whose coboundary rows are held at a time
    norms = [
        norm.row_norms(coboundary_rows(faces[:, a : a + step], F.data))
        for a in range(0, faces.shape[1], step)
    ]
    return KMetric(n=F.n, k=F.k, values=np.concatenate(norms))


def _strong_column(d: KMetric, idx: int, cost: float, y: np.ndarray) -> np.ndarray:
    """y, unless a chain of this cost bounds tuple idx below its value (NotStrongError)."""
    value = float(d.values[idx])
    if cost < value * (1.0 - VALUE_TOL):
        raise NotStrongError(simplex_at(d.n, d.k - 1, idx), value, cost)
    return y


def frechet_column(d: KMetric, t: Sequence[int]):
    """One embedding column: a chain realising d(t) without expanding anywhere.

    The column is the dual y of the bounding-chain LP for the boundary of t
    (min sum_s d(s)|alpha(s)| subject to boundary(alpha) = boundary(e_t)).
    Its dual program is max <boundary(e_t), f> subject to
    |coboundary(f)| <= d, so y never expands and its coboundary at t equals
    the cheapest bounding-chain cost; the LP's certificate checks both, or
    raises LPError.  That reaches d(t) exactly when no cheaper chain exists;
    anything lower raises NotStrongError.  The column need not be a cycle.

    Returns:
        (chain, achieved) where achieved is the attained coboundary value.
    """
    if len(t) != d.k:
        raise ValueError(f"expected a {d.k}-tuple, got {tuple(t)}")
    idx = simplex_index(d.n, t)
    faces = face_ranks(d.n, np.array([t]))  # t's column alone; simplex_index checked t
    target = boundary_rows(faces, np.ones(1), comb(d.n, d.k - 1))
    cost, _, y = next(bounding_sweep(d.values, d.n, d.k, targets=[target]))
    y = _strong_column(d, idx, cost, y)
    return Chain(n=d.n, dim=d.k - 2, coeffs=y), float(coboundary_rows(faces, y)[0])


def frechet_embed(d: KMetric, jobs: int = 1) -> ChainMatrix:
    """One column per k-tuple, in canonical order; eval at p=inf returns d.

    Column t is the LP dual of t's bounding-chain program, as in
    frechet_column, taken from one warm-started sweep over the tuples (so
    on degenerate duals it may differ from frechet_column's).  Raises
    NotStrongError at the first tuple (canonical order) that some chain
    bounds more cheaply than its table value.  The sweep is sequential, so
    jobs has no effect; it is kept for callers that pass it.
    """
    sweep = bounding_sweep(d.values, d.n, d.k)
    columns = [_strong_column(d, i, cost, y) for i, (cost, _, y) in enumerate(sweep)]
    return ChainMatrix(n=d.n, k=d.k, data=np.column_stack(columns))


def _abs_moment_root(p: float) -> float:
    """(E|N(0,1)|^p)^(1/p), the normaliser for p-norm projections; refused past p ~ 301."""
    try:
        moment = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise ValueError(f"projection to p={p} has no finite normaliser")
    return moment ** (1.0 / p)


def random_project(
    F: ChainMatrix, m_target: int, norm_out: NormSpec, seed: int
) -> ChainMatrix:
    """Gaussian sketch of the columns: F' = F R^T with i.i.d. normal R.

    Entries are scaled by 1/(c_p * m_target^(1/p)) where c_p is the p-th
    absolute moment root of the standard normal, so the expected p-norm of a
    projected row matches its Euclidean length (for p=2 this is the familiar
    1/sqrt(m') scaling).  The peak is R, F R^T and ChainMatrix's copy of it;
    one over the byte budget is refused before R is drawn (_check_bytes).
    """
    if m_target < 1:
        raise ValueError(f"target dimension must be positive, got {m_target}")
    _check_bytes("projection", 8 * m_target * (F.m + 2 * F.data.shape[0]))
    if norm_out.is_inf:
        raise ValueError("projection requires a finite p")
    scale = 1.0 / (_abs_moment_root(norm_out.p) * m_target ** (1.0 / norm_out.p))
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((m_target, F.m))
    data = F.data @ R.T
    data *= scale
    return ChainMatrix(n=F.n, k=F.k, data=data)


def jl_target_dim(n: int, k: int, eps: float) -> int:
    """Projection dimension 8 k log(n) / eps^2: every tuple value within 1 +/- eps whp."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    columns = 8.0 * k * math.log(n) / (eps * eps) if eps * eps else math.inf
    if not math.isfinite(columns):
        raise ValueError(f"eps {eps} gives no finite projection dimension")
    return math.ceil(columns)


def l2_to_lp_dim(m: int, p: float, eps: float) -> int:
    """Columns needed so the p-norm table tracks the Euclidean one within eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if math.isinf(p):
        raise ValueError("l2-to-lp projection requires a finite p")
    if p < 2.0:
        return math.ceil(m / (eps * eps))
    try:
        return max(1, math.ceil((m / (eps * eps * p)) ** (p / 2.0)))
    except OverflowError:
        raise ValueError(f"projection to p={p} needs more columns than a float holds") from None


def embed_l2_to_lp(F: ChainMatrix, p: float, eps: float, seed: int) -> ChainMatrix:
    """Re-represent a Euclidean coboundary table in the p-norm, up to eps."""
    return random_project(F, l2_to_lp_dim(F.m, p, eps), NormSpec(p), seed)


def max_distortion(d1: KMetric, d2: KMetric) -> float:
    """Largest relative disagreement max(a/b, b/a) - 1 over all tuples.

    Entries where both tables vanish contribute zero; a zero on one side
    only is reported as infinity.
    """
    if (d1.n, d1.k) != (d2.n, d2.k):
        raise ValueError(
            f"tables disagree in shape: ({d1.n}, {d1.k}) vs ({d2.n}, {d2.k})"
        )
    a, b = d1.values, d2.values
    if ((a == 0.0) != (b == 0.0)).any():
        return math.inf
    a, b = a[a != 0.0], b[b != 0.0]
    return float(np.maximum(a / b - 1.0, b / a - 1.0).max(initial=0.0))
