"""Weighted facet complexes, their bounding-chain metrics, and hypertrees.

A weighted complex keeps the full lower skeleton and a positively weighted
set of top facets.  Its induced table assigns each k-tuple the cheapest
facet-supported chain bounding that tuple's boundary (for graphs this is the
shortest-path metric).  A hypertree is a facet set that is acyclic in the
top dimension yet still bounds every cycle one dimension down; its metric
embeds exactly into an entrywise-1-norm coboundary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .coboundary import ChainMatrix
from .metric import (
    KMetric,
    UnfillableBoundaryError,
    bounding_sweep,
)
from .simplicial import (
    _check_counts,
    coboundary_rows,
    enumerate_simplices,
    face_ranks,
    simplex_index,
    validate_simplex,
)

RANK_TOL = 1e-9
L1_RESIDUAL_TOL = 1e-8


class NotHypertreeError(Exception):
    """The facet set fails one of the two hypertree rank conditions."""


@dataclass(frozen=True)
class WeightedComplex:
    """Positively weighted (k-1)-facets over the complete lower skeleton."""

    n: int
    k: int
    facets: tuple
    weights: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"arity must be at least 2, got {self.k}")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        keys = tuple(validate_simplex(self.n, f) for f in self.facets)
        if len(keys) < 1:
            raise ValueError("need at least one facet")
        if any(len(f) != self.k for f in keys):
            raise ValueError(f"facets must have {self.k} vertices")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate facet")
        w = np.array(self.weights, dtype=float).reshape(-1)
        if w.shape != (len(keys),):
            raise ValueError(f"expected {len(keys)} weights, got {w.shape[0]}")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("facet weights must be finite and positive")
        w.flags.writeable = False
        object.__setattr__(self, "facets", keys)
        object.__setattr__(self, "weights", w)

    def facet_indices(self) -> np.ndarray:
        return simplex_index(self.n, np.array(self.facets))


@dataclass(frozen=True)
class HypertreeReport:
    is_hypertree: bool
    acyclic: bool  # no nonzero facet-supported chain without boundary
    fills_cycles: bool  # every cycle one dimension down bounds a facet chain
    facet_rank: int
    facet_count: int
    cycle_space_dim: int


def cycle_space_dim(n: int, dim: int) -> int:
    """Dimension of the boundaryless dim-chains of the complete complex: C(n-1, dim+1).

    In dimension zero these are the chains with coefficients summing to
    zero, matching the convention that a connected graph has no unbounded
    0-cycles.  The complex is a cone over vertex 0, so each cycle z equals
    boundary(0*z) = sum of z(s) boundary(0*s) over the s that miss vertex 0,
    and these boundaries, each the only one nonzero at its s, are a basis.
    """
    _check_counts(n, dim)
    return comb(n - 1, dim + 1)


def _facet_boundary(K: WeightedComplex) -> np.ndarray:
    """The facet columns of the boundary: the coboundary of the identity, transposed."""
    faces = face_ranks(K.n, K.k - 1)[:, K.facet_indices()]
    return coboundary_rows(faces, np.eye(comb(K.n, K.k - 1))).T


def is_hypertree(K: WeightedComplex) -> HypertreeReport:
    """Two rank checks on the facet-restricted boundary matrix."""
    B = _facet_boundary(K)
    rank = int(np.linalg.matrix_rank(B, tol=RANK_TOL))
    cyc = cycle_space_dim(K.n, K.k - 2)
    acyclic = rank == len(K.facets)
    fills = rank == cyc
    return HypertreeReport(
        is_hypertree=acyclic and fills,
        acyclic=acyclic,
        fills_cycles=fills,
        facet_rank=rank,
        facet_count=len(K.facets),
        cycle_space_dim=cyc,
    )


def mbc_metric(K: WeightedComplex, jobs: int = 1) -> KMetric:
    """Minimum bounding-chain cost of every k-tuple, chains on facets only.

    The tuples are one sequential sweep, so jobs has no effect; it is kept
    for callers that pass it.
    """
    count = comb(K.n, K.k)
    weights = np.zeros(count)
    idx = K.facet_indices()
    weights[idx] = K.weights
    values = []
    try:
        for cost, _, _ in bounding_sweep(weights, K.n, K.k, np.unique(idx)):
            values.append(cost)
    except UnfillableBoundaryError as exc:
        raise UnfillableBoundaryError(
            f"complex does not fill all boundaries: no facet chain bounds "
            f"{enumerate_simplices(K.n, K.k - 1)[len(values)]}"
        ) from exc
    return KMetric(n=K.n, k=K.k, values=np.array(values))


def hypertree_to_l1(K: WeightedComplex) -> ChainMatrix:
    """Chains whose 1-norm coboundary table equals the bounding-chain metric.

    Solves, per facet, for a chain one dimension down whose coboundary hits
    exactly that facet with exactly its weight (acyclicity makes the facet
    rows of the coboundary independent, so the system is consistent; the
    least-squares solution is the minimum-norm one).
    """
    report = is_hypertree(K)
    if not report.is_hypertree:
        raise NotHypertreeError(
            f"not a hypertree: rank {report.facet_rank} vs "
            f"{report.facet_count} facets and cycle space {report.cycle_space_dim}"
        )
    rows = _facet_boundary(K).T
    target = np.diag(K.weights)
    F, *_ = np.linalg.lstsq(rows, target, rcond=None)
    residual = float(np.abs(rows @ F - target).max())
    limit = L1_RESIDUAL_TOL * float(K.weights.max())  # relative: weights may be any scale
    if residual > limit:
        raise NotHypertreeError(f"facet system residual {residual:.3e} exceeds {limit:.3e}")
    return ChainMatrix(n=K.n, k=K.k, data=F)


def random_spanning_tree(
    n: int, seed: int, weight_range: tuple = (0.5, 2.0)
) -> WeightedComplex:
    """Random recursive tree on n vertices with uniform random edge weights."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    rng = np.random.default_rng(seed)
    facets = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        facets.append((min(u, v), max(u, v)))
    weights = rng.uniform(*weight_range, size=n - 1)
    return WeightedComplex(n=n, k=2, facets=tuple(facets), weights=weights)


def random_2hypertree(
    n: int, seed: int, weight_range: tuple = (0.5, 2.0)
) -> WeightedComplex:
    """Random triangle hypertree: a greedy basis of the triangle boundaries.

    Triangles are visited in reversed random order and kept when their
    boundary is independent of the kept ones (one Gram-Schmidt pass, each
    projection applied twice).  By matroid reverse-delete this is the set
    left by deleting triangles in random order while the rest still bound
    every 1-cycle: acyclic and spanning.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    rng = np.random.default_rng(seed)
    faces = face_ranks(n, 2)
    Q = np.zeros((comb(n, 2), cycle_space_dim(n, 1)))
    kept = []
    for j in rng.permutation(faces.shape[1])[::-1]:
        if len(kept) == Q.shape[1]:
            break
        v = np.zeros(Q.shape[0])
        v[faces[:, j]] = (1.0, -1.0, 1.0)
        for _ in range(2):
            v -= Q @ (Q.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > RANK_TOL:
            Q[:, len(kept)] = v / norm
            kept.append(j)
    facets = tuple(enumerate_simplices(n, 2)[j] for j in sorted(kept))
    weights = rng.uniform(*weight_range, size=len(facets))
    return WeightedComplex(n=n, k=3, facets=facets, weights=weights)
