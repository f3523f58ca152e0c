"""Weighted facet complexes, their bounding-chain metrics, and hypertrees.

A weighted complex keeps the full lower skeleton and a positively weighted
set of top facets.  Its induced table assigns each k-tuple the cheapest
facet-supported chain bounding that tuple's boundary (for graphs this is the
shortest-path metric).  A hypertree is a facet set that is acyclic in the
top dimension yet still bounds every cycle one dimension down: two ranks,
read on the kept rows of simplicial.boundary_block, where a hypertree's block
is square and nonsingular.  One solve of that block against the weights
embeds its metric exactly into an entrywise-1-norm coboundary table.  Both
read the face positions of the facets alone, never those of all k-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

# ChainMatrix through the package's table, so a complex read does not load coboundary
import kmetrics as km

from .metric import KMetric, UnfillableBoundaryError, bounding_sweep
from .simplicial import (
    _check_bytes,
    _check_counts,
    boundary_block,
    coboundary_rows,
    face_ranks,
    simplex_at,
    simplex_index,
    simplex_rows,
    validate_simplex,
)

RANK_TOL = 1e-9
L1_RESIDUAL_TOL = 1e-8


class NotHypertreeError(Exception):
    """The facet set fails one of the two hypertree rank conditions."""


@dataclass(frozen=True, eq=False)
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
    0-cycles.  The complex is a cone over vertex 0, so one cycle per
    dim-simplex that misses vertex 0 is a basis (simplicial.boundary_block).
    """
    _check_counts(n, dim)
    return comb(n - 1, dim + 1)


def is_hypertree(K: WeightedComplex) -> HypertreeReport:
    """Two rank checks on the kept block, which has the rank of the full facet columns.

    The facets are acyclic when the rank equals their count, and fill every
    cycle when it equals cycle_space_dim, the block's row count.  The peak is
    the block and the SVD's copy; one over the byte budget is refused with
    ValueError before any allocation (_check_bytes).
    """
    first, cyc = comb(K.n - 1, K.k - 2), cycle_space_dim(K.n, K.k - 2)
    _check_bytes("hypertree block", 2 * 8 * cyc * len(K.facets))
    faces = face_ranks(K.n, np.array(K.facets))
    rank = int(np.linalg.matrix_rank(boundary_block(faces, first + cyc, first), tol=RANK_TOL))
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
    try:  # WeightedComplex refuses duplicate facets, so sorting suffices
        for cost, _, _ in bounding_sweep(weights, K.n, K.k, np.sort(idx)):
            values.append(cost)
    except UnfillableBoundaryError as exc:
        unfilled = simplex_at(K.n, K.k - 1, len(values))
        msg = f"complex does not fill all boundaries: no facet chain bounds {unfilled}"
        raise UnfillableBoundaryError(msg) from exc
    return KMetric(n=K.n, k=K.k, values=np.array(values))


def hypertree_to_l1(K: WeightedComplex) -> km.ChainMatrix:
    """Chains whose 1-norm coboundary table equals the bounding-chain metric.

    Column j is a chain one dimension down whose coboundary is w_j on facet
    j and zero on every other facet; it is zero on the faces through vertex
    0 and solves the square kept block on the rest.  Any such columns give
    the same table: the one facet chain bounding the boundary of a tuple t
    has cost sum_j |coboundary(F_j)(t)|.  The facets are a hypertree exactly
    when that block is square and nonsingular, so NotHypertreeError is raised
    here alone: by the facet count, the solve's singularity or its residual.
    """
    count, cyc = len(K.facets), cycle_space_dim(K.n, K.k - 2)
    if count != cyc:
        raise NotHypertreeError(f"not a hypertree: {count} facets, cycle space {cyc}")
    first, size = comb(K.n - 1, K.k - 2), comb(K.n, K.k - 1)
    # F beside the block, diag(w), the solve's answer and its two LAPACK copies
    _check_bytes("hypertree solve", 8 * (size + 5 * count) * count)
    faces = face_ranks(K.n, np.array(K.facets))
    target = np.diag(K.weights)
    F = np.zeros((size, count))  # zero on the faces through vertex 0
    try:
        F[first:] = np.linalg.solve(boundary_block(faces, size, first).T, target)
    except np.linalg.LinAlgError as exc:  # a ValueError, which the CLI reads as bad input
        raise NotHypertreeError("not a hypertree: the facet system is singular") from exc
    # per column, relative to its weight: a facet cycle leaves some j off by >= w_j/sqrt(count)
    residual = float((np.abs(coboundary_rows(faces, F) - target).max(axis=0) / K.weights).max())
    if residual > L1_RESIDUAL_TOL:
        raise NotHypertreeError(f"facet system residual {residual:.3e} exceeds {L1_RESIDUAL_TOL}")
    return km.ChainMatrix(n=K.n, k=K.k, data=F)


def random_spanning_tree(n: int, seed: int) -> WeightedComplex:
    """Random recursive tree on n vertices with edge weights drawn from U(0.5, 2)."""
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got {n}")
    rng = np.random.default_rng(seed)
    facets = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        facets.append((min(u, v), max(u, v)))
    weights = rng.uniform(0.5, 2.0, size=n - 1)
    return WeightedComplex(n=n, k=2, facets=tuple(facets), weights=weights)


def random_2hypertree(n: int, seed: int) -> WeightedComplex:
    """Random triangle hypertree: a greedy basis of the triangle boundaries.

    Triangles are visited in reversed random order and kept when their
    boundary is independent of the kept ones (one Gram-Schmidt pass, each
    projection applied twice).  By matroid reverse-delete this is the set
    left by deleting triangles in random order while the rest still bound
    every 1-cycle: acyclic and spanning.  Weights are drawn from U(0.5, 2).
    A basis over the byte budget is refused before anything is drawn.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    shape = (comb(n, 2), cycle_space_dim(n, 1))
    _check_bytes("Gram-Schmidt basis", 8 * shape[0] * shape[1])
    rng = np.random.default_rng(seed)
    rows = simplex_rows(n, 2)
    faces = face_ranks(n, rows)
    Q = np.zeros(shape)
    kept = []
    for j in rng.permutation(faces.shape[1])[::-1]:
        if len(kept) == Q.shape[1]:
            break
        v = np.zeros(Q.shape[0])
        v[faces[:, j]] = (1.0, -1.0, 1.0)
        basis = Q[:, :len(kept)]  # the filled columns
        for _ in range(2):
            v -= basis @ (basis.T @ v)
        norm = float(np.linalg.norm(v))
        if norm > RANK_TOL:
            Q[:, len(kept)] = v / norm
            kept.append(j)
    facets = tuple(map(tuple, rows[sorted(kept)].tolist()))
    weights = rng.uniform(0.5, 2.0, size=len(facets))
    return WeightedComplex(n=n, k=3, facets=facets, weights=weights)
