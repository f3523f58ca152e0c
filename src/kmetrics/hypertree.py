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

from math import comb

import numpy as np

import kmetrics as km

from .simplicial import (
    ValueRecord, WeightedComplex, _check_bytes, _check_counts, boundary_block, boundary_rows,
    coboundary_rows, face_ranks, simplex_at, simplex_rows,
)

RANK_TOL = 1e-9
L1_RESIDUAL_TOL = 1e-8


class NotHypertreeError(Exception):
    """The facet set fails one of the two hypertree rank conditions."""


class HypertreeReport(ValueRecord):
    """Rank checks: acyclic (no facet cycle), fills_cycles (each cycle a dimension down bounds)."""

    __slots__ = ("is_hypertree", "acyclic", "fills_cycles", "facet_rank", "facet_count",
                 "cycle_space_dim")


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


def mbc_metric(K: WeightedComplex, jobs: int = 1) -> km.KMetric:
    """Minimum bounding-chain cost of every k-tuple, chains on facets only.

    The tuples are one sequential sweep, so jobs has no effect; it is kept
    for callers that pass it.
    """
    weights = K.weight_table()
    values = []
    try:  # the weights are positive, so the nonzero entries are the facets, sorted
        for cost, _, _ in km.lp.bounding_sweep(weights, K.n, K.k, np.flatnonzero(weights)):
            values.append(cost)
    except km.UnfillableBoundaryError as exc:
        unfilled = simplex_at(K.n, K.k - 1, len(values))
        msg = f"complex does not fill all boundaries: no facet chain bounds {unfilled}"
        raise km.UnfillableBoundaryError(msg) from exc
    return km.KMetric(n=K.n, k=K.k, values=np.array(values))


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
        v = boundary_rows(faces[:, [j]], np.ones(1), Q.shape[0])
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
