"""Raising arity by one through a fresh apex vertex.

The extended table on n+1 vertices (apex = index n, always the largest) is
zero on tuples missing the apex and copies the base table once the apex is
removed.  On chains the same construction is linear: the project operator
forgets the apex from apex-carrying simplices and kills the rest, and the
lift is its adjoint.  Both commute with the boundary, so extensions of
coboundary tables stay coboundary tables and strongness is preserved in
both directions.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .coboundary import ChainMatrix
from .metric import KMetric
from .simplicial import LinearChainOperator, _check_bytes, simplex_index, simplex_rows


def _apex_positions(n: int, dim: int) -> np.ndarray:
    """Positions on n+1 vertices of every dim-simplex on n with the apex appended."""
    return simplex_index(n + 1, np.pad(simplex_rows(n, dim), ((0, 0), (0, 1)), constant_values=n))


def apex_extend(d: KMetric) -> KMetric:
    """Arity k+1 table on n+1 vertices; apex-free tuples get zero."""
    positions = _apex_positions(d.n, d.k - 1)  # checks the extended count before allocating
    values = np.zeros(comb(d.n + 1, d.k + 1))
    values[positions] = d.values
    return KMetric(n=d.n + 1, k=d.k + 1, values=values)


def project_operator(n: int, h: int) -> LinearChainOperator:
    """Drop the apex: h-chains on n+1 vertices to (h-1)-chains on n.

    A simplex containing the apex maps to itself minus the apex with sign +1
    (the apex is the largest vertex, so it sits last in canonical order);
    apex-free simplices map to zero.  Its peak is two int64 matrices, as
    boundary_operator's is; one over the byte budget is refused before any
    allocation (_check_bytes).
    """
    if h < 1 or h > n:
        raise ValueError(f"need 1 <= h <= n, got h={h}, n={n}")
    rows, cols = comb(n, h), comb(n + 1, h + 1)
    _check_bytes("dense operator", 2 * 8 * rows * cols)
    mat = np.zeros((rows, cols), dtype=np.int64)
    mat[np.arange(rows), _apex_positions(n, h - 1)] = 1
    return LinearChainOperator(n=n + 1, src_dim=h, dst_dim=h - 1, matrix=mat, dst_n=n)


def lift_operator(n: int, h: int) -> LinearChainOperator:
    """Adjoint of project: (h-1)-chains on n vertices to h-chains on n+1.

    Each simplex is sent to itself with the apex appended.
    """
    mat = project_operator(n, h).matrix.T
    return LinearChainOperator(n=n, src_dim=h - 1, dst_dim=h, matrix=mat, dst_n=n + 1)


def apex_extend_chain_matrix(F: ChainMatrix) -> ChainMatrix:
    """Lift every column through the apex; evaluation commutes with apex_extend.

    Rows move as lift_operator moves them (+ 0.0 clears -0.0, as its product does).
    """
    positions = _apex_positions(F.n, F.k - 2)  # checks the extended count before allocating
    rows = comb(F.n + 1, F.k)  # the peak: data, F.data + 0.0 and ChainMatrix's copy
    _check_bytes("apex chains", 8 * F.m * (2 * rows + F.data.shape[0]))
    data = np.zeros((rows, F.m))
    data[positions] = F.data + 0.0
    return ChainMatrix(n=F.n + 1, k=F.k + 1, data=data)
