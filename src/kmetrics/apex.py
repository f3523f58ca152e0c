"""Raising arity by one through a fresh apex vertex.

The extended table on n+1 vertices (apex = index n, always the largest) is
zero on tuples missing the apex and copies the base table once the apex is
removed.  On chains the same construction is linear: appending the apex to
every simplex commutes with the boundary, so extensions of coboundary tables
stay coboundary tables and strongness is preserved in both directions.
"""

from __future__ import annotations

from math import comb

import numpy as np

import kmetrics as km

from .simplicial import _check_bytes, simplex_index, simplex_rows


def _apex_positions(n: int, dim: int) -> np.ndarray:
    """Positions on n+1 vertices of every dim-simplex on n with the apex appended."""
    return simplex_index(n + 1, np.pad(simplex_rows(n, dim), ((0, 0), (0, 1)), constant_values=n))


def apex_extend(d: km.KMetric) -> km.KMetric:
    """Arity k+1 table on n+1 vertices; apex-free tuples get zero."""
    positions = _apex_positions(d.n, d.k - 1)  # checks the extended count before allocating
    values = np.zeros(comb(d.n + 1, d.k + 1))
    values[positions] = d.values
    return km.KMetric(n=d.n + 1, k=d.k + 1, values=values)


def apex_extend_chain_matrix(F: km.ChainMatrix) -> km.ChainMatrix:
    """Lift every column through the apex; evaluation commutes with apex_extend.

    Row s of F becomes row s + apex, the rest are zero (+ 0.0 clears -0.0,
    as the product with the 0/1 lift matrix does).
    """
    positions = _apex_positions(F.n, F.k - 2)  # checks the extended count before allocating
    rows = comb(F.n + 1, F.k)  # the peak: data, F.data + 0.0 and ChainMatrix's copy
    _check_bytes("apex chains", 8 * F.m * (2 * rows + F.data.shape[0]))
    data = np.zeros((rows, F.m))
    data[positions] = F.data + 0.0
    return km.ChainMatrix(n=F.n + 1, k=F.k + 1, data=data)
