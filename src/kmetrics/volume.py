"""Simplex-volume measures over point clouds and their chain realisations.

The arity-k volume of k points is the (k-1)-dimensional content of their
convex hull, computed through the Gram determinant so any ambient dimension
works.  The signed volumes of a tuple's coordinate projections form a vector
whose Euclidean length recovers the volume (Cauchy-Binet); as cone chains
over the origin, those projections realise the volume table as a coboundary
table, so volume tables are strong.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .coboundary import _EVAL_BLOCK, ChainMatrix
from .metric import KMetric
from .simplicial import _check_bytes, simplex_rows


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Finitely many points in a common ambient dimension m."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a (count, m) array, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]


def volume_metric(cloud: PointCloud, k: int) -> KMetric:
    """Arity-k table of simplex volumes over all k-subsets of the cloud."""
    if k < 2:
        raise ValueError(f"arity must be at least 2, got {k}")
    if cloud.count < k:
        raise ValueError(f"cloud has {cloud.count} points, needs at least {k}")
    if k > cloud.m + 1:
        warnings.warn(
            f"arity {k} exceeds ambient dimension {cloud.m} + 1; all volumes vanish",
            stacklevel=2,
        )
    # rows x_i - x_1 of a block of tuples (k*m floats each) at a time, stacked
    tuples = simplex_rows(cloud.count, k - 1)
    step = max(1, _EVAL_BLOCK // (k * cloud.m))
    grams = []
    for a in range(0, tuples.shape[0], step):
        P = cloud.points[tuples[a : a + step]]
        D = P[:, 1:] - P[:, :1]
        grams.append(np.linalg.det(D @ D.transpose(0, 2, 1)))
    values = np.sqrt(np.maximum(np.concatenate(grams), 0.0)) / factorial(k - 1)
    return KMetric(n=cloud.count, k=k, values=values)


def volume_to_coboundary(cloud: PointCloud, k: int) -> ChainMatrix:
    """Cone chains realising the volume table: one column per axis set.

    Column I assigns to a (k-2)-simplex the signed volume of the cone from
    the origin over its points projected to the axes I.  Evaluating the
    result at p=2 reproduces volume_metric(cloud, k).  The peak is the table
    and ChainMatrix's copy of it; one over the byte budget is refused before
    any allocation (_check_bytes).
    """
    if k < 2:
        raise ValueError(f"arity must be at least 2, got {k}")
    if cloud.count < k:
        raise ValueError(f"cloud has {cloud.count} points, needs at least {k}")
    if k - 1 > cloud.m:
        raise ValueError(
            f"arity {k} needs ambient dimension at least {k - 1}, got {cloud.m}"
        )
    _check_bytes("cone chains", 2 * 8 * comb(cloud.count, k - 1) * comb(cloud.m, k - 1))
    # The cone from the origin over points p_1..p_{k-1} has the points
    # themselves as its difference columns, so each entry is the determinant
    # of the transposed projected points: one det over (simplex, axis set),
    # for a block of simplices ((k-1)**2 floats per axis set each) at a time.
    tuples = simplex_rows(cloud.count, k - 2)
    axis_sets = simplex_rows(cloud.m, k - 2)  # the (k-1)-subsets of the axes
    data = np.empty((tuples.shape[0], axis_sets.shape[0]))
    step = max(1, _EVAL_BLOCK // (axis_sets.size * (k - 1)))
    for a in range(0, tuples.shape[0], step):
        cones = cloud.points[tuples[a : a + step]][:, :, axis_sets].transpose(0, 2, 3, 1)
        data[a : a + step] = np.linalg.det(cones) / factorial(k - 1)
    return ChainMatrix(n=cloud.count, k=k, data=data)

