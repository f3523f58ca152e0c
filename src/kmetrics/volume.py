"""Simplex-volume measures over point clouds and their chain realisations.

The arity-k volume of k points is the (k-1)-dimensional content of their
convex hull, computed through the Gram determinant so any ambient dimension
works.  Collecting the signed volumes of all coordinate projections gives a
vector whose Euclidean length recovers the volume (Cauchy-Binet); the same
projections, turned into cone chains over the origin, realise the volume
table as a coboundary table, so volume tables are strong.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

import numpy as np

from .coboundary import _EVAL_BLOCK, ChainMatrix
from .metric import KMetric
from .simplicial import _check_bytes, simplex_rows


@dataclass(frozen=True)
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


def _difference_matrix(points: np.ndarray) -> np.ndarray:
    """Columns x_i - x_1 for i >= 2; shape (m, k-1)."""
    return (points[1:] - points[0]).T


def signed_volume(points: Sequence[Sequence[float]]) -> float:
    """Oriented content of k points in dimension k-1: det of differences / (k-1)!."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two points in a 2d array")
    k = arr.shape[0]
    if arr.shape[1] != k - 1:
        raise ValueError(
            f"signed volume of {k} points needs ambient dimension {k - 1}, "
            f"got {arr.shape[1]}"
        )
    return float(np.linalg.det(_difference_matrix(arr)) / factorial(k - 1))


def gram_volume(points: Sequence[Sequence[float]]) -> float:
    """Unsigned content of k points in any ambient dimension.

    sqrt(det(A^T A)) / (k-1)! for the difference matrix A; zero exactly when
    the points are affinely dependent (tiny negative determinants from
    round-off are clipped).
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two points in a 2d array")
    k = arr.shape[0]
    A = _difference_matrix(arr)
    gram = float(np.linalg.det(A.T @ A))
    return float(np.sqrt(max(gram, 0.0)) / factorial(k - 1))


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


def projected_volume_vector(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Volumes of all axis-aligned projections to dimension k-1, in lex order.

    The Euclidean norm of this vector equals gram_volume(points).
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError("need a 2d array of points")
    k, m = arr.shape[0], arr.shape[1]
    if k - 1 > m:
        raise ValueError(f"{k} points need ambient dimension at least {k - 1}")
    A = _difference_matrix(arr)
    out = np.empty(comb(m, k - 1))
    for j, axes in enumerate(itertools.combinations(range(m), k - 1)):
        out[j] = abs(np.linalg.det(A[list(axes), :])) / factorial(k - 1)
    return out


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


def min_max_side_bound_check(points: Sequence[Sequence[float]]):
    """Shortest side of a triangle against twice its area over the longest side.

    For any three points, min side >= 2 * area / max side; the inequality is
    checked (up to round-off), ArithmeticError is raised if it fails, and
    (min side, bound) is returned.
    """
    arr = np.asarray(points, dtype=float)
    if arr.shape[0] != 3:
        raise ValueError(f"expected exactly 3 points, got {arr.shape[0]}")
    sides = [
        float(np.linalg.norm(arr[a] - arr[b])) for a, b in ((0, 1), (0, 2), (1, 2))
    ]
    shortest, longest = min(sides), max(sides)
    if longest == 0.0:
        return 0.0, 0.0
    bound = 2.0 * gram_volume(arr) / longest
    if shortest < bound - 1e-9:
        raise ArithmeticError(
            f"shortest side {shortest!r} is below the area bound {bound!r}"
        )
    return shortest, bound
