#!/usr/bin/env python3
"""Triangle areas of a point cloud as a distance table, two ways.

The direct route takes Gram determinants.  The indirect route writes one
cone chain per coordinate plane and takes Euclidean row norms; the two
agree because squared projected areas sum to the squared area.  A
triangle's row of the coboundary of those chains holds its signed shadow
areas, one per coordinate plane.
"""

import math

import numpy as np

from kmetrics import (
    NormSpec,
    check_strong,
    coboundary_operator,
    eval_coboundary_metric,
    simplex_index,
)
from kmetrics.volume import PointCloud, volume_metric, volume_to_coboundary

rng = np.random.default_rng(21)
cloud = PointCloud(points=rng.standard_normal((6, 3)))

direct = volume_metric(cloud, 3)
F = volume_to_coboundary(cloud, 3)
via_chains = eval_coboundary_metric(F, NormSpec(2))
gap = np.abs(direct.values - via_chains.values).max()
print(f"6 points in 3 coordinates, {len(direct.values)} triangles")
print(f"determinant route vs cone-chain route: max gap {gap:.2e}")

report = check_strong(direct)
print("area table passes the strong check:", report.is_strong)

# the shadow vector of triangle (0, 1, 2) is its row of the coboundary of F
dF = coboundary_operator(cloud.count, 1).matrix @ F.data
shadows = dF[simplex_index(cloud.count, (0, 1, 2))]
print("one triangle, signed areas of its three axis-plane shadows:", np.round(shadows, 4))
print(f"  shadow vector 2-norm {np.linalg.norm(shadows):.6f}"
      f" = true area {direct.value((0, 1, 2)):.6f}")

# a square with side sqrt(2) splits into four unit triangles
side = math.sqrt(2.0)
square = PointCloud(points=np.array(
    [[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]]))
print("square areas:", volume_metric(square, 3).values)
