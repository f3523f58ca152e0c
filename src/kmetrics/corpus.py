"""Named instances exercising every capability, with their expected verdicts.

Each constructor returns the instance payload bundled with a map of expected,
machine-checkable outcomes (weak/strong verdicts, witness costs, value
tables) that the test suite and the command line generator both consume.
"""

from __future__ import annotations

from math import comb, sqrt

import numpy as np

import kmetrics as km

from .simplicial import (
    Chain, ValueRecord, _check_arity, _check_counts, chain_from_dict, simplex_index, simplex_rows,
)

# Bounds of the uniform costs that random_strong_metric draws, one per k-tuple.
_WEIGHT_RANGE = (0.5, 2.0)

# The seven small triangles of an edgewise-subdivided triangle: 0,1,2 are the
# corners, 3,4,5 the midpoints opposite to them (3 between 0 and 2, 4 between
# 0 and 1, 5 between 1 and 2).  Orientations are chosen so the chain's
# boundary is the boundary of the corner triangle (0,1,2).
SUBDIVISION_TRIANGLES = (
    (0, 1, 4),
    (0, 4, 3),
    (1, 2, 5),
    (1, 5, 4),
    (0, 3, 2),
    (2, 3, 5),
    (3, 4, 5),
)


class CorpusInstance(ValueRecord):
    """A named payload, its expected outcomes, and aux, extra objects (by default {})."""

    __slots__ = ("name", "payload", "expected", "aux")
    _defaults = {"aux": None}

    def _validate(self):
        if self.aux is None:  # a fresh dict per instance
            object.__setattr__(self, "aux", {})


def subdivision_chain() -> Chain:
    """The oriented 7-triangle chain filling the boundary of (0, 1, 2)."""
    return chain_from_dict(6, 2, {t: 1.0 for t in SUBDIVISION_TRIANGLES})


def subdivided_triangle() -> CorpusInstance:
    """Weak-but-not-strong 3-metric: cheap subdivision triangles, dear rest.

    The seven subdivision triangles cost 1 and every other triple costs
    10; the subdivision chain then bounds the corner triple (0, 1, 2) at
    total cost 7, undercutting its table value.
    """
    values = np.full(comb(6, 3), 10.0)
    for t in SUBDIVISION_TRIANGLES:
        values[simplex_index(6, tuple(sorted(t)))] = 1.0
    payload = km.KMetric(n=6, k=3, values=values)
    return CorpusInstance(
        name="subdivided-triangle",
        payload=payload,
        expected={
            "weak": True,
            "strong": False,
            "witness_simplex": (0, 1, 2),
            "witness_cost": 7.0,
            "witness_value": 10.0,
        },
        aux={"filling_chain": subdivision_chain()},
    )


def discrete_metric(n: int, k: int) -> CorpusInstance:
    """Every distinct k-tuple at distance one; strong at all checked sizes."""
    # a read-only view: KMetric refuses a count over MAX_SIMPLICES before copying it
    payload = km.KMetric(n=n, k=k, values=np.broadcast_to(1.0, comb(n, k)))
    aux = {}
    if k == 3:
        # the all-ones edge chain realises the table as a 1-norm coboundary
        aux["inducing_chain_matrix"] = km.ChainMatrix(
            n=n, k=3, data=np.ones((comb(n, 2), 1))
        )
    return CorpusInstance(
        name="discrete",
        payload=payload,
        expected={"weak": True, "strong": True},
        aux=aux,
    )


def four_point_equilateral() -> CorpusInstance:
    """Planar edge labels on 4 points whose 2-norm table is {0, 1, 1, 1}.

    One triple collapses to zero while the three others have unit area.  A
    zero triangle area forces collinear points, and three collinear points
    cannot span three unit areas with a common fourth point, so this table
    is a coboundary table that no point cloud realises as volumes.
    """
    rows = comb(4, 2)
    data = np.zeros((rows, 2))
    data[simplex_index(4, (1, 3))] = [1.0, 0.0]
    data[simplex_index(4, (2, 3))] = [0.5, sqrt(3.0) / 2.0]
    payload = km.ChainMatrix(n=4, k=3, data=data)
    return CorpusInstance(
        name="four-point-equilateral",
        payload=payload,
        expected={
            "norm_p": 2,
            "values": {
                (0, 1, 2): 0.0,
                (0, 1, 3): 1.0,
                (0, 2, 3): 1.0,
                (1, 2, 3): 1.0,
            },
            "weak": True,
            "strong": True,
            "volume_realizable": False,
        },
    )


def six_point_apex_discrete() -> CorpusInstance:
    """Apex lift of the 5-point discrete 3-metric's inducing chain.

    The resulting arity-4 table is one on apex-carrying tuples and zero on
    the rest; it is a 1-norm coboundary table but not a volume table.
    """
    base = discrete_metric(5, 3)
    payload = km.apex_extend_chain_matrix(base.aux["inducing_chain_matrix"])
    values = {tuple(s): 1.0 if s[-1] == 5 else 0.0 for s in simplex_rows(6, 3).tolist()}
    return CorpusInstance(
        name="six-point-apex-discrete",
        payload=payload,
        expected={
            "norm_p": 1,
            "values": values,
            "weak": True,
            "strong": True,
            "volume_realizable": False,
        },
    )


def _pairwise_distances(cloud: km.PointCloud) -> np.ndarray:
    pts = cloud.points
    diff = (pts[:, None, :] - pts[None, :, :]).reshape(-1, cloud.m)
    return km.NormSpec(2).row_norms(diff).reshape(cloud.count, cloud.count)


def perimeter_metric(cloud: km.PointCloud) -> CorpusInstance:
    """Arity-3 table summing the three pairwise distances of each triple."""
    dist = _pairwise_distances(cloud)
    a, b, c = simplex_rows(cloud.count, 2).T
    payload = km.KMetric(n=cloud.count, k=3, values=dist[a, b] + dist[a, c] + dist[b, c])
    return CorpusInstance(
        name="perimeter", payload=payload, expected={"weak": True}
    )


def max_side_metric(cloud: km.PointCloud) -> CorpusInstance:
    """Arity-3 table taking the longest pairwise distance of each triple."""
    dist = _pairwise_distances(cloud)
    a, b, c = simplex_rows(cloud.count, 2).T
    longest = np.maximum.reduce([dist[a, b], dist[a, c], dist[b, c]])
    payload = km.KMetric(n=cloud.count, k=3, values=longest)
    return CorpusInstance(
        name="max-side", payload=payload, expected={"weak": True}
    )


def random_strong_metric(n: int, k: int, seed: int) -> CorpusInstance:
    """Bounding-chain metric of the complete complex under random costs.

    Every k-tuple is a facet with a cost drawn from U(*_WEIGHT_RANGE), and
    the table is one bounding_sweep over all tuples.  Tables built this way
    satisfy the strong inequality by construction; equal costs everywhere
    reduce to a scaled discrete table.
    """
    _check_arity(n, k)  # before any weight is drawn
    count = _check_counts(n, k - 1)
    weights = np.random.default_rng(seed).uniform(*_WEIGHT_RANGE, size=count)
    values = np.array([cost for cost, _, _ in km.lp.bounding_sweep(weights, n, k)])
    return CorpusInstance(
        name="random-strong",
        payload=km.KMetric(n=n, k=k, values=values),
        expected={"weak": True, "strong": True},
        aux={"weights": weights},
    )
