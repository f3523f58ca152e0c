"""The array-holding records compare by identity and are hashable."""

import dataclasses

import numpy as np
import pytest

import kmetrics

RECORDS = {
    "Chain": lambda: kmetrics.Chain(n=4, dim=1, coeffs=np.ones(6)),
    "LinearChainOperator": lambda: kmetrics.LinearChainOperator(
        n=4, src_dim=1, dst_dim=0, matrix=np.ones((4, 6))),
    "KMetric": lambda: kmetrics.KMetric(n=4, k=3, values=np.ones(4)),
    "ChainMatrix": lambda: kmetrics.ChainMatrix(n=4, k=3, data=np.ones((6, 2))),
    "PointCloud": lambda: kmetrics.PointCloud(points=np.ones((4, 2))),
    "WeightedComplex": lambda: kmetrics.WeightedComplex(
        n=4, k=3, facets=((0, 1, 2),), weights=np.ones(1)),
    "StandardFormLP": lambda: kmetrics.StandardFormLP(A=np.ones((1, 2)), b=np.ones(1),
                                                      c=np.ones(2)),
    "LPSolution": lambda: kmetrics.LPSolution("optimal", np.ones(2), np.ones(1), 1.0),
}


@pytest.mark.parametrize("name", RECORDS)
def test_array_records_compare_by_identity_and_hash(name):
    record = RECORDS[name]()
    copy = dataclasses.replace(record)  # every field the same value
    assert record == record
    assert record != copy
    assert len({record, copy}) == 2
