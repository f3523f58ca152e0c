"""Every named instance must satisfy its own expectation map."""

import math
from itertools import combinations

import numpy as np
import pytest

from kmetrics import (
    NormSpec,
    PointCloud,
    apply_operator,
    boundary_operator,
    check_strong,
    check_weak,
    eval_coboundary_metric,
    indicator_chain,
)
from kmetrics import WeightedComplex, corpus
from kmetrics.hypertree import mbc_metric
from kmetrics.corpus import (
    discrete_metric,
    four_point_equilateral,
    max_side_metric,
    perimeter_metric,
    random_strong_metric,
    six_point_apex_discrete,
    subdivided_triangle,
    subdivision_chain,
)


def test_subdivision_chain_fills_the_corner_triple():
    chain = subdivision_chain()
    bd = boundary_operator(6, 2)
    got = apply_operator(bd, chain)
    want = apply_operator(bd, indicator_chain(6, (0, 1, 2)))
    assert np.array_equal(got.coeffs, want.coeffs)
    assert chain.norm1() == 7.0


def test_subdivided_triangle_expectations():
    inst = subdivided_triangle()
    d = inst.payload
    assert d.value((0, 1, 4)) == 1.0
    assert d.value((0, 1, 2)) == 10.0
    assert d.value((0, 0, 1)) == 0.0
    report = check_strong(d)
    assert report.is_weak == inst.expected["weak"]
    assert report.is_strong == inst.expected["strong"]
    w = report.strong_witness
    assert w.simplex == inst.expected["witness_simplex"]
    assert w.cost == pytest.approx(inst.expected["witness_cost"], abs=1e-6)
    assert w.value == inst.expected["witness_value"]


def test_discrete_metric_expectations():
    for n, k in [(5, 3), (3, 2), (6, 4)]:
        inst = discrete_metric(n, k)
        report = check_strong(inst.payload)
        assert report.is_weak and report.is_strong
    with pytest.raises(ValueError):
        discrete_metric(2, 3)


def test_discrete_metric_inducing_chain():
    inst = discrete_metric(5, 3)
    F = inst.aux["inducing_chain_matrix"]
    d = eval_coboundary_metric(F, NormSpec(1))
    assert np.array_equal(d.values, inst.payload.values)


def test_four_point_equilateral_expectations():
    inst = four_point_equilateral()
    d = eval_coboundary_metric(inst.payload, NormSpec(inst.expected["norm_p"]))
    for t, want in inst.expected["values"].items():
        assert d.value(t) == pytest.approx(want, abs=1e-12)
    report = check_strong(d)
    assert report.is_weak and report.is_strong


def test_six_point_apex_discrete_expectations():
    inst = six_point_apex_discrete()
    d = eval_coboundary_metric(inst.payload, NormSpec(inst.expected["norm_p"]))
    for t, want in inst.expected["values"].items():
        assert d.value(t) == want  # integer arithmetic, exact
    assert check_weak(d).is_weak


def test_perimeter_metric_values_and_weakness():
    rng = np.random.default_rng(44)
    cloud = PointCloud(points=rng.normal(size=(5, 2)))
    inst = perimeter_metric(cloud)
    pts = cloud.points
    for t in [(0, 1, 2), (1, 3, 4)]:
        a, b, c = (pts[v] for v in t)
        want = (
            np.linalg.norm(a - b) + np.linalg.norm(a - c) + np.linalg.norm(b - c)
        )
        assert inst.payload.value(t) == pytest.approx(want)
    assert check_weak(inst.payload).is_weak


def test_perimeter_unit_equilateral():
    s3 = math.sqrt(3.0)
    cloud = PointCloud(points=np.array([[0, 0], [1, 0], [0.5, s3 / 2]]))
    assert perimeter_metric(cloud).payload.value((0, 1, 2)) == pytest.approx(3.0)
    assert max_side_metric(cloud).payload.value((0, 1, 2)) == pytest.approx(1.0)


def test_perimeter_and_max_side_tables_match_a_per_triple_reference():
    rng = np.random.default_rng(46)
    cloud = PointCloud(points=rng.normal(size=(9, 3)))
    pts = cloud.points

    def dist(u, v):
        return math.sqrt(sum((x - y) * (x - y) for x, y in zip(pts[u], pts[v])))

    sides = [(dist(a, b), dist(a, c), dist(b, c)) for a, b, c in combinations(range(9), 3)]
    assert np.array_equal(perimeter_metric(cloud).payload.values, [x + y + z for x, y, z in sides])
    assert np.array_equal(max_side_metric(cloud).payload.values, [max(s) for s in sides])


def test_max_side_metric_collinear_is_meta():
    cloud = PointCloud(points=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    inst = max_side_metric(cloud)
    assert inst.payload.value((0, 1, 2)) == pytest.approx(2.0)  # nonzero, meta
    assert check_weak(inst.payload).is_weak


def test_random_strong_metric_expectations():
    inst = random_strong_metric(5, 3, seed=1)
    report = check_strong(inst.payload)
    assert report.is_weak and report.is_strong
    again = random_strong_metric(5, 3, seed=1)
    assert np.array_equal(inst.payload.values, again.payload.values)
    with pytest.raises(ValueError):
        random_strong_metric(2, 3, seed=1)
    for k in (0, 1):  # the arity is named before any count of (k-2)-simplices
        with pytest.raises(ValueError, match="arity must be at least 2"):
            random_strong_metric(5, k, seed=1)


def test_random_strong_equal_weights_scale_the_discrete_table(monkeypatch):
    monkeypatch.setattr(corpus, "_WEIGHT_RANGE", (1.5, 1.5))
    inst = random_strong_metric(5, 3, seed=0)
    assert np.allclose(inst.payload.values, 1.5, atol=1e-9)


@pytest.mark.parametrize("n, k", [(6, 2), (9, 3), (7, 4)])
def test_random_strong_is_the_mbc_metric_of_the_complete_complex(n, k):
    # the table is one sweep over every tuple; a complex of all C(n, k)
    # facets under the same weights, through mbc_metric, is the oracle
    inst = random_strong_metric(n, k, seed=n * k)
    complete = WeightedComplex(n=n, k=k, facets=tuple(combinations(range(n), k)),
                               weights=inst.aux["weights"])
    assert np.array_equal(inst.payload.values, mbc_metric(complete).values)


def test_random_strong_single_tuple():
    inst = random_strong_metric(3, 3, seed=7)
    assert inst.payload.values.shape == (1,)
    assert check_strong(inst.payload).is_strong


@pytest.mark.parametrize("make", [perimeter_metric, max_side_metric])
def test_side_tables_scale_linearly_at_every_scale(make):
    # squared differences overflow at 1e200 and underflow far below 1e-150
    pts = np.random.default_rng(32).normal(size=(6, 3))
    base = make(PointCloud(points=pts)).payload.values
    for s in (1e-200, 1e-100, 1e-80, 1e80, 1e100, 1e200):
        scaled = make(PointCloud(points=s * pts)).payload.values
        assert np.allclose(scaled / s, base, rtol=1e-12, atol=0.0), s
