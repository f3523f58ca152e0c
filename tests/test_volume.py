"""Simplex volumes of embedded points and the cone-chain realisation."""

import math
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import kmetrics.volume
import oracles
from kmetrics import (
    NormSpec,
    PointCloud,
    check_strong,
    eval_coboundary_metric,
    volume_metric,
    volume_to_coboundary,
)
from oracles import (
    gram_volume,
    gram_volume_reference,
    min_max_side_bound_check,
    projected_volume_vector,
    signed_volume,
)

SQRT2 = math.sqrt(2.0)
SQUARE = [[0.0, 0.0], [SQRT2, 0.0], [SQRT2, SQRT2], [0.0, SQRT2]]


def test_signed_volume_unit_triangle():
    assert signed_volume([[0, 0], [1, 0], [0, 1]]) == pytest.approx(0.5)


def test_signed_volume_antisymmetry():
    plus = signed_volume([[0, 0], [1, 0], [0, 1]])
    minus = signed_volume([[1, 0], [0, 0], [0, 1]])
    assert minus == pytest.approx(-plus)


def test_signed_volume_collinear_is_zero():
    assert signed_volume([[0, 0], [1, 1], [2, 2]]) == pytest.approx(0.0)


def test_signed_volume_shape_check():
    with pytest.raises(ValueError):
        signed_volume([[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # 3 points need dim 2


def test_gram_volume_planar_triangle_in_space():
    assert gram_volume([[0, 0, 0], [1, 0, 0], [0, 1, 0]]) == pytest.approx(0.5)


def test_gram_volume_square_corner_triple():
    assert gram_volume([[0, 0], [SQRT2, 0], [SQRT2, SQRT2]]) == pytest.approx(1.0)


def test_gram_volume_repeated_point():
    assert gram_volume([[1, 2], [1, 2], [0, 1]]) == pytest.approx(0.0)


def test_gram_volume_matches_qr_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(k - 1, 6))
        pts = rng.normal(size=(k, m))
        assert gram_volume(pts) == pytest.approx(
            gram_volume_reference(pts), rel=1e-9, abs=1e-12
        )


def test_volume_metric_square_is_all_ones():
    d = volume_metric(PointCloud(points=np.array(SQUARE)), 3)
    assert np.allclose(d.values, 1.0, atol=1e-12)


def test_volume_metric_zero_on_duplicate_points():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 3.0]])
    d = volume_metric(PointCloud(points=pts), 3)
    assert d.value((0, 1, 2)) == pytest.approx(0.0)
    assert d.value((0, 1, 3)) == pytest.approx(0.0)


def test_volume_metric_matches_per_tuple_oracle():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(6, 3))
    d = volume_metric(PointCloud(points=pts), 3)
    for t in combinations(range(6), 3):
        assert d.value(t) == pytest.approx(gram_volume(pts[list(t)]), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_determinants_match_the_per_tuple_functions_exactly(k):
    # volume_metric and volume_to_coboundary take one batched det; it must
    # agree bit for bit with gram_volume and signed_volume on each tuple
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(9, 4))
    cloud = PointCloud(points=pts)
    want = [gram_volume(pts[list(t)]) for t in combinations(range(9), k)]
    assert np.array_equal(volume_metric(cloud, k).values, want)
    origin = np.zeros((1, k - 1))
    cones = [
        [signed_volume(np.vstack([origin, pts[np.ix_(s, axes)]]))
         for axes in combinations(range(4), k - 1)]
        for s in combinations(range(9), k - 1)
    ]
    assert np.array_equal(volume_to_coboundary(cloud, k).data, cones)


def test_volume_metric_gathers_tuples_in_blocks(monkeypatch):
    # 60 points in R^500: stacking every tuple's points at once takes
    # C(60, 3) * 3 * 500 floats, 411 MB, for a 240 KB cloud
    rng = np.random.default_rng(30)
    cloud = PointCloud(points=rng.standard_normal((60, 500)))
    tracemalloc.start()
    try:
        d = volume_metric(cloud, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    for t in [(0, 1, 2), (7, 31, 59), (57, 58, 59)]:
        assert d.value(t) == pytest.approx(gram_volume(cloud.points[list(t)]), rel=1e-12)
    # blocks of 5 tuples, the last one short (84 = 16 * 5 + 4), give the
    # values of one block bit for bit
    small = PointCloud(points=rng.standard_normal((9, 4)))
    whole = volume_metric(small, 3).values
    monkeypatch.setattr(kmetrics.volume, "_EVAL_BLOCK", 5 * 3 * 4)
    assert np.array_equal(volume_metric(small, 3).values, whole)


def test_volume_to_coboundary_gathers_simplices_in_blocks(monkeypatch):
    # 60 points in R^30 at k=3: a 1,770 x 435 table (6.2 MB); stacking every
    # edge's 2x2 cones at once takes four times the table, and a copy more
    rng = np.random.default_rng(31)
    cloud = PointCloud(points=rng.standard_normal((60, 30)))
    tracemalloc.start()
    try:
        F = volume_to_coboundary(cloud, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * F.data.nbytes, peak
    # blocks of 5 simplices, the last one short (36 = 7 * 5 + 1 edges, 84 =
    # 16 * 5 + 4 triangles), and blocks of one give the data of one block
    # bit for bit
    small = PointCloud(points=rng.standard_normal((9, 4)))
    whole = {k: volume_to_coboundary(small, k).data for k in (3, 4)}
    for k, per_simplex in ((3, 6 * 2 * 2), (4, 4 * 3 * 3)):
        for block in (1, 5 * per_simplex):
            monkeypatch.setattr(kmetrics.volume, "_EVAL_BLOCK", block)
            assert np.array_equal(volume_to_coboundary(small, k).data, whole[k])


def test_volume_metric_warns_when_flat():
    with pytest.warns(UserWarning):
        d = volume_metric(PointCloud(points=np.zeros((4, 1))), 3)
    assert not d.values.any()


@pytest.mark.parametrize("build", [volume_metric, volume_to_coboundary])
@pytest.mark.parametrize("count, k, message", [
    (4, 1, "arity must be at least 2, got 1"),
    (2, 3, "cloud has 2 points, needs at least 3"),
])
def test_volumes_refuse_an_arity_below_two_or_above_the_point_count(build, count, k, message):
    with pytest.raises(ValueError) as info:
        build(PointCloud(points=np.eye(count, 2)), k)
    assert str(info.value) == message


def test_cone_chains_refuse_an_arity_past_the_ambient_dimension():
    # volume_metric only warns here (test_volume_metric_warns_when_flat)
    with pytest.raises(ValueError) as info:
        volume_to_coboundary(PointCloud(points=np.eye(5, 2)), 4)
    assert str(info.value) == "arity 4 needs ambient dimension at least 3, got 2"


@pytest.mark.parametrize("points, message", [
    (np.ones(3), "expected a (count, m) array, got shape (3,)"),
    (np.ones((0, 2)), "expected a (count, m) array, got shape (0, 2)"),
    (np.ones((2, 0)), "expected a (count, m) array, got shape (2, 0)"),
    ([[0.0, math.nan]], "coordinates must be finite"),
    ([[-math.inf, 0.0]], "coordinates must be finite"),
])
def test_point_cloud_refuses_a_bad_shape_or_coordinate(points, message):
    with pytest.raises(ValueError) as info:
        PointCloud(points=points)
    assert str(info.value) == message


def test_projected_volumes_recombine_to_the_gram_volume():
    rng = np.random.default_rng(15)
    for _ in range(100):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(k - 1, 6))
        pts = rng.normal(size=(k, m))
        vec = projected_volume_vector(pts)
        assert vec.shape == (comb(m, k - 1),)
        assert np.linalg.norm(vec) == pytest.approx(gram_volume(pts), rel=1e-9, abs=1e-12)


def test_projected_volume_coordinate_plane():
    pts = [[0, 0, 0], [1, 0, 0], [0, 2, 0]]  # lives in the xy-plane
    vec = projected_volume_vector(pts)
    assert np.count_nonzero(np.abs(vec) > 1e-14) == 1
    assert vec[0] == pytest.approx(1.0)  # axis set {0,1} is first


def test_projected_volume_full_dimension():
    pts = [[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]]
    vec = projected_volume_vector(pts)
    assert vec.shape == (1,)
    assert vec[0] == pytest.approx(abs(signed_volume(pts)))


def test_cone_chains_reproduce_volumes_single_column():
    rng = np.random.default_rng(18)
    pts = rng.normal(size=(5, 2))
    F = volume_to_coboundary(PointCloud(points=pts), 3)
    assert F.m == 1
    d = eval_coboundary_metric(F, NormSpec(2))
    want = volume_metric(PointCloud(points=pts), 3)
    assert np.allclose(d.values, want.values, rtol=1e-9, atol=1e-12)


def test_cone_chains_are_translation_safe():
    rng = np.random.default_rng(20)
    pts = rng.normal(size=(5, 3))
    for shift in (np.zeros(3), pts[2], rng.normal(size=3) * 10):
        cloud = PointCloud(points=pts - shift)
        d = eval_coboundary_metric(volume_to_coboundary(cloud, 3), NormSpec(2))
        want = volume_metric(cloud, 3)
        assert np.allclose(d.values, want.values, rtol=1e-9, atol=1e-12)


def test_cone_chains_high_dimension():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(6, 4))
    cloud = PointCloud(points=pts)
    d = eval_coboundary_metric(volume_to_coboundary(cloud, 4), NormSpec(2))
    want = volume_metric(cloud, 4)
    assert np.allclose(d.values, want.values, rtol=1e-9, atol=1e-12)


def test_volume_metrics_are_strong():
    rng = np.random.default_rng(24)
    for trial in range(6):
        n = int(rng.integers(4, 7))
        m = int(rng.integers(2, 4))
        k = int(rng.integers(3, 5))
        cloud = PointCloud(points=rng.normal(size=(n, m)))
        if k > m + 1:
            continue
        d = volume_metric(cloud, k)
        report = check_strong(d)
        assert report.is_weak and report.is_strong, trial


def test_volume_metric_rigid_motion_invariance():
    rng = np.random.default_rng(26)
    pts = rng.normal(size=(5, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ q.T + rng.normal(size=3)
    a = volume_metric(PointCloud(points=pts), 3)
    b = volume_metric(PointCloud(points=moved), 3)
    assert np.allclose(a.values, b.values, rtol=1e-8, atol=1e-12)


def test_volume_metric_scaling_power():
    rng = np.random.default_rng(28)
    pts = rng.normal(size=(5, 3))
    for k in (3, 4):
        base = volume_metric(PointCloud(points=pts), k)
        scaled = volume_metric(PointCloud(points=2.5 * pts), k)
        assert np.allclose(scaled.values, 2.5 ** (k - 1) * base.values, rtol=1e-8)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_volume_tables_scale_as_the_power_at_every_scale(k):
    # the Gram determinant scales as s**(2k - 2): at 1e-90 it underflowed to
    # zero and at 1e80 it overflowed, so those tuples are redone from scaled
    # rows.  At any scale the determinant is only good to about
    # eps (H / det)**2, H the product of the difference rows' lengths
    # (Hadamard's bound), so a thin tuple gets that much more than 1e-12.
    pts = np.random.default_rng(31).normal(size=(6, 3))
    base = volume_metric(PointCloud(points=pts), k).values
    D = np.array([pts[list(t[1:])] - pts[t[0]] for t in combinations(range(6), k)])
    hadamard = np.prod(np.linalg.norm(D, axis=2), axis=1) / math.factorial(k - 1)
    tol = 1e-12 + 16 * np.finfo(float).eps * (hadamard / base) ** 2
    for s in (1e-100, 1e-90, 1e-80, 1e80, 1e100):
        scaled = volume_metric(PointCloud(points=s * pts), k).values
        assert (np.abs(scaled / s ** (k - 1) / base - 1.0) <= tol).all(), s


def test_min_max_side_bound_examples():
    s3 = math.sqrt(3.0)
    shortest, bound = min_max_side_bound_check([[0, 0], [1, 0], [0.5, s3 / 2]])
    assert shortest == pytest.approx(1.0)
    assert bound == pytest.approx(s3 / 2)
    shortest, bound = min_max_side_bound_check([[0, 0], [1, 1], [2, 2]])
    assert bound == pytest.approx(0.0)
    shortest, bound = min_max_side_bound_check([[0, 0], [1, 0], [0, 1]])
    assert shortest == pytest.approx(1.0)
    assert bound == pytest.approx(2 * 0.5 / SQRT2)


def test_min_max_side_bound_random():
    rng = np.random.default_rng(30)
    for _ in range(100):
        shortest, bound = min_max_side_bound_check(rng.normal(size=(3, 2)))
        assert shortest >= bound - 1e-9


def test_min_max_side_bound_failure_raises(monkeypatch):
    # an explicit exception, not an assert, so the check survives python -O
    monkeypatch.setattr(oracles, "gram_volume", lambda points: 10.0)
    with pytest.raises(ArithmeticError, match="below the area bound"):
        min_max_side_bound_check([[0, 0], [1, 0], [0, 1]])


def test_no_planar_triple_has_three_equal_positive_gaps():
    """A zero-volume triple is collinear, so the three pairwise gaps live on
    a line; the largest gap is the sum of the other two, which rules out all
    three being equal and positive.  Scanning a fine grid of line positions
    confirms this numerically for the {0,1,1,1} table question."""
    grid = np.linspace(-1.0, 1.0, 41)
    a1, a2, a3 = np.meshgrid(grid, grid, grid, indexing="ij")
    g12 = np.abs(a1 - a2)
    g13 = np.abs(a1 - a3)
    g23 = np.abs(a2 - a3)
    equal = (np.abs(g12 - g13) < 1e-12) & (np.abs(g12 - g23) < 1e-12)
    positive = g12 > 1e-12
    assert not (equal & positive).any()
