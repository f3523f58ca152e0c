"""Coboundary tables, the max-norm embedding, and random projections."""

import math
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest

from kmetrics import (
    ChainMatrix,
    KMetric,
    NormSpec,
    NotStrongError,
    check_strong,
    chain_from_dict,
    coboundary_operator,
    embed_l2_to_lp,
    enumerate_simplices,
    eval_coboundary_metric,
    frechet_column,
    frechet_embed,
    jl_target_dim,
    l2_to_lp_dim,
    max_distortion,
    random_project,
)
from kmetrics import WeightedComplex, coboundary
from kmetrics.corpus import four_point_equilateral, random_strong_metric, subdivided_triangle
from kmetrics.hypertree import mbc_metric
from kmetrics.simplicial import coboundary_rows, face_ranks, simplex_rows
from oracles import (
    random_closure_2metric, relabel_chain_matrix, relabel_kmetric, scaled_row_norms,
)


def _ones_column(n):
    return ChainMatrix(n=n, k=3, data=np.ones((comb(n, 2), 1)))


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        NormSpec(0.5)
    assert NormSpec("2").p == 2.0
    assert NormSpec(math.inf).is_inf


def test_chain_matrix_validation():
    with pytest.raises(ValueError):
        ChainMatrix(n=4, k=3, data=np.ones((5, 1)))  # wrong row count
    with pytest.raises(ValueError):
        ChainMatrix(n=4, k=3, data=np.ones(6))  # not 2-d
    with pytest.raises(ValueError):
        ChainMatrix(n=4, k=3, data=np.full((6, 1), np.nan))
    with pytest.raises(ValueError, match="arity"):
        ChainMatrix(n=4, k=1, data=np.ones((1, 1)))
    with pytest.raises(ValueError, match="n >= k"):
        ChainMatrix(n=2, k=3, data=np.ones((1, 1)))
    with pytest.raises(ValueError, match="at least one column"):
        ChainMatrix(n=4, k=3, data=np.ones((6, 0)))
    # and the refusals of what builds or reads chains
    with pytest.raises(ValueError, match="positive"):
        random_project(_ones_column(4), 0, NormSpec(2), seed=0)
    for eps in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="eps"):
            l2_to_lp_dim(3, 2.0, eps)
    with pytest.raises(ValueError, match="finite p"):
        l2_to_lp_dim(3, math.inf, 0.5)
    with pytest.raises(ValueError, match="dimension 1"):
        chain_from_dict(4, 1, {(0, 1, 2): 1.0})
    with pytest.raises(ValueError, match="3-tuple"):
        frechet_column(KMetric(n=4, k=3, values=np.ones(4)), (0, 1))


def test_all_ones_column_gives_discrete_triples():
    for n in (3, 4, 6):
        d = eval_coboundary_metric(_ones_column(n), NormSpec(math.inf))
        assert np.allclose(d.values, 1.0)


def test_four_point_instance_values():
    inst = four_point_equilateral()
    d = eval_coboundary_metric(inst.payload, NormSpec(2))
    assert d.value((0, 1, 2)) == pytest.approx(0.0, abs=1e-15)
    for t in [(0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        assert d.value(t) == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix_gives_zero_metric():
    F = ChainMatrix(n=5, k=3, data=np.zeros((10, 2)))
    for p in (1, 2, math.inf):
        assert not eval_coboundary_metric(F, NormSpec(p)).values.any()


def test_single_column_norms_coincide():
    rng = np.random.default_rng(8)
    F = ChainMatrix(n=5, k=3, data=rng.normal(size=(10, 1)))
    tables = [eval_coboundary_metric(F, NormSpec(p)).values for p in (1, 2, math.inf)]
    assert np.allclose(tables[0], tables[1])
    assert np.allclose(tables[0], tables[2])


def test_eval_matches_the_dense_coboundary():
    rng = np.random.default_rng(21)
    for n, k in [(9, 3), (8, 4), (7, 2)]:
        F = ChainMatrix(n=n, k=k, data=rng.standard_normal((comb(n, k - 1), 4)))
        rows = coboundary_operator(n, k - 2).matrix @ F.data
        for p in (1, 2, 3, math.inf):
            got = eval_coboundary_metric(F, NormSpec(p)).values
            want = NormSpec(p).row_norms(rows)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (n, k, p)


def test_eval_at_a_large_p_neither_underflows_nor_overflows():
    # |x|**1000 underflows to zero for every entry below 0.06, and
    # |x|**1100 overflows above 1.9; the table lies between the two
    data = np.random.default_rng(42).uniform(0.0, 0.06, size=(comb(6, 2), 5))
    for scale, p in ((1.0, 1000.0), (40.0, 1100.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = ChainMatrix(n=6, k=3, data=scale * data)
            got = eval_coboundary_metric(F, NormSpec(p)).values
        want = scaled_row_norms(coboundary_operator(6, 1).matrix @ F.data, p)
        assert want.min() > 0.0 and np.isfinite(want).all()
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), p
    # at p = 1 and 2 numpy's unscaled norm runs first: a sum of squares of
    # entries near 1e-170 underflows and near 1e170 overflows
    for p in (1.0, 2.0):
        unit = eval_coboundary_metric(ChainMatrix(n=6, k=3, data=data), NormSpec(p)).values
        for factor in (1e-300, 1e-170, 1e170, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                F = ChainMatrix(n=6, k=3, data=factor * data)
                got = eval_coboundary_metric(F, NormSpec(p)).values
            assert np.allclose(got, factor * unit, rtol=1e-12, atol=0.0), (p, factor)


def test_eval_memory_stays_with_the_chains():
    # The dense int64 coboundary alone is C(40, 3) x C(40, 2) x 8 bytes = 62 MB;
    # the gather needs a few arrays of C(40, 3) x 10 floats (0.8 MB each).  With
    # weak_volume's 355 columns one gather of all rows would be 28 MB, so the
    # rows are held one block at a time.
    rng = np.random.default_rng(40)
    for m in (10, 355):
        F = ChainMatrix(n=40, k=3, data=rng.standard_normal((comb(40, 2), m)))
        tracemalloc.start()
        try:
            d = eval_coboundary_metric(F, NormSpec(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.values.size == comb(40, 3)
        assert peak < 16 * 2**20, (m, peak)


def test_blocked_eval_is_bit_identical_to_one_gather(monkeypatch):
    rng = np.random.default_rng(41)
    cases = [(30, 3, 600, None), (9, 3, 4, 1), (9, 3, 4, 5 * 4), (8, 4, 3, 7)]
    for n, k, m, block in cases:  # block None keeps the default; the last block is short
        if block is not None:
            monkeypatch.setattr(coboundary, "_EVAL_BLOCK", block)
        F = ChainMatrix(n=n, k=k, data=rng.standard_normal((comb(n, k - 1), m)))
        rows = coboundary_rows(face_ranks(n, simplex_rows(n, k - 1)), F.data)
        for p in (1, 2, math.inf):
            got = eval_coboundary_metric(F, NormSpec(p)).values
            assert np.array_equal(got, NormSpec(p).row_norms(rows)), (n, k, m, block, p)


def test_coboundary_tables_are_strong():
    rng = np.random.default_rng(12)
    for trial in range(9):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 7))
        m = int(rng.integers(1, 4))
        F = ChainMatrix(n=n, k=k, data=rng.uniform(-1, 1, size=(comb(n, k - 1), m)))
        for p in (1, 2, math.inf):
            d = eval_coboundary_metric(F, NormSpec(p))
            report = check_strong(d)
            assert report.is_weak and report.is_strong, (trial, p)


def test_frechet_column_two_points():
    d = KMetric(n=2, k=2, values=np.array([5.0]))
    chain, achieved = frechet_column(d, (0, 1))
    assert achieved == pytest.approx(5.0, abs=1e-6)
    assert abs(chain.coeffs[1] - chain.coeffs[0]) == pytest.approx(5.0, abs=1e-6)


def test_frechet_column_discrete():
    d = KMetric(n=4, k=3, values=np.ones(4))
    for t in enumerate_simplices(4, 2):
        _, achieved = frechet_column(d, t)
        assert achieved == pytest.approx(1.0, abs=1e-6)


def test_frechet_column_scales_linearly():
    rng = np.random.default_rng(21)
    d = mbc_metric(
        WeightedComplex(
            n=4,
            k=3,
            facets=tuple(enumerate_simplices(4, 2)),
            weights=rng.uniform(0.5, 2.0, size=4),
        )
    )
    _, base = frechet_column(d, (0, 1, 2))
    scaled = KMetric(n=4, k=3, values=3.0 * d.values)
    _, tripled = frechet_column(scaled, (0, 1, 2))
    assert tripled == pytest.approx(3.0 * base, rel=1e-9)


def test_frechet_round_trip_2metric():
    rng = np.random.default_rng(14)
    d = random_closure_2metric(4, rng)
    F = frechet_embed(d)
    back = eval_coboundary_metric(F, NormSpec(math.inf))
    assert np.allclose(back.values, d.values, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("scale", [1e-6, 1e-9])
def test_frechet_round_trip_at_small_scale(scale):
    d = random_strong_metric(7, 3, 1).payload
    small = KMetric(n=d.n, k=d.k, values=d.values * scale)
    back = eval_coboundary_metric(frechet_embed(small), NormSpec(math.inf))
    assert np.abs(back.values / small.values - 1.0).max() <= 1e-6


def test_frechet_round_trip_n11():
    d = random_strong_metric(11, 3, 1).payload
    back = eval_coboundary_metric(frechet_embed(d), NormSpec(math.inf))
    assert np.abs(back.values / d.values - 1.0).max() <= 1e-9


def test_frechet_round_trip_with_zero_entries():
    # an inf-norm coboundary table with zeros; roundoff in a column's
    # coboundary at a zero entry must not count as expansion
    d = KMetric(n=5, k=3, values=np.array([0, 1, 1, 2, 1, 3, 1, 1, 1, 0.0]))
    back = eval_coboundary_metric(frechet_embed(d), NormSpec(math.inf))
    assert np.allclose(back.values, d.values, rtol=1e-9, atol=1e-12)


def test_frechet_round_trip_discrete():
    d = KMetric(n=5, k=3, values=np.ones(10))
    back = eval_coboundary_metric(frechet_embed(d), NormSpec(math.inf))
    assert np.allclose(back.values, 1.0, rtol=1e-6)


def test_frechet_rejects_non_strong_input():
    with pytest.raises(NotStrongError) as err:
        frechet_embed(subdivided_triangle().payload)
    assert err.value.simplex == (0, 1, 2)
    assert err.value.achieved == pytest.approx(7.0, abs=1e-6)


def test_frechet_columns_never_expand():
    rng = np.random.default_rng(17)
    d = random_closure_2metric(5, rng)
    F = frechet_embed(d)
    delta = coboundary_operator(d.n, d.k - 2).matrix.astype(float)
    rows = np.abs(delta @ F.data)
    assert (rows <= d.values[:, None] + 1e-6).all()


def test_frechet_columns_vanish_on_faces_through_vertex_zero():
    # the bounding-chain LP keeps only the rows of faces that miss vertex 0,
    # the last C(n-1, k-1) in canonical order, and its dual is zero elsewhere
    for n, k in [(7, 3), (6, 4)]:
        F = frechet_embed(random_strong_metric(n, k, 2).payload)
        first_free = comb(n - 1, k - 2)
        assert all(s[0] == 0 for s in enumerate_simplices(n, k - 2)[:first_free])
        assert all(s[0] != 0 for s in enumerate_simplices(n, k - 2)[first_free:])
        assert not F.data[:first_free].any()
        assert F.data[first_free:].any(axis=0).all()


def test_frechet_jobs_identical_output():
    d = KMetric(n=5, k=3, values=np.ones(10))
    a = frechet_embed(d, jobs=1)
    b = frechet_embed(d, jobs=4)
    assert np.array_equal(a.data, b.data)


def test_eval_relabeling_equivariance():
    rng = np.random.default_rng(19)
    perm = [3, 0, 4, 1, 2]
    F = ChainMatrix(n=5, k=3, data=rng.normal(size=(10, 2)))
    for p in (1, 2, math.inf):
        direct = relabel_kmetric(eval_coboundary_metric(F, NormSpec(p)), perm)
        via_chains = eval_coboundary_metric(relabel_chain_matrix(F, perm), NormSpec(p))
        assert np.allclose(direct.values, via_chains.values, atol=1e-12)


def test_projection_of_zero_is_zero():
    F = ChainMatrix(n=4, k=3, data=np.zeros((6, 2)))
    out = random_project(F, 5, NormSpec(2), seed=3)
    assert not out.data.any()
    assert out.m == 5


def test_projection_deterministic_per_seed():
    rng = np.random.default_rng(29)
    F = ChainMatrix(n=5, k=3, data=rng.normal(size=(10, 4)))
    a = random_project(F, 7, NormSpec(2), seed=42)
    b = random_project(F, 7, NormSpec(2), seed=42)
    c = random_project(F, 7, NormSpec(2), seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    with pytest.raises(ValueError):
        random_project(F, 7, NormSpec(math.inf), seed=42)


def test_jl_target_dim_formula():
    assert jl_target_dim(30, 3, 0.25) == math.ceil(8 * 3 * math.log(30) / 0.0625)
    assert jl_target_dim(30, 3, 0.25) == 1307
    with pytest.raises(ValueError):
        jl_target_dim(30, 3, 0.0)
    for eps in (1e-160, 1e-200):  # eps^2 is subnormal or zero
        with pytest.raises(ValueError, match="finite"):
            jl_target_dim(30, 3, eps)


def test_l2_to_lp_dim_two_cases():
    assert l2_to_lp_dim(30, 1.0, 0.3) == math.ceil(30 / 0.09)
    assert l2_to_lp_dim(30, 4.0, 0.3) == math.ceil((30 / (0.09 * 4.0)) ** 2.0)
    # p=2 lands on the same value through either reading of the formula
    assert l2_to_lp_dim(8, 2.0, 0.5) == math.ceil(8 / (0.25 * 2.0))


def test_embed_l2_to_lp_p2_is_plain_projection():
    rng = np.random.default_rng(33)
    F = ChainMatrix(n=5, k=3, data=rng.normal(size=(10, 4)))
    out = embed_l2_to_lp(F, 2.0, 0.5, seed=9)
    same = random_project(F, l2_to_lp_dim(4, 2.0, 0.5), NormSpec(2), seed=9)
    assert np.array_equal(out.data, same.data)


def test_embed_l2_to_lp_zero_preserved():
    F = ChainMatrix(n=4, k=3, data=np.zeros((6, 2)))
    out = embed_l2_to_lp(F, 1.0, 0.4, seed=1)
    assert not eval_coboundary_metric(out, NormSpec(1)).values.any()


def test_embed_l2_to_lp_size_guard():
    F = ChainMatrix(n=4, k=3, data=np.ones((6, 50)))
    with pytest.raises(ValueError):
        embed_l2_to_lp(F, 8.0, 0.05, seed=1)
    with pytest.raises(ValueError):  # (50 / 8) ** 400 overflows a float
        embed_l2_to_lp(F, 800.0, 0.1, seed=1)
    # the refusal sits in random_project, before R is drawn, so the JL path
    # has it too: jl_target_dim(40, 3, 1e-4) asks for 8,853,310,690 columns
    with pytest.raises(ValueError, match="budget"):
        random_project(F, jl_target_dim(40, 3, 1e-4), NormSpec(2), seed=1)


def test_l2_to_lp_empirical_distortion():
    rng = np.random.default_rng(41)
    F = ChainMatrix(n=20, k=3, data=rng.normal(size=(comb(20, 2), 30)))
    reference = eval_coboundary_metric(F, NormSpec(2))
    hits = 0
    for seed in (101, 102, 103, 104, 105):
        out = embed_l2_to_lp(F, 1.0, 0.3, seed=seed)
        got = eval_coboundary_metric(out, NormSpec(1))
        if max_distortion(got, reference) <= 0.3:
            hits += 1
    assert hits >= 3


def test_max_distortion_rules():
    d1 = KMetric(n=4, k=3, values=np.ones(4))
    assert max_distortion(d1, d1) == 0.0
    d2 = KMetric(n=4, k=3, values=2 * np.ones(4))
    assert max_distortion(d1, d2) == pytest.approx(1.0)
    d3 = KMetric(n=4, k=3, values=np.array([0.0, 1.0, 1.0, 1.0]))
    assert max_distortion(d1, d3) == math.inf
    zero = KMetric(n=4, k=3, values=np.zeros(4))
    assert max_distortion(zero, zero) == 0.0
    with pytest.raises(ValueError):
        max_distortion(d1, KMetric(n=5, k=3, values=np.ones(10)))
