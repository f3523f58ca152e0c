"""Apex extension of tables and chains, against the lift/project operators of the oracles."""

import math
from math import comb

import numpy as np
import pytest

from kmetrics import (
    Chain,
    ChainMatrix,
    KMetric,
    NormSpec,
    apex_extend,
    apex_extend_chain_matrix,
    boundary_operator,
    check_strong,
    check_weak,
    enumerate_simplices,
    eval_coboundary_metric,
    indicator_chain,
    simplex_index,
)
from kmetrics.corpus import random_strong_metric, subdivided_triangle
from oracles import lift_operator, project_operator


def test_discrete_triples_extend_to_apex_quadruples():
    d = KMetric(n=5, k=3, values=np.ones(10))
    ext = apex_extend(d)
    assert (ext.n, ext.k) == (6, 4)
    for s in enumerate_simplices(6, 3):
        expected = 1.0 if s[-1] == 5 else 0.0
        assert ext.values[simplex_index(6, s)] == expected


def test_zero_metric_extends_to_zero():
    d = KMetric(n=4, k=2, values=np.zeros(6))
    assert not apex_extend(d).values.any()


def test_path_metric_extension_by_hand():
    # path 0-1-2 with unit steps; d(0,2)=2
    d = KMetric(n=3, k=2, values=np.array([1.0, 2.0, 1.0]))
    ext = apex_extend(d)
    assert ext.value((0, 1, 2)) == 0.0
    assert ext.value((0, 1, 3)) == 1.0
    assert ext.value((0, 2, 3)) == 2.0
    assert ext.value((1, 2, 3)) == 1.0


def test_project_forgets_apex():
    # n = 4 base vertices, apex = 4: triangles on 5 vertices to edges on 4
    proj = project_operator(4, 2)
    assert proj.shape == (comb(4, 2), comb(5, 3))
    out = Chain(n=4, dim=1, coeffs=proj @ indicator_chain(5, (0, 1, 4)).coeffs)
    assert out.coeffs[simplex_index(4, (0, 1))] == 1
    assert np.count_nonzero(out.coeffs) == 1


def test_project_kills_apex_free_simplices():
    out = project_operator(4, 2) @ indicator_chain(5, (0, 1, 2)).coeffs
    assert not out.any()


def test_project_then_lift_is_identity_on_lifts():
    proj = project_operator(4, 2)
    lift = lift_operator(4, 2)
    assert np.array_equal(proj @ lift, np.eye(comb(4, 2), dtype=np.int64))


def test_lift_appends_apex():
    # edges on 4 vertices to triangles on 5
    lift = lift_operator(4, 2)
    assert lift.shape == (comb(5, 3), comb(4, 2))
    out = Chain(n=5, dim=2, coeffs=lift @ indicator_chain(4, (1, 3)).coeffs)
    assert out.coeffs[simplex_index(5, (1, 3, 4))] == 1
    assert np.count_nonzero(out.coeffs) == 1


def test_project_commutes_with_boundary():
    """Forgetting the apex before or after taking the boundary agrees.

    The identity lives one dimension down, so it is expressible for h >= 2
    (boundaries of 0-chains are outside the complex).  Checked exactly in
    integer arithmetic, together with its transpose for the lift.
    """
    for n in range(3, 7):
        for h in range(2, min(5, n + 1)):
            left = boundary_operator(n, h - 1).matrix @ project_operator(n, h)
            right = project_operator(n, h - 1) @ boundary_operator(n + 1, h).matrix
            assert np.array_equal(left, right), (n, h)
            lift_left = lift_operator(n, h) @ boundary_operator(n, h - 1).matrix.T
            lift_right = boundary_operator(n + 1, h).matrix.T @ lift_operator(n, h - 1)
            assert np.array_equal(lift_left, lift_right), (n, h)


def test_chain_matrix_extension_matches_table_extension():
    rng = np.random.default_rng(13)
    for k in (2, 3):
        n = 5
        F = ChainMatrix(n=n, k=k, data=rng.normal(size=(comb(n, k - 1), 2)))
        lifted = apex_extend_chain_matrix(F)
        assert (lifted.n, lifted.k) == (n + 1, k + 1)
        for p in (1, 2, math.inf):
            via_chains = eval_coboundary_metric(lifted, NormSpec(p))
            via_table = apex_extend(eval_coboundary_metric(F, NormSpec(p)))
            assert np.abs(via_chains.values - via_table.values).max() <= 1e-9


def test_chain_matrix_lift_is_the_lift_operator():
    rng = np.random.default_rng(12)
    for n, k in [(3, 2), (5, 3), (6, 3), (6, 4)]:
        data = rng.standard_normal((comb(n, k - 1), 3))
        data[0, 0] = -0.0
        out = apex_extend_chain_matrix(ChainMatrix(n=n, k=k, data=data)).data
        assert np.array_equal(out, lift_operator(n, k - 1) @ data)
        assert not np.signbit(out[out == 0.0]).any()


def test_all_ones_lift_gives_apex_quadruple_table():
    F = ChainMatrix(n=5, k=3, data=np.ones((10, 1)))
    lifted = apex_extend_chain_matrix(F)
    d = eval_coboundary_metric(lifted, NormSpec(1))
    expected = apex_extend(KMetric(n=5, k=3, values=np.ones(10)))
    assert np.array_equal(d.values, expected.values)


def test_zero_chain_matrix_lifts_to_zero():
    F = ChainMatrix(n=4, k=2, data=np.zeros((4, 3)))
    assert not apex_extend_chain_matrix(F).data.any()


def test_extension_preserves_weakness():
    d = subdivided_triangle().payload
    assert check_weak(apex_extend(d)).is_weak


def test_extension_preserves_strongness():
    d = random_strong_metric(5, 3, seed=3).payload
    report = check_strong(apex_extend(d))
    assert report.is_strong


def test_extension_of_non_strong_input_stays_non_strong():
    ext = apex_extend(subdivided_triangle().payload)
    report = check_strong(ext)
    assert report.is_weak
    assert report.is_strong is False
    # the witness is the original failing triple with the apex appended
    assert report.strong_witness.simplex == (0, 1, 2, 6)
    assert report.strong_witness.cost == pytest.approx(7.0, abs=1e-6)
