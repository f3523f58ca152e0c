"""Distance tables and weak/strong verification through bounding chains."""

import math
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kmetrics import (
    Chain,
    KMetric,
    UnfillableBoundaryError,
    apply_operator,
    boundary_operator,
    check_strong,
    check_weak,
    indicator_chain,
    min_bounding_chain,
    simplex_index,
    zero_chain,
)
from kmetrics.corpus import discrete_metric, random_strong_metric, subdivided_triangle
from kmetrics.lp import bounding_sweep
from kmetrics.metric import VALUE_TOL
from kmetrics.simplicial import MAX_LP_BYTES
from oracles import check_weak_loop, random_closure_2metric, relabel_kmetric

SUBDIVISION = ((0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4), (0, 3, 2), (2, 3, 5), (3, 4, 5))


def _boundary_of(n, verts):
    return apply_operator(
        boundary_operator(n, len(verts) - 1), indicator_chain(n, verts)
    )


def test_table_validation():
    with pytest.raises(ValueError):
        KMetric(n=4, k=3, values=np.ones(3))  # wrong length
    with pytest.raises(ValueError):
        KMetric(n=4, k=3, values=-np.ones(4))
    with pytest.raises(ValueError):
        KMetric(n=2, k=3, values=np.ones(1))
    with pytest.raises(ValueError):
        KMetric(n=4, k=1, values=np.ones(4))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            KMetric(n=4, k=3, values=np.array([1.0, bad, 1.0, 1.0]))


def test_value_lookup_rules():
    d = KMetric(n=4, k=3, values=np.arange(4, dtype=float))
    assert d.value((0, 1, 2)) == 0.0
    assert d.value((2, 1, 3)) == d.value((1, 2, 3)) == 3.0  # order-insensitive
    assert d.value((1, 1, 2)) == 0.0  # repeats
    with pytest.raises(ValueError):
        d.value((0, 1))
    with pytest.raises(ValueError):
        d.value((0, 1, 4))
    for bad in [[0, 1.9, 2], (True, 2, 3), (1, True, 2), (0, 1.0, 1), (1, 1, 4)]:
        with pytest.raises(ValueError):
            d.value(bad)


def test_weak_all_zeros_is_pseudo():
    d = KMetric(n=5, k=3, values=np.zeros(10))
    report = check_weak(d)
    assert report.is_weak
    assert len(report.pseudo_violations) == 10


def test_weak_violation_found():
    values = np.ones(4)
    values[0] = 10.0  # (0,1,2)
    d = KMetric(n=4, k=3, values=values)
    report = check_weak(d)
    assert not report.is_weak
    assert ((0, 1, 2), 3) in report.weak_violations


@pytest.mark.parametrize("scale", [1e-7, 1e-9])
def test_weak_verdict_survives_tiny_scale(scale):
    # a tolerance of tol * max(1, value) is absolute below 1: it hid this
    # violation, and the table read weak but not strong
    d = KMetric(n=3, k=2, values=np.array([1.0, 3.0, 1.0]) * scale)
    report = check_strong(d)
    assert report.is_weak is False
    assert report.weak_violations == (((0, 2), 1),)
    assert report.is_strong is False


def test_weak_check_never_swaps_a_point_for_itself():
    # y in t is not a replacement: the loop oracle skips it, and the coface
    # table's NaN slot never fails
    rng = np.random.default_rng(12)
    for n, k in ((5, 2), (6, 3), (7, 4)):
        values = rng.exponential(size=comb(n, k))
        values[:: 5] = 0.0
        d = KMetric(n=n, k=k, values=values)
        assert check_weak(d).weak_violations == check_weak_loop(d)[0]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 1.0, 2.0])
def test_tolerance_must_be_finite_and_below_one(tol):
    # at tol >= 1 (or nan) no relative test could fire: the subdivided triangle,
    # whose witness costs 7 against a value of 10, would read strong; so no
    # caller sets one, and every verdict reads VALUE_TOL
    d = subdivided_triangle().payload
    for check in (check_weak, check_strong):
        with pytest.raises(TypeError, match="tol"):
            check(d, tol=tol)
    assert math.isfinite(VALUE_TOL) and 0.0 < VALUE_TOL < 1.0
    assert check_strong(d).is_strong is False


@pytest.mark.parametrize("n, k", [(7, 3), (6, 4), (8, 2), (9, 3)])
def test_a_strong_table_is_weak_at_the_tolerance_edge(n, k):
    # one tuple set to R / (1 - VALUE_TOL), R its cheapest one-point
    # replacement sum, and a few ulps to 1e-8 either side: the cone over the
    # outside point is a bounding chain of cost R, so the weak test, written
    # as the strong test is, never fails a table that the strong test passes
    tuples = list(combinations(range(n), k))
    for seed in range(10):
        d = random_strong_metric(n, k, seed).payload
        for j in np.random.default_rng(seed).choice(len(tuples), 3, replace=False):
            t = tuples[j]
            R = min(
                sum(d.value(t[:i] + t[i + 1 :] + (y,)) for i in range(k))
                for y in range(n) if y not in t
            )
            for delta in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-8, -1e-8):
                values = d.values.copy()
                values[simplex_index(n, t)] = R / (1 - VALUE_TOL) * (1 + delta)
                report = check_strong(KMetric(n=n, k=k, values=values))
                assert report.is_weak or not report.is_strong, (seed, t, delta)


def test_weak_on_subdivided_triangle():
    d = subdivided_triangle().payload
    assert check_weak(d).is_weak


def test_min_chain_two_point_paths():
    # complete graph on 3 vertices; going around beats nothing, ties the edge
    w = np.array([1.0, 2.0, 1.0])  # edges (0,1), (0,2), (1,2)
    cost, chain = min_bounding_chain(w, _boundary_of(3, (0, 2)))
    assert cost == pytest.approx(2.0)
    assert np.abs(
        boundary_operator(3, 1).matrix @ chain.coeffs - _boundary_of(3, (0, 2)).coeffs
    ).max() < 1e-9


def test_min_chain_subdivision_cost_seven():
    d = subdivided_triangle().payload
    cost, chain = min_bounding_chain(d.values, _boundary_of(6, (0, 1, 2)))
    assert cost == pytest.approx(7.0, abs=1e-9)
    assert sorted(chain.support()) == sorted(tuple(sorted(t)) for t in SUBDIVISION)


def test_min_chain_zero_target():
    cost, chain = min_bounding_chain(np.ones(comb(5, 3)), zero_chain(5, 1))
    assert cost == 0.0
    assert not chain.coeffs.any()


def test_min_chain_empty_mask():
    with pytest.raises(UnfillableBoundaryError):
        min_bounding_chain(np.ones(3), _boundary_of(3, (0, 2)), mask=[])
    cost, _ = min_bounding_chain(np.ones(3), zero_chain(3, 0), mask=[])
    assert cost == 0.0


def test_min_chain_refuses_a_target_that_is_not_a_boundary():
    # the edge (0, 1) has a nonzero boundary; it vanishes on the kept rows
    # (edges that miss vertex 0), so only the full residual can refuse it
    with pytest.raises(UnfillableBoundaryError):
        min_bounding_chain(np.ones(4), indicator_chain(4, (0, 1)))


@pytest.mark.parametrize("exponent", range(-12, 13))
def test_min_chain_is_judged_relative_to_the_target(exponent):
    lam = 10.0**exponent
    target = _boundary_of(5, (0, 1, 2))
    scaled = Chain(n=5, dim=1, coeffs=lam * target.coeffs)
    for mask in ([simplex_index(5, (2, 3, 4))], []):
        with pytest.raises(UnfillableBoundaryError):
            min_bounding_chain(np.ones(comb(5, 3)), scaled, mask=mask)
    w = np.random.default_rng(6).uniform(0.1, 2.0, size=comb(5, 3))
    base, chain = min_bounding_chain(w, target)
    cost, scaled_chain = min_bounding_chain(w, scaled)
    assert cost == base * lam
    assert np.array_equal(scaled_chain.coeffs, chain.coeffs * lam)


def test_min_chain_infeasible_mask():
    # only edge (0,1), flat index 0, allowed: cannot connect 0 to 2
    with pytest.raises(UnfillableBoundaryError):
        min_bounding_chain(np.ones(3), _boundary_of(3, (0, 2)), mask=[0])


def test_min_chain_mask_refuses_bools():
    # a bool would otherwise be read as flat column 0 or 1
    for mask in ([False], [np.True_]):
        with pytest.raises(ValueError):
            min_bounding_chain(np.ones(6), _boundary_of(4, (0, 1)), mask=mask)
    # and the other refusals of its weights and mask
    target = _boundary_of(4, (0, 1))
    with pytest.raises(ValueError, match="expected 6 weights"):
        min_bounding_chain(np.ones(5), target)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            min_bounding_chain(np.array([1.0, bad, 1.0, 1.0, 1.0, 1.0]), target)
    for mask in ([6], [0, -1]):
        with pytest.raises(ValueError, match="out of range"):
            min_bounding_chain(np.ones(6), target, mask=mask)


def test_min_chain_mask_takes_flat_indices_only():
    w = np.array([1.0, 2.0, 1.0])
    target = _boundary_of(3, (0, 2))
    cost, _ = min_bounding_chain(w, target, mask=[0, np.int64(2)])  # edges (0, 1), (1, 2)
    assert cost == pytest.approx(2.0)
    for mask in ([(0, 1), (1, 2)], [np.array([0, 1])], [0.0], ["0"]):
        with pytest.raises(ValueError, match="flat simplex indices"):
            min_bounding_chain(w, target, mask=mask)


def test_min_chain_never_beats_the_indicator():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, k = 5, 3
        w = rng.uniform(0.1, 2.0, size=comb(n, k))
        t = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        cost, _ = min_bounding_chain(w, _boundary_of(n, t))
        assert cost <= w[simplex_index(n, t)] + 1e-9


def test_min_chain_scaling_homogeneity():
    rng = np.random.default_rng(4)
    w = rng.uniform(0.1, 2.0, size=comb(5, 3))
    target = _boundary_of(5, (0, 2, 4))
    base, _ = min_bounding_chain(w, target)
    for lam in (0.5, 3.0, 17.0):
        scaled, _ = min_bounding_chain(lam * w, target)
        assert scaled == pytest.approx(lam * base, rel=1e-8)


def test_min_chain_relabeling_invariance():
    rng = np.random.default_rng(9)
    n, k = 5, 3
    w = rng.uniform(0.1, 2.0, size=comb(n, k))
    d = KMetric(n=n, k=k, values=w)
    perm = [2, 0, 4, 1, 3]
    d_perm = relabel_kmetric(d, perm)
    t = (0, 1, 3)
    t_image = tuple(sorted(perm[v] for v in t))
    cost, _ = min_bounding_chain(d.values, _boundary_of(n, t))
    cost_perm, _ = min_bounding_chain(d_perm.values, _boundary_of(n, t_image))
    assert cost_perm == pytest.approx(cost, rel=1e-9)


def test_strong_finds_subdivision_witness():
    d = subdivided_triangle().payload
    report = check_strong(d)
    assert report.is_weak
    assert report.is_strong is False
    w = report.strong_witness
    assert w.simplex == (0, 1, 2)
    assert w.value == pytest.approx(10.0)
    assert w.cost == pytest.approx(7.0, abs=1e-6)
    assert sorted(w.chain.support()) == sorted(tuple(sorted(t)) for t in SUBDIVISION)


def test_strong_verdict_survives_tiny_scale():
    # a tolerance of tol * max(1, value) is absolute below 1 and hid the witness
    d = subdivided_triangle().payload
    tiny = KMetric(n=d.n, k=d.k, values=d.values * 1e-9)
    report = check_strong(tiny)
    assert report.is_strong is False
    assert report.strong_witness.simplex == (0, 1, 2)
    assert report.strong_witness.cost == pytest.approx(7e-9, rel=1e-9)


def test_an_lp_over_the_byte_budget_is_refused_before_allocating():
    # n=120, k=3: 280,840 tuples pass MAX_SIMPLICES, but the two tableaux
    # would take about 45 GiB
    import tracemalloc

    d = discrete_metric(120, 3).payload
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            next(bounding_sweep(d.values, d.n, d.k))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_LP_BYTES / 10


@pytest.mark.parametrize("n", [25, 30])
def test_the_sweep_peaks_at_its_two_tableaux(n, monkeypatch):
    # the kept block only fills the tableau; held beside it for the whole
    # sweep, it would raise the first target's peak to about 1.47 times this
    import tracemalloc

    from kmetrics import lp

    requests, check = [], lp._check_bytes
    monkeypatch.setattr(lp, "_check_bytes",
                        lambda what, needed: (requests.append(needed), check(what, needed)))
    m, count = comb(n - 1, 2), comb(n, 3)
    two_tableaux = 2 * 8 * (m + 1) * (count + m + 1)
    d = discrete_metric(n, 3).payload
    tracemalloc.start()
    try:
        next(bounding_sweep(d.values, n, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert requests == [two_tableaux]
    assert peak <= 1.1 * two_tableaux


def test_weak_check_holds_no_tuple_by_point_matrix():
    # n=600, k=2: a count x n bool matrix of failures alone would be 108 MB
    import tracemalloc

    values = np.ones(comb(600, 2))
    values[simplex_index(600, (3, 7))] = 3.0  # fails against every outside point
    d = KMetric(n=600, k=2, values=values)
    tracemalloc.start()
    try:
        report = check_weak(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.weak_violations == tuple(((3, 7), y) for y in range(600) if y not in (3, 7))
    assert peak < 40 * 2**20


def test_strong_check_refuses_the_lp_budget_before_the_weak_pass(monkeypatch):
    # the budget depends on n and k alone; the weak pass at n=120 takes seconds
    from kmetrics import metric

    def weak_pass_not_expected(*args, **kwargs):
        raise AssertionError("weak pass ran before the budget refusal")

    d = discrete_metric(120, 3).payload
    monkeypatch.setattr(metric, "check_weak", weak_pass_not_expected)
    with pytest.raises(ValueError, match="budget"):
        check_strong(d)


def test_scan_stops_at_the_witness_of_a_refuted_copy():
    # Raise one tuple above its cheapest one-point-replacement chain (the
    # cone over its boundary from an outside vertex).  The scan must stop
    # there, with a witness no cheaper than the original value (the rest of
    # the table is still strong) and no dearer than that chain.
    d = random_strong_metric(8, 3, 5).payload
    i = 30
    t = d.simplices()[i]
    bound = min(
        sum(d.value(t[:j] + t[j + 1 :] + (y,)) for j in range(d.k))
        for y in range(d.n)
        if y not in t
    )
    values = d.values.copy()
    values[i] = 1.5 * bound
    report = check_strong(KMetric(n=d.n, k=d.k, values=values))
    witness = report.strong_witness
    assert report.is_strong is False
    assert witness.simplex == t
    assert len(report.strong_margins) == i + 1
    assert d.values[i] * (1 - 1e-9) <= witness.cost <= bound * (1 + 1e-9)


def test_strong_on_weighted_triangle_graph():
    # shortest-path metric of a 3-cycle satisfies the triangle inequality
    d = KMetric(n=3, k=2, values=np.array([1.0, 1.5, 2.0]))
    report = check_strong(d)
    assert report.is_strong


def test_strong_on_discrete_triples():
    d = KMetric(n=5, k=3, values=np.ones(10))
    assert check_strong(d).is_strong


def test_strong_implies_weak_and_margins_cover_all():
    d = KMetric(n=5, k=3, values=np.ones(10))
    report = check_strong(d, exhaustive=True)
    assert report.is_weak and report.is_strong
    assert len(report.strong_margins) == 10
    for _, cost, value in report.strong_margins:
        assert cost >= value - 1e-6


def test_two_point_metrics_with_triangle_inequality_are_strong():
    rng = np.random.default_rng(31)
    for trial in range(12):
        n = int(rng.integers(3, 8))
        d = random_closure_2metric(n, rng)
        report = check_strong(d)
        assert report.is_weak
        assert report.is_strong, f"trial {trial} produced a witness"


def test_strong_jobs_do_not_change_the_report():
    d = subdivided_triangle().payload
    serial = check_strong(d, exhaustive=True, jobs=1)
    threaded = check_strong(d, exhaustive=True, jobs=4)
    assert serial.is_strong == threaded.is_strong
    assert serial.strong_witness.simplex == threaded.strong_witness.simplex
    assert serial.strong_margins == threaded.strong_margins
    # non-exhaustive: margins truncate at the witness either way
    a = check_strong(d, jobs=1)
    b = check_strong(d, jobs=4)
    assert a.strong_margins == b.strong_margins
