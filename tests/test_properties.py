"""Property tests of the weak and strong checks on small random tables."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmetrics import KMetric, boundary_operator, check_strong, check_weak, simplex_index
from kmetrics.corpus import random_strong_metric
from kmetrics.lp import RESIDUAL_TOL
from oracles import check_weak_loop, relabel_kmetric

# Few, reproducible examples: tier-1 stays fast and never writes a database.
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)


@st.composite
def strong_tables(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(k + 1, 8))
    return random_strong_metric(n, k, draw(st.integers(0, 2**16))).payload


def _costs(d: KMetric) -> np.ndarray:
    report = check_strong(d, exhaustive=True)
    return np.array([cost for _, cost, _ in report.strong_margins])


@PROPERTY
@given(strong_tables(), st.data())
def test_costs_invariant_under_relabeling(d, data):
    perm = data.draw(st.permutations(range(d.n)))
    image = _costs(relabel_kmetric(d, perm))
    for t, cost in zip(d.simplices(), _costs(d)):
        j = simplex_index(d.n, tuple(sorted(perm[v] for v in t)))
        assert image[j] == pytest.approx(cost, rel=1e-9)


@PROPERTY
@given(strong_tables(), st.floats(-12.0, 12.0))
def test_costs_invariant_under_scaling(d, exponent):
    scale = 10.0**exponent
    scaled = KMetric(n=d.n, k=d.k, values=d.values * scale)
    assert check_strong(scaled, exhaustive=True).is_strong
    np.testing.assert_allclose(_costs(scaled), scale * _costs(d), rtol=1e-9)


@PROPERTY
@given(strong_tables(), st.data())
def test_verdicts_agree_and_witnesses_fill_their_boundary(d, data):
    # one entry of a strong table scaled up or down, then the whole table
    i = data.draw(st.integers(0, d.values.size - 1))
    values = d.values.copy()
    values[i] *= data.draw(st.floats(0.1, 10.0))
    table = KMetric(n=d.n, k=d.k, values=values * 10.0 ** data.draw(st.floats(-12.0, 12.0)))
    report = check_strong(table)
    assert report.is_weak or not report.is_strong
    witness = report.strong_witness
    if witness is not None:
        B = boundary_operator(d.n, d.k - 1).matrix
        target = B[:, simplex_index(d.n, witness.simplex)]
        assert np.abs(B @ witness.chain.coeffs - target).max() <= RESIDUAL_TOL
        assert witness.cost == pytest.approx(table.values @ np.abs(witness.chain.coeffs), rel=1e-9)
        assert witness.cost < witness.value


@PROPERTY
@given(st.data())
def test_weak_check_matches_the_loop_oracle(data):
    k = data.draw(st.sampled_from([2, 3, 4]))
    n = data.draw(st.integers(k + 1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    values = rng.uniform(0.0, 1.0, size=comb(n, k))
    values[rng.uniform(size=values.size) < data.draw(st.floats(0.0, 0.5))] = 0.0
    d = KMetric(n=n, k=k, values=values * 10.0 ** data.draw(st.floats(-12.0, 12.0)))
    report = check_weak(d)
    violations, pseudo = check_weak_loop(d)
    assert report.weak_violations == violations
    assert report.pseudo_violations == pseudo
    assert report.is_weak == (not violations)
