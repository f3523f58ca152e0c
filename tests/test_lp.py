"""Two-phase simplex solver: examples, duality, and brute-force agreement."""

import numpy as np
import pytest

from kmetrics import (
    StandardFormLP,
    boundary_operator,
    coboundary_operator,
    frechet_column,
    min_bounding_chain,
    solve,
)
from kmetrics.corpus import discrete_metric, random_strong_metric
from kmetrics.metric import tuple_boundary
from oracles import lp_min_by_vertex_enumeration


def _lp(A, b, c):
    return StandardFormLP(
        A=np.atleast_2d(np.asarray(A, dtype=float)),
        b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
    )


def test_single_variable():
    sol = solve(_lp([[1.0]], [1.0], [1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_zero_objective_lands_on_a_vertex():
    sol = solve(_lp([[1.0, 1.0]], [1.0], [0.0, 0.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.0)
    # a basic solution has at most one nonzero here, so it is (1,0) or (0,1)
    assert sorted(sol.x) == pytest.approx([0.0, 1.0])


def test_two_variable_difference():
    sol = solve(_lp([[1.0, -1.0]], [2.0], [1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    assert sol.x == pytest.approx([2.0, 0.0])


def test_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    sol = solve(_lp([[1.0, 1.0]], [-1.0], [0.0, 0.0]))
    assert sol.status == "infeasible"


def test_unbounded():
    # min -x s.t. x - y = 0: push both to infinity
    sol = solve(_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0]))
    assert sol.status == "unbounded"


def test_redundant_rows_are_tolerated():
    A = [[1.0, 1.0], [1.0, 1.0]]
    sol = solve(_lp(A, [1.0, 1.0], [2.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    # dual certificate must still price the objective: b.y = c.x
    assert float(np.dot([1.0, 1.0], sol.y)) == pytest.approx(1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        _lp([[1.0, 2.0]], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        _lp([[np.inf, 2.0]], [1.0], [1.0, 2.0])


def test_matches_vertex_enumeration_on_random_integer_lps():
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        x_feas = rng.integers(0, 4, size=n).astype(float)
        b = A @ x_feas  # feasible by construction
        c = rng.integers(0, 5, size=n).astype(float)  # c >= 0 keeps it bounded
        sol = solve(_lp(A, b, c))
        oracle = lp_min_by_vertex_enumeration(A, b, c)
        if oracle is None:
            # degenerate enumeration (all bases singular); skip the comparison
            continue
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle, abs=1e-8)
        solved += 1
    assert solved > 80


def test_optimality_certificates_on_random_lps():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(0, 2, size=n)
        c = rng.uniform(0, 3, size=n)
        sol = solve(_lp(A, b, c))
        assert sol.status == "optimal"
        # primal feasibility
        assert np.abs(A @ sol.x - b).max() < 1e-7
        assert sol.x.min() > -1e-9
        # strong duality and dual feasibility (reduced costs >= 0)
        assert abs(c @ sol.x - b @ sol.y) < 1e-7
        reduced = c - A.T @ sol.y
        assert reduced.min() > -1e-7
        # complementary slackness
        assert np.abs(sol.x * reduced).max() < 1e-7


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 6))
    b = A @ rng.uniform(0, 1, size=6)
    c = rng.uniform(0, 1, size=6)
    first = solve(_lp(A, b, c))
    second = solve(_lp(A, b, c))
    assert first.status == second.status
    assert np.array_equal(first.x, second.x)
    assert np.array_equal(first.y, second.y)
    assert first.objective == second.objective


@pytest.mark.parametrize(
    "table",
    [
        random_strong_metric(6, 2, 31).payload,
        random_strong_metric(6, 3, 32).payload,
        random_strong_metric(6, 4, 33).payload,
        discrete_metric(5, 3).payload,
    ],
    ids=["k2", "k3", "k4", "discrete-k3"],
)
def test_bounding_chain_strong_duality(table):
    # Per tuple t: primal bounding-chain cost = b.y = frechet_column's
    # achieved value = d(t), and the dual y never expands: |coboundary y| <= d.
    # HiGHS (scipy) is an independent oracle for the primal cost.
    from scipy.optimize import linprog

    d = table
    B = boundary_operator(d.n, d.k - 1).matrix.astype(float)
    delta = coboundary_operator(d.n, d.k - 2).matrix.astype(float)
    A = np.hstack([B, -B])
    c = np.concatenate([d.values, d.values])
    for i, t in enumerate(d.simplices()):
        b = tuple_boundary(d.n, d.k, i).coeffs
        sol = solve(_lp(A, b, c))
        cost, _ = min_bounding_chain(d.values, tuple_boundary(d.n, d.k, i))
        column, achieved = frechet_column(d, t)
        y = column.coeffs
        assert sol.objective == pytest.approx(float(b @ sol.y), rel=1e-9)
        assert cost == pytest.approx(sol.objective, rel=1e-9)
        assert float(b @ y) == pytest.approx(cost, rel=1e-9)
        assert achieved == pytest.approx(cost, rel=1e-9)
        assert achieved == pytest.approx(d.values[i], rel=1e-9)
        assert (np.abs(delta @ y) <= d.values * (1 + 1e-9)).all()
        oracle = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert oracle.status == 0
        assert cost == pytest.approx(oracle.fun, rel=1e-9)
