"""Simplex solver: examples, duality, warm starts, and oracle agreement."""

from math import comb

import numpy as np
import pytest

import kmetrics.lp
from kmetrics import (
    Chain,
    KMetric,
    LPError,
    LPSolution,
    StandardFormLP,
    boundary_operator,
    check_strong,
    coboundary_operator,
    frechet_column,
    frechet_embed,
    min_bounding_chain,
    solve,
)
from kmetrics.corpus import discrete_metric, random_strong_metric
from kmetrics.hypertree import mbc_metric, random_2hypertree
from kmetrics.lp import Simplex, bounding_sweep
from oracles import count_pivots, lp_min_by_vertex_enumeration


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


def test_a_program_without_variables_is_refused():
    with pytest.raises(ValueError, match="^LP has no variables$"):
        solve(_lp(np.zeros((1, 0)), [1.0], []))


def test_a_solve_past_the_pivot_limit_raises_lp_error(monkeypatch):
    # the first tuple of this sweep takes more than one pivot
    d = random_strong_metric(6, 3, 1).payload
    monkeypatch.setattr(kmetrics.lp, "_MAX_PIVOTS", 1)
    with pytest.raises(LPError, match="^pivot limit exceeded; dual simplex did not terminate$"):
        next(bounding_sweep(d.values, d.n, d.k))


def test_negative_cost_is_refused():
    # the dual simplex starts from y = 0, which is dual feasible only for
    # c >= 0; min -x s.t. x - y = 0 would be unbounded
    with pytest.raises(ValueError, match="nonnegative"):
        solve(_lp([[1.0, -1.0]], [0.0], [-1.0, 0.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        Simplex(np.eye(2), np.array([1.0, -1e-12]), np.inf)
    # a negative price for going below zero is unbounded the same way
    with pytest.raises(ValueError, match="nonnegative"):
        Simplex(np.eye(2), np.ones(2), np.array([1.0, -1e-12]))


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
        KMetric(n=5, k=3, values=np.array([0, 1, 1, 2, 1, 3, 1, 1, 1, 0.0])),
    ],
    ids=["k2", "k3", "k4", "discrete-k3", "pseudo-k3"],
)
def test_bounding_chain_strong_duality(table):
    # Per tuple t: primal bounding-chain cost = b.y = frechet_column's
    # achieved value = d(t), and the dual y never expands: |coboundary y| <= d.
    # The warm-started sweep (dual simplex from tuple to tuple) gives the
    # same cost with its own chain and dual.  HiGHS (scipy) is an independent
    # oracle for the primal cost.
    from scipy.optimize import linprog

    d = table
    B = boundary_operator(d.n, d.k - 1).matrix.astype(float)
    delta = coboundary_operator(d.n, d.k - 2).matrix.astype(float)
    A = np.hstack([B, -B])
    c = np.concatenate([d.values, d.values])
    slack = d.values * (1 + 1e-9)
    if (d.values == 0).any():
        # a zero entry is held to the solver's dual tolerance of the max
        slack = slack + 1e-9 * d.values.max()
    sweep = bounding_sweep(d.values, d.n, d.k)
    for i, (t, (swept, chain, y_swept)) in enumerate(zip(d.simplices(), sweep)):
        b = B[:, i]  # the boundary of t's indicator
        sol = solve(_lp(A, b, c))
        cost, _ = min_bounding_chain(d.values, Chain(n=d.n, dim=d.k - 2, coeffs=b))
        column, achieved = frechet_column(d, t)
        y = column.coeffs
        assert sol.objective == pytest.approx(float(b @ sol.y), rel=1e-9)
        assert cost == pytest.approx(sol.objective, rel=1e-9)
        assert float(b @ y) == pytest.approx(cost, rel=1e-9)
        assert achieved == pytest.approx(cost, rel=1e-9)
        assert achieved == pytest.approx(d.values[i], rel=1e-9)
        assert (np.abs(delta @ y) <= slack).all()
        assert swept == pytest.approx(cost, rel=1e-9)
        assert np.abs(B @ chain.coeffs - b).max() < 1e-9
        assert float(d.values @ np.abs(chain.coeffs)) == pytest.approx(swept, rel=1e-9)
        assert float(b @ y_swept) == pytest.approx(swept, rel=1e-9)
        assert (np.abs(delta @ y_swept) <= slack).all()
        oracle = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert oracle.status == 0
        assert cost == pytest.approx(oracle.fun, rel=1e-9)


def test_sweep_refuses_an_uncertified_optimum(monkeypatch):
    # A warm solve whose dual drifted (here: doubled) no longer proves its
    # cost optimal; the sweep must raise rather than report that cost.  The
    # embeddings return that dual as a column and check it nowhere else.
    solve_b = Simplex.solve

    def drifted(self, b):
        sol = solve_b(self, b)
        return LPSolution(sol.status, sol.x, 2.0 * sol.y, sol.objective)

    d = random_strong_metric(6, 3, 32).payload
    target = Chain(n=6, dim=1, coeffs=boundary_operator(6, 2).matrix[:, 0])
    monkeypatch.setattr(Simplex, "solve", drifted)
    for run in (lambda: check_strong(d, exhaustive=True), lambda: frechet_embed(d),
                lambda: frechet_column(d, (0, 1, 2)), lambda: min_bounding_chain(d.values, target),
                lambda: random_strong_metric(6, 3, 32)):
        with pytest.raises(LPError, match="not certified"):
            run()


def test_a_dual_that_keeps_the_objective_but_expands_is_refused(monkeypatch):
    # y moved orthogonally to b keeps <b, y> = cost, so only the gathered
    # |coboundary(y)| <= w check can refuse it
    solve_b = Simplex.solve

    def tilted(self, b):
        sol = solve_b(self, b)
        r = np.random.default_rng(0).standard_normal(b.size)
        r -= (r @ b) / (b @ b) * b
        return LPSolution(sol.status, sol.x, sol.y + 10.0 * r, sol.objective)

    d = random_strong_metric(6, 3, 32).payload
    monkeypatch.setattr(Simplex, "solve", tilted)
    with pytest.raises(LPError, match="not certified: dual excess"):
        check_strong(d)


def test_dual_simplex_detects_infeasible_and_recovers():
    simplex = Simplex(np.array([[1.0, 1.0]]), np.array([1.0, 2.0]), np.inf)
    assert simplex.solve(np.array([1.0])).objective == pytest.approx(1.0)
    assert simplex.solve(np.array([-1.0])).status == "infeasible"
    again = simplex.solve(np.array([2.0]))
    assert again.status == "optimal"
    assert again.objective == pytest.approx(2.0)


def test_the_simplex_holds_no_reference_to_its_matrix():
    # A only fills the tableau, so a caller that drops A frees it
    import weakref

    A = np.array([[1.0, 1.0]])
    dropped = weakref.ref(A)
    simplex = Simplex(A, np.array([1.0, 2.0]), np.inf)
    del A
    assert dropped() is None
    assert simplex.solve(np.array([1.0])).objective == pytest.approx(1.0)


def test_dual_simplex_warm_starts_match_cold_solves():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = rng.normal(size=(m, n))
        c = rng.uniform(0, 3, size=n)
        simplex = Simplex(A, c, np.inf)
        assert simplex.solve(A @ rng.uniform(0, 2, size=n)).status == "optimal"
        for _ in range(4):
            b = A @ rng.uniform(0, 2, size=n)
            warm = simplex.solve(b)
            cold = solve(_lp(A, b, c))
            assert warm.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            assert np.abs(A @ warm.x - b).max() < 1e-7
            assert warm.x.min() >= 0.0
            assert abs(c @ warm.x - b @ warm.y) < 1e-7
            assert (c - A.T @ warm.y).min() > -1e-7


def test_masked_sweep_matches_cold_solves_and_highs():
    # a 2-hypertree is not the complete complex: the redundant rows keep
    # their artificials basic at zero through the whole sweep
    from scipy.optimize import linprog

    K = random_2hypertree(7, 3)
    idx = np.sort(K.facet_indices())
    assert idx.size < comb(7, 3)
    weights = np.zeros(comb(7, 3))
    weights[K.facet_indices()] = K.weights
    B = boundary_operator(K.n, K.k - 1).matrix.astype(float)
    A = np.hstack([B[:, idx], -B[:, idx]])
    c = np.concatenate([weights[idx], weights[idx]])
    for i, value in enumerate(mbc_metric(K).values):
        assert value == pytest.approx(solve(_lp(A, B[:, i], c)).objective, rel=1e-9)
        oracle = linprog(c, A_eq=A, b_eq=B[:, i], bounds=(0, None), method="highs")
        assert oracle.status == 0
        assert value == pytest.approx(oracle.fun, rel=1e-9)


def test_sweep_pivot_bound(monkeypatch):
    # n=9, k=3: 341 pivots as one warm-started sweep; a split [B, -B]
    # tableau, which swaps columns at every sign change, takes 496
    d = random_strong_metric(9, 3, 1).payload
    pivots = count_pivots(monkeypatch)
    for _ in bounding_sweep(d.values, d.n, d.k):
        pass
    assert 0 < len(pivots) < 400


def test_cold_solves_pivot_only_on_the_target_rows(monkeypatch):
    # From the artificial basis a cold solve pivots only on the few nonzero
    # rows of its target: 319 pivots for all 84 tuples at n=9, k=3.
    d = random_strong_metric(9, 3, 1).payload
    pivots = count_pivots(monkeypatch)
    for t in d.simplices():
        frechet_column(d, t)
    assert 0 < len(pivots) < 1000


@pytest.mark.parametrize("asymmetric", [False, True], ids=["c_neg=c", "c_neg!=c"])
def test_signed_simplex_matches_highs_on_the_split_program(asymmetric):
    # One column per variable, priced c going up and c_neg going down, must
    # reach HiGHS's optimum of the split program [A, -A] with costs [c, c_neg],
    # cold and warm, with a dual inside -c_neg <= A'y <= c and no gap.
    from scipy.optimize import linprog

    rng = np.random.default_rng(47)
    negative = 0
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = rng.normal(size=(m, n))
        c = rng.uniform(0, 3, size=n)
        c_neg = rng.uniform(0, 3, size=n) if asymmetric else c
        simplex = Simplex(A, c, c_neg)
        for _ in range(4):
            b = A @ rng.uniform(-2, 2, size=n)
            sol = simplex.solve(b)
            oracle = linprog(np.concatenate([c, c_neg]), A_eq=np.hstack([A, -A]),
                             b_eq=b, bounds=(0, None), method="highs")
            assert sol.status == "optimal" and oracle.status == 0
            assert sol.objective == pytest.approx(oracle.fun, rel=1e-9, abs=1e-9)
            assert np.abs(A @ sol.x - b).max() < 1e-7
            priced = c @ np.maximum(sol.x, 0.0) + c_neg @ np.maximum(-sol.x, 0.0)
            assert priced == pytest.approx(sol.objective, rel=1e-12, abs=1e-12)
            assert abs(sol.objective - b @ sol.y) < 1e-7
            assert (A.T @ sol.y <= c * (1 + 1e-9) + 1e-9).all()
            assert (-A.T @ sol.y <= c_neg * (1 + 1e-9) + 1e-9).all()
            negative += int((sol.x < -1e-9).any())
    assert negative > 20


def test_infinite_negative_cost_never_returns_a_negative_entry():
    # c_neg = inf is x >= 0: targets reachable only with a negative entry are
    # infeasible, the others agree with HiGHS on x >= 0
    from scipy.optimize import linprog

    rng = np.random.default_rng(53)
    infeasible = 0
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = rng.normal(size=(m, n))
        c = rng.uniform(0, 3, size=n)
        simplex = Simplex(A, c, np.inf)
        for _ in range(4):
            b = A @ rng.uniform(-2, 2, size=n)
            sol = simplex.solve(b)
            oracle = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            if oracle.status == 2:
                assert sol.status == "infeasible"
                infeasible += 1
                continue
            assert sol.status == "optimal"
            assert sol.x.min() >= 0.0
            assert sol.objective == pytest.approx(oracle.fun, rel=1e-9, abs=1e-9)
    assert infeasible > 20


def test_bounding_chain_tableau_has_one_column_per_simplex(monkeypatch):
    # m = C(n-1, k-1) kept rows, N = C(n, k) chain coefficients: the tableau
    # is the m constraint rows plus the cost row by N + m + 1 columns
    d = random_strong_metric(9, 3, 1).payload
    made = []

    class Recorded(Simplex):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(kmetrics.lp, "Simplex", Recorded)
    next(bounding_sweep(d.values, d.n, d.k))
    m, N = comb(8, 2), comb(9, 3)
    assert [s.T.shape for s in made] == [(m + 1, N + m + 1)]
