"""Release gate: ten numbered scenario checks with fixed tolerances and
time budgets.

Each check prints one `[criterion NN] PASS/FAIL (elapsed) summary` line
before its assertions, so a transcript of this module reads as a checklist.
Run with `pytest -s tests/test_acceptance.py` to see the lines inline.
"""

import json
import math
import time
from itertools import combinations
from math import comb

import numpy as np

from kmetrics.apex import apex_extend
from kmetrics.cli import main as cli_main
from kmetrics.coboundary import (
    ChainMatrix,
    NormSpec,
    eval_coboundary_metric,
    frechet_embed,
    jl_target_dim,
    max_distortion,
    random_project,
)
from kmetrics.corpus import (
    four_point_equilateral,
    random_strong_metric,
    six_point_apex_discrete,
    subdivided_triangle,
)
from kmetrics.hypertree import (
    hypertree_to_l1,
    mbc_metric,
    random_2hypertree,
    random_spanning_tree,
)
from kmetrics.metric import check_strong
from kmetrics.simplicial import (
    boundary_operator,
    coboundary_operator,
    indicator_chain,
)
from kmetrics.volume import PointCloud, volume_metric, volume_to_coboundary
from oracles import (
    dijkstra_all_pairs,
    gram_volume,
    lift_operator,
    project_operator,
    projected_volume_vector,
    random_closure_2metric,
)


def _stamp(num: int, ok: bool, elapsed: float, summary: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {verdict} ({elapsed:.2f}s) {summary}")


def test_criterion_01_subdivided_triangle_separation(tmp_path, capsys):
    limit = 5.0
    start = time.perf_counter()
    table = str(tmp_path / "subdivided.json")
    assert cli_main(["gen", "subdivided-triangle", "-o", table]) == 0
    capsys.readouterr()
    code = cli_main(["verify", table, "--strong"])
    report = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    results = report["results"]
    witness = results.get("witness", {})
    ok = (
        code == 1
        and results["weak"] is True
        and results["strong"] is False
        and witness.get("value") == 10.0
        and abs(witness.get("cost", 0.0) - 7.0) <= 1e-6
    )
    _stamp(1, ok and elapsed < limit, elapsed,
           "subdivided triangle is weak but not strong, witness 7 vs 10")
    assert code == 1
    assert results["weak"] is True
    assert results["strong"] is False
    assert witness["s"] == [0, 1, 2]
    assert witness["value"] == 10.0
    assert abs(witness["cost"] - 7.0) <= 1e-6
    assert elapsed < limit


def test_criterion_02_boundary_identities_exact():
    limit = 10.0
    start = time.perf_counter()
    failures = []

    for n in range(3, 9):
        for dim in range(2, min(4, n)):
            low = boundary_operator(n, dim - 1).matrix.astype(np.int64)
            high = boundary_operator(n, dim).matrix.astype(np.int64)
            if (low @ high).any():
                failures.append(("dd", n, dim))

    # one-point replacements of a tuple share its boundary, exactly
    for n in range(3, 9):
        for k in range(2, min(5, n)):
            bnd = boundary_operator(n, k - 1).matrix.astype(np.int64)
            for verts in combinations(range(n), k + 1):
                for yi in range(k + 1):
                    y = verts[yi]
                    t = verts[:yi] + verts[yi + 1:]
                    summed = np.zeros(bnd.shape[1], dtype=np.int64)
                    for i in range(k):
                        seq = t[:i] + (y,) + t[i + 1:]
                        summed += indicator_chain(n, seq).coeffs.astype(np.int64)
                    lhs = bnd @ indicator_chain(n, t).coeffs.astype(np.int64)
                    if not np.array_equal(lhs, bnd @ summed):
                        failures.append(("replacement", n, t, y))

    elapsed = time.perf_counter() - start
    _stamp(2, not failures and elapsed < limit, elapsed,
           "boundary-of-boundary and replacement identities exact, n <= 8")
    assert not failures, failures[:5]
    assert elapsed < limit


def test_criterion_03_coboundary_tables_are_strong():
    limit = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(30):
        k = int(rng.choice([2, 3, 4]))
        n = int(rng.integers(k, 7))
        m = int(rng.integers(1, 4))
        F = ChainMatrix(n=n, k=k, data=rng.standard_normal((comb(n, k - 1), m)))
        for p in (1, 2, math.inf):
            report = check_strong(eval_coboundary_metric(F, NormSpec(p)))
            if not (report.is_weak and report.is_strong):
                failures.append((trial, n, k, m, p))
    elapsed = time.perf_counter() - start
    _stamp(3, not failures and elapsed < limit, elapsed,
           "30 random chain collections strong under p in {1, 2, inf}")
    assert not failures, failures
    assert elapsed < limit


def test_criterion_04_frechet_round_trip():
    limit = 300.0
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    expanding = []
    for trial in range(20):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k + 1, 7))
        d = random_strong_metric(n, k, int(rng.integers(0, 10_000))).payload
        F = frechet_embed(d)
        back = eval_coboundary_metric(F, NormSpec(math.inf))
        rel = np.abs(back.values - d.values) / np.maximum(d.values, 1e-12)
        worst_rel = max(worst_rel, float(rel.max()))
        rows = np.abs(coboundary_operator(n, k - 2).matrix @ F.data)
        if (rows > d.values[:, None] + 1e-8).any():
            expanding.append((trial, n, k))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and not expanding
    _stamp(4, ok and elapsed < limit, elapsed,
           f"20 max-norm embeddings round-trip, worst rel err {worst_rel:.2e}")
    assert worst_rel <= 1e-6
    assert not expanding, expanding
    assert elapsed < limit


def test_criterion_05_triangle_inequality_tables_are_strong():
    limit = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    failures = []
    for trial in range(50):
        n = int(rng.integers(3, 8))
        report = check_strong(random_closure_2metric(n, rng))
        if not (report.is_weak and report.is_strong):
            failures.append((trial, n))
    elapsed = time.perf_counter() - start
    _stamp(5, not failures and elapsed < limit, elapsed,
           "50 shortest-path closures pass the strong check at arity 2")
    assert not failures, failures
    assert elapsed < limit


def test_criterion_06_apex_suite():
    limit = 600.0
    start = time.perf_counter()
    operator_failures = []
    for n in range(3, 7):
        for h in range(2, min(5, n + 1)):
            # exact: the boundary and the oracle operators are int64 matrices
            left = boundary_operator(n, h - 1).matrix @ project_operator(n, h)
            right = project_operator(n, h - 1) @ boundary_operator(n + 1, h).matrix
            if not np.array_equal(left, right):
                operator_failures.append(("project", n, h))
            lift_left = lift_operator(n, h) @ boundary_operator(n, h - 1).matrix.T
            lift_right = boundary_operator(n + 1, h).matrix.T @ lift_operator(n, h - 1)
            if not np.array_equal(lift_left, lift_right):
                operator_failures.append(("lift", n, h))

    lifted = apex_extend(subdivided_triangle().payload)
    separation = check_strong(lifted)
    witness = separation.strong_witness

    strong_failures = []
    for seed in range(10):
        base = random_strong_metric(5, 3, 1000 + seed).payload
        report = check_strong(apex_extend(base))
        if not report.is_strong:
            strong_failures.append(seed)

    elapsed = time.perf_counter() - start
    ok = (
        not operator_failures
        and separation.is_weak
        and not separation.is_strong
        and witness is not None
        and not strong_failures
    )
    _stamp(6, ok and elapsed < limit, elapsed,
           "apex operators commute; extension separates weak from strong")
    assert not operator_failures, operator_failures
    assert separation.is_weak and not separation.is_strong
    assert witness.simplex == (0, 1, 2, 6)
    assert witness.value == 10.0
    assert abs(witness.cost - 7.0) <= 1e-6
    assert not strong_failures, strong_failures
    assert elapsed < limit


def test_criterion_07_volume_suite():
    limit = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(707)

    recombination_failures = []
    for trial in range(100):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(k - 1, 7))
        pts = rng.standard_normal((k, m))
        lhs = float(np.linalg.norm(projected_volume_vector(pts)))
        rhs = gram_volume(pts)
        if abs(lhs - rhs) > 1e-9 * rhs + 1e-12:
            recombination_failures.append((trial, k, m, lhs, rhs))

    route_failures = []
    for trial in range(20):
        k = int(rng.choice([3, 4]))
        m = int(rng.integers(k - 1, 5))
        count = int(rng.integers(k, 7))
        cloud = PointCloud(points=rng.standard_normal((count, m)))
        direct = volume_metric(cloud, k)
        via_chains = eval_coboundary_metric(volume_to_coboundary(cloud, k), NormSpec(2))
        gap = np.abs(direct.values - via_chains.values)
        if (gap > 1e-9 * direct.values + 1e-12).any():
            route_failures.append((trial, count, m, k, float(gap.max())))

    side = math.sqrt(2.0)
    square = PointCloud(
        points=np.array([[0.0, 0.0], [side, 0.0], [side, side], [0.0, side]])
    )
    areas = volume_metric(square, 3).values
    square_ok = bool(np.all(np.abs(areas - 1.0) <= 1e-9)) and areas.shape == (4,)

    elapsed = time.perf_counter() - start
    ok = not recombination_failures and not route_failures and square_ok
    _stamp(7, ok and elapsed < limit, elapsed,
           "projected volumes recombine; both volume routes agree to 1e-9")
    assert not recombination_failures, recombination_failures[:3]
    assert not route_failures, route_failures[:3]
    assert square_ok, areas
    assert elapsed < limit


def test_criterion_08_tree_and_hypertree_l1():
    limit = 120.0
    start = time.perf_counter()
    rng = np.random.default_rng(808)

    tree_failures = []
    for trial in range(20):
        n = int(rng.integers(4, 9))
        K = random_spanning_tree(n, seed=800 + trial)
        d = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1))
        dist = dijkstra_all_pairs(n, dict(zip(K.facets, K.weights)))
        oracle = np.array([dist[i, j] for i, j in combinations(range(n), 2)])
        gap = float(np.abs(d.values - oracle).max())
        if gap > 1e-8:
            tree_failures.append((trial, n, gap))

    fill_failures = []
    for trial in range(5):
        n = 4 + trial % 2
        K = random_2hypertree(n, seed=900 + trial)
        d = eval_coboundary_metric(hypertree_to_l1(K), NormSpec(1))
        oracle = mbc_metric(K)
        gap = np.abs(d.values - oracle.values)
        if (gap > 1e-6 + 1e-6 * oracle.values).any():
            fill_failures.append((trial, n, float(gap.max())))

    elapsed = time.perf_counter() - start
    ok = not tree_failures and not fill_failures
    _stamp(8, ok and elapsed < limit, elapsed,
           "1-norm realisations match shortest paths and the LP oracle")
    assert not tree_failures, tree_failures
    assert not fill_failures, fill_failures
    assert elapsed < limit


def test_criterion_09_random_projection_distortion():
    limit = 120.0
    start = time.perf_counter()
    n, k, m, eps = 30, 3, 50, 0.25
    target = jl_target_dim(n, k, eps)
    assert target == math.ceil(8 * k * math.log(n) / eps**2)

    rng = np.random.default_rng(20260819)
    F = ChainMatrix(n=n, k=k, data=rng.standard_normal((comb(n, 2), m)))
    base = eval_coboundary_metric(F, NormSpec(2))

    distortions = []
    for seed in (1, 2, 3, 4, 5):
        projected = random_project(F, target, NormSpec(2), seed)
        shrunk = eval_coboundary_metric(projected, NormSpec(2))
        distortions.append(max_distortion(shrunk, base))
    hits = sum(dist <= eps for dist in distortions)

    elapsed = time.perf_counter() - start
    # distributional guarantee: accept when most fixed seeds land in budget
    ok = hits >= 3
    _stamp(9, ok and elapsed < limit, elapsed,
           f"sketch to {target} columns kept distortion <= {eps} on {hits}/5 seeds")
    assert hits >= 3, distortions
    assert elapsed < limit


def test_criterion_10_named_instances_exact_tables():
    limit = 5.0
    start = time.perf_counter()

    six = six_point_apex_discrete()
    d_six = eval_coboundary_metric(six.payload, NormSpec(six.expected["norm_p"]))
    six_ok = all(
        d_six.value(t) == want for t, want in six.expected["values"].items()
    ) and set(np.unique(d_six.values)) <= {0.0, 1.0}

    four = four_point_equilateral()
    d_four = eval_coboundary_metric(four.payload, NormSpec(four.expected["norm_p"]))
    four_close = all(
        abs(d_four.value(t) - want) <= 1e-12
        for t, want in four.expected["values"].items()
    )
    # the same rows through a correctly-rounded two-term norm land on {0, 1}
    rows = coboundary_operator(4, 1).matrix @ four.payload.data
    hypot_norms = {math.hypot(row[0], row[1]) for row in rows}
    four_exact = hypot_norms == {0.0, 1.0}

    elapsed = time.perf_counter() - start
    ok = six_ok and four_close and four_exact
    _stamp(10, ok and elapsed < limit, elapsed,
           "named four-point and six-point tables evaluate to {0, 1}")
    assert six_ok
    assert four_close
    assert four_exact, hypot_norms
    assert elapsed < limit
