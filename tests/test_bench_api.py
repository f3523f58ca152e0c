"""The library calls that the frozen perfbench replay makes must keep working.

perfbench/ lies outside the test paths, so this module imports its replay
and its frontier script, with the run module that both start from (each fails
if any name it imports from kmetrics is gone), and repeats, on a small table,
a small point cloud and a small hypertree, the calls and checks of the
strong_k3, weak_volume and hypertree_l1 replays.  Nothing under perfbench/
is written, and sys.path is restored.
"""

import importlib
import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    # the whole of sys.path is restored afterwards, frontier's own insert included
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    return importlib.import_module


@pytest.fixture
def replay(bench):
    return bench("replay")


def test_frontier_and_run_import(bench):
    frontier = bench("frontier")
    assert frontier.run is bench("run")
    assert callable(frontier.main) and callable(frontier.run.main)


def test_replay_imports_and_its_strong_k3_calls_run(replay):
    d = replay.corpus.random_strong_metric(7, 3, 5).payload
    report = replay.check_strong(d, exhaustive=True, jobs=replay.JOBS)
    assert report.is_strong

    B = replay.boundary_operator(d.n, d.k - 1).matrix.astype(float)
    A, c = np.hstack([B, -B]), np.concatenate([d.values, d.values])
    for i in range(B.shape[1]):
        sol = replay.solve(replay.StandardFormLP(A=A, b=B[:, i], c=c))
        target = replay.Chain(n=d.n, dim=d.k - 2, coeffs=B[:, i])
        cost, _ = replay.min_bounding_chain(d.values, target)
        assert sol.objective == pytest.approx(cost, rel=1e-9)

    F = replay.frechet_embed(d, jobs=replay.JOBS)
    back = replay.eval_coboundary_metric(F, replay.NormSpec(math.inf))
    assert back.values == pytest.approx(d.values, rel=1e-9)


def test_replay_weak_volume_calls_run(replay, tmp_path):
    wl = replay.wl
    path = tmp_path / "cloud.json"
    points = np.random.default_rng(3).standard_normal((8, 5))
    path.write_text(json.dumps({"m": 5, "points": points.tolist()}), encoding="utf-8")
    cloud = replay.read_cloud(str(path))
    k, eps = wl.VOLUME_K, wl.JL_EPS
    d = replay.volume_metric(cloud, k)
    assert d.values == pytest.approx(wl.gram_volumes(cloud.points), rel=1e-9)
    assert replay.check_weak(d).is_weak

    F = replay.volume_to_coboundary(cloud, k)
    P = replay.random_project(F, replay.jl_target_dim(F.n, F.k, eps), replay.NormSpec(2),
                              wl.pass_seed(1, 0))
    exact = replay.eval_coboundary_metric(F, replay.NormSpec(2))
    assert exact.values == pytest.approx(d.values, rel=1e-9)
    sketched = replay.eval_coboundary_metric(P, replay.NormSpec(2))
    assert replay.max_distortion(sketched, exact) <= eps


def test_replay_hypertree_l1_calls_run(replay):
    K = replay.wl.random_2hypertree(7, 0)
    assert replay.is_hypertree(K).is_hypertree
    F = replay.hypertree_to_l1(K)
    l1 = replay.eval_coboundary_metric(F, replay.NormSpec(1))
    table = replay.mbc_metric(K, jobs=replay.JOBS)
    assert table.values == pytest.approx(l1.values, rel=1e-9)

    idx = K.facet_indices()
    weights = np.zeros(len(l1.values))
    weights[idx] = K.weights
    for i, target in enumerate(combinations(range(K.n), K.k)):
        boundary = replay.apply_operator(replay.boundary_operator(K.n, K.k - 1),
                                         replay.indicator_chain(K.n, target))
        cost, _ = replay.min_bounding_chain(weights, boundary, mask=idx)
        assert cost == pytest.approx(l1.values[i], rel=1e-9)
