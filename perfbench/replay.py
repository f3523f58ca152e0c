"""Traced in-process replay of a pass, for the per-layer metrics.

Each replayed command clears the package's caches (as a fresh process
would start) and calls the same public functions its CLI command calls.
Spans from this file wrap each call; nothing inside the package is patched.
The replay also solves, one span per call, the per-tuple programs that
`check_strong` and `frechet_embed` solve internally, so their latency
distributions can be read: `min_bounding_chain` per tuple, and `lp.solve`
on the same bounding-chain programs built from public types.
"""

from __future__ import annotations

import math
import os
import traceback
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np

import kmetrics
from kmetrics import (
    Chain,
    NormSpec,
    StandardFormLP,
    apply_operator,
    boundary_operator,
    check_strong,
    check_weak,
    coboundary_operator,
    corpus,
    eval_coboundary_metric,
    frechet_column,
    frechet_embed,
    hypertree_to_l1,
    indicator_chain,
    is_hypertree,
    jl_target_dim,
    max_distortion,
    mbc_metric,
    min_bounding_chain,
    random_project,
    read_chain_matrix,
    read_cloud,
    read_complex,
    read_kmetric,
    solve,
    volume_metric,
    volume_to_coboundary,
    write_chain_matrix,
    write_kmetric,
)

import workloads as wl
from spans import median, tail

JOBS = os.cpu_count() or 1  # the CLI's default --jobs

# metric -> span name; the value is the per-pass sum of self times
SUM_METRICS = {
    "fileio.read_s": "fileio.read",
    "fileio.write_s": "fileio.write",
    "simplicial.boundary_operator_s": "simplicial.boundary_operator",
    "simplicial.coboundary_operator_s": "simplicial.coboundary_operator",
    "metric.check_strong_s": "metric.check_strong",
    "metric.check_weak_s": "metric.check_weak",
    "coboundary.frechet_embed_s": "coboundary.frechet_embed",
    "coboundary.eval_s": "coboundary.eval",
    "coboundary.random_project_s": "coboundary.random_project",
    "coboundary.max_distortion_s": "coboundary.max_distortion",
    "volume.volume_metric_s": "volume.volume_metric",
    "volume.to_coboundary_s": "volume.to_coboundary",
    "hypertree.is_hypertree_s": "hypertree.is_hypertree",
    "hypertree.to_l1_s": "hypertree.to_l1",
    "hypertree.mbc_metric_s": "hypertree.mbc_metric",
    "corpus.random_strong_s": "corpus.random_strong",
}
# metric prefix -> span name; p50 and tail of single-call durations in ms
DIST_METRICS = {
    "lp.solve_ms": "lp.solve",
    "metric.min_bounding_chain_ms": "metric.min_bounding_chain",
    "coboundary.frechet_column_ms": "coboundary.frechet_column",
}


def clear_caches() -> None:
    """Empty every lru_cache in the package, as a new CLI process starts."""
    for module in (kmetrics.simplicial, kmetrics.metric, kmetrics.coboundary,
                   kmetrics.hypertree, kmetrics.volume):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                obj.cache_clear()


class Replay:
    """One replayed pass: spans, file I/O and outcome accounting."""

    def __init__(self, tracer, workdir: Path):
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.problems = []
        self.oracle_cases = []  # (n, k, weights, target boundary, mask or None, cost)

    @contextmanager
    def command(self, name):
        """A replayed CLI command; a failure is recorded and the pass goes on."""
        self.attempted += 1
        clear_caches()
        try:
            with self.tracer.span("replay." + name):
                yield
        except Exception:
            self.problems.append(f"replay {name}: "
                                 + traceback.format_exc().strip().splitlines()[-1])

    def call(self, span, fn, *args, **kwargs):
        with self.tracer.span(span):
            return fn(*args, **kwargs)

    def read(self, fn, name):
        path = self.workdir / name
        with self.tracer.span("fileio.read", bytes=path.stat().st_size):
            return fn(str(path))

    def write(self, fn, obj, name):
        path = self.workdir / name
        with self.tracer.span("fileio.write") as record:
            fn(obj, str(path))
        record["bytes"] = path.stat().st_size

    def operators(self, n, k):
        """Cold builds of the boundary and coboundary operators a table uses."""
        clear_caches()
        self.call("simplicial.boundary_operator", boundary_operator, n, k - 1)
        clear_caches()
        self.call("simplicial.coboundary_operator", coboundary_operator, n, k - 2)


def _boundary_column(n, k, i):
    return Chain(n=n, dim=k - 2, coeffs=boundary_operator(n, k - 1).matrix[:, i].astype(float))


def replay_strong_k3(r: Replay, seed: int, index: int) -> None:
    n, k = wl.STRONG_N, wl.STRONG_K
    with r.command("gen"):
        d = r.call("corpus.random_strong", corpus.random_strong_metric, n, k,
                   wl.pass_seed(seed, index)).payload
        r.write(write_kmetric, d, "s.json")
    with r.command("verify"):
        d = r.read(read_kmetric, "s.json")
        report = r.call("metric.check_strong", check_strong, d, exhaustive=True, jobs=JOBS)
        wl.expect(report.is_strong, "check_strong: not strong")
    with r.command("verify_refutation"):
        bound = wl.replacement_bound(d.values, n, k)
        values = d.values.copy()
        values[-1] = 1.5 * bound
        write_kmetric(kmetrics.KMetric(n=n, k=k, values=values), str(r.workdir / "refute.json"))
        raised = r.read(read_kmetric, "refute.json")
        report = r.call("metric.check_strong", check_strong, raised, jobs=JOBS)
        witness = report.strong_witness
        wl.expect(witness is not None and witness.simplex == tuple(range(n - k, n))
                  and d.values[-1] * (1 - wl.REL_TOL) <= witness.cost <= bound * (1 + wl.REL_TOL),
                  "refutation: witness")
    with r.command("min_bounding_chain"):
        costs = []
        for i in range(len(d.values)):
            target = _boundary_column(n, k, i)
            with r.tracer.span("metric.min_bounding_chain"):
                cost, _ = min_bounding_chain(d.values, target)
            costs.append(cost)
            r.oracle_cases.append((n, k, d.values, target.coeffs, None, cost))
        wl.expect(bool((np.array(costs) >= d.values * (1 - wl.REL_TOL)).all()),
                  "min_bounding_chain: a cost below its value")
    with r.command("lp"):
        B = boundary_operator(n, k - 1).matrix.astype(float)
        A, c = np.hstack([B, -B]), np.concatenate([d.values, d.values])
        objectives = []
        for i in range(B.shape[1]):
            program = StandardFormLP(A=A, b=B[:, i], c=c)
            with r.tracer.span("lp.solve"):
                sol = solve(program)
            objectives.append(sol.objective)
        wl.expect_close(objectives, costs, "lp.solve against min_bounding_chain")
    with r.command("embed"):
        d = r.read(read_kmetric, "s.json")
        F = r.call("coboundary.frechet_embed", frechet_embed, d, jobs=JOBS)
        r.write(write_chain_matrix, F, "F.json")
    with r.command("frechet_column"):
        achieved = []
        for t in d.simplices():
            with r.tracer.span("coboundary.frechet_column"):
                achieved.append(frechet_column(d, t)[1])
        wl.expect_close(achieved, d.values, "frechet_column against the table")
    with r.command("eval"):
        F = r.read(read_chain_matrix, "F.json")
        r.operators(n, k)
        back = r.call("coboundary.eval", eval_coboundary_metric, F, NormSpec(math.inf))
        r.write(write_kmetric, back, "back.json")
        wl.expect_close(back.values, d.values, "eval: round trip")


def replay_weak_volume(r: Replay, seed: int, index: int) -> None:
    cloud_file = f"cloud{index % wl.INPUT_SETS}.json"
    k, eps = wl.VOLUME_K, wl.JL_EPS
    with r.command("volume"):
        cloud = r.read(read_cloud, cloud_file)
        d = r.call("volume.volume_metric", volume_metric, cloud, k)
        r.write(write_kmetric, d, "vol.json")
        wl.expect_close(d.values, wl.gram_volumes(cloud.points), "volume: areas", rtol=1e-9)
    with r.command("verify"):
        d = r.read(read_kmetric, "vol.json")
        wl.expect(r.call("metric.check_weak", check_weak, d).is_weak, "check_weak: not weak")
    with r.command("volume_cones"):
        cloud = r.read(read_cloud, cloud_file)
        F = r.call("volume.to_coboundary", volume_to_coboundary, cloud, k)
        r.write(write_chain_matrix, F, "cones.json")
    with r.command("embed"):
        F = r.read(read_chain_matrix, "cones.json")
        P = r.call("coboundary.random_project", random_project, F,
                   jl_target_dim(F.n, F.k, eps), NormSpec(2), wl.pass_seed(seed, index))
        sketched = r.call("coboundary.eval", eval_coboundary_metric, P, NormSpec(2))
        exact = r.call("coboundary.eval", eval_coboundary_metric, F, NormSpec(2))
        distortion = r.call("coboundary.max_distortion", max_distortion, sketched, exact)
        r.write(write_chain_matrix, P, "small.json")
        wl.expect(distortion <= eps, f"jl: distortion {distortion}")
    with r.command("eval"):
        P = r.read(read_chain_matrix, "small.json")
        r.operators(P.n, P.k)
        back = r.call("coboundary.eval", eval_coboundary_metric, P, NormSpec(2))
        r.write(write_kmetric, back, "back.json")
        ratio = back.values / d.values
        wl.expect(bool(((ratio >= 1 - eps) & (ratio <= 1 + eps)).all()), "eval: outside 1±eps")


def replay_hypertree_l1(r: Replay, seed: int, index: int) -> None:
    cx = f"complex{index % wl.INPUT_SETS}.json"
    order = {s: i for i, s in enumerate(combinations(range(wl.TREE_N), 3))}
    with r.command("hypertree"):
        K = r.read(read_complex, cx)
        wl.expect(r.call("hypertree.is_hypertree", is_hypertree, K).is_hypertree,
                  "is_hypertree: false")
        F = r.call("hypertree.to_l1", hypertree_to_l1, K)
        r.write(write_chain_matrix, F, "cols.json")
    with r.command("eval"):
        F = r.read(read_chain_matrix, "cols.json")
        r.operators(F.n, F.k)
        l1 = r.call("coboundary.eval", eval_coboundary_metric, F, NormSpec(1))
        r.write(write_kmetric, l1, "l1.json")
    with r.command("mbc_metric"):
        K = r.read(read_complex, cx)
        table = r.call("hypertree.mbc_metric", mbc_metric, K, jobs=JOBS)
        wl.expect_close(table.values, l1.values, "mbc_metric against the 1-norm table")
    with r.command("min_bounding_chain"):
        idx = K.facet_indices()
        weights = np.zeros(len(l1.values))
        weights[idx] = K.weights
        costs = []
        for i in range(len(l1.values)):
            target = _boundary_column(K.n, K.k, i)
            with r.tracer.span("metric.min_bounding_chain", masked=True):
                costs.append(min_bounding_chain(weights, target, mask=idx)[0])
        wl.expect_close(costs, l1.values, "masked min_bounding_chain against the 1-norm table")
    for target in wl.min_chain_targets(seed, index):
        with r.command("min_chain"):
            K = r.read(read_complex, cx)
            idx = K.facet_indices()
            weights = np.zeros(boundary_operator(K.n, K.k - 1).matrix.shape[1])
            weights[idx] = K.weights
            boundary = apply_operator(boundary_operator(K.n, K.k - 1),
                                      indicator_chain(K.n, target))
            with r.tracer.span("metric.min_bounding_chain", masked=True):
                cost, _ = min_bounding_chain(weights, boundary, mask=idx)
            r.oracle_cases.append((K.n, K.k, weights, boundary.coeffs, idx, cost))
            wl.expect_close(cost, l1.values[order[target]], f"min_bounding_chain {target}")


REPLAYS = {
    "strong_k3": replay_strong_k3,
    "weak_volume": replay_weak_volume,
    "hypertree_l1": replay_hypertree_l1,
}


def oracle_check(cases) -> list:
    """Problems found comparing bounding-chain costs with HiGHS (test oracle only)."""
    from scipy.optimize import linprog

    problems, matrices = [], {}
    for n, k, weights, boundary, mask, cost in cases:
        if (n, k) not in matrices:
            matrices[n, k] = independent_boundary(n, k - 1)
        B = matrices[n, k]
        cols = np.arange(B.shape[1]) if mask is None else np.asarray(mask)
        Bm, w = B[:, cols], np.asarray(weights)[cols]
        res = linprog(np.concatenate([w, w]), A_eq=np.hstack([Bm, -Bm]), b_eq=boundary,
                      bounds=(0, None), method="highs")
        if res.status != 0 or abs(res.fun - cost) > wl.REL_TOL * max(abs(res.fun), abs(cost)):
            problems.append(f"oracle: HiGHS {res.fun} against min_bounding_chain {cost}")
    return problems


def independent_boundary(n: int, dim: int) -> np.ndarray:
    """Boundary matrix of dim-simplices built from scratch (lexicographic order)."""
    faces = {f: i for i, f in enumerate(combinations(range(n), dim))}
    simplices = list(combinations(range(n), dim + 1))
    B = np.zeros((len(faces), len(simplices)))
    for j, s in enumerate(simplices):
        for i in range(dim + 1):
            B[faces[s[:i] + s[i + 1:]], j] = (-1) ** i
    return B


def layer_metrics(tracer, passes) -> tuple:
    """Per-layer metrics from the traced replay passes; also the tail percentiles."""
    own = tracer.self_times()
    metrics, percentiles = {}, {}
    for metric, span in SUM_METRICS.items():
        per_pass = [sum(own[s["id"]] for s in tracer.spans
                        if s["name"] == span and s["pass"] == p) for p in passes]
        metrics[metric] = median(per_pass)
    io = [sum(s.get("bytes", 0) for s in tracer.spans
              if s["name"].startswith("fileio.") and s["pass"] == p) for p in passes]
    metrics["fileio.bytes"] = median(io)
    metrics["lp.solves"] = median([sum(1 for s in tracer.spans
                                       if s["name"] == "lp.solve" and s["pass"] == p)
                                   for p in passes])
    for prefix, span in DIST_METRICS.items():
        ms = [1e3 * (s["end"] - s["start"]) for s in tracer.spans
              if s["name"] == span and s["pass"] in passes]
        metrics[prefix + ".p50"] = median(ms)
        metrics[prefix + ".tail"], percentiles[prefix + ".tail"] = tail(ms)
    return metrics, percentiles
