"""Workload inputs, one pass of `kmetrics` CLI commands each, and output checks.

Every command runs as a whole process with default flags, one at a time:
the next starts only after the previous has exited (a closed loop with one
client).  Each command's wall time and max RSS come from `os.wait4`.  The
program sees only the input files the harness writes; every output is
checked here, and a failed check is counted, never raised out of the pass.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from kmetrics.hypertree import random_2hypertree

# Input sets written per run: each set-up repetition writes one, and pass i
# uses set i % INPUT_SETS, so a run's medians cover several instances.
INPUT_SETS = 3
COMMAND_TIMEOUT_S = 150.0
REL_TOL = 1e-6

STRONG_N, STRONG_K = 9, 3
CLOUD_POINTS, CLOUD_DIM, VOLUME_K, JL_EPS = 40, 5, 3, 0.5
TREE_N, MIN_CHAIN_TARGETS = 12, 16


class CheckFailed(Exception):
    """An output of the program is wrong."""


def pass_seed(seed: int, index: int) -> int:
    """A 32-bit seed for one pass or input set, derived from the run seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Process:
    wall_s: float
    exit_code: int
    max_rss_kb: int
    stdout: str


def run_process(argv: list, cwd: Path, env: dict, timeout: float = COMMAND_TIMEOUT_S) -> Process:
    """Run argv to completion; wall time spans spawn to reap."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, proc.returncode, usage.ru_maxrss, out_path.read_text())


def kmetrics_argv(args: list) -> list:
    return [sys.executable, "-m", "kmetrics", *args]


@dataclass
class Step:
    command: str  # timing family: gen, verify, embed, eval, volume, hypertree, min_chain
    args: list
    expect_exit: int = 0
    check: Optional[Callable[[dict], None]] = None
    prepare: Optional[Callable[[], None]] = None  # untimed, runs before the command


@dataclass
class CommandRecord:
    command: str
    args: list
    wall_s: Optional[float]  # None when the command could not be started
    exit_code: Optional[int]
    max_rss_kb: int
    report_s: Optional[float]  # the report's own timing.seconds
    problem: Optional[str]


def run_step(step: Step, cwd: Path, env: dict) -> CommandRecord:
    """Prepare, run and check one command; any failure becomes `problem`."""
    if step.prepare is not None:
        try:
            step.prepare()
        except Exception:
            return CommandRecord(step.command, step.args, None, None, 0, None,
                                 "prepare failed: " + _last_line(traceback.format_exc()))
    proc = run_process(kmetrics_argv(step.args), cwd, env)
    problem, report_s = None, None
    try:
        report = json.loads(proc.stdout)
        report_s = report.get("timing", {}).get("seconds")
        if proc.exit_code != step.expect_exit:
            raise CheckFailed(f"exit {proc.exit_code}, expected {step.expect_exit}: "
                              + json.dumps(report.get("error", "")))
        if step.check is not None:
            step.check(report)
    except Exception:
        problem = _last_line(traceback.format_exc())
    return CommandRecord(step.command, step.args, proc.wall_s, proc.exit_code,
                         proc.max_rss_kb, report_s, problem)


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


# --- file helpers and independent checks ------------------------------------


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_values(path: Path, n: int, k: int) -> np.ndarray:
    """Values of a distance-table file, in canonical tuple order."""
    obj = load_json(path)
    expect(obj["n"] == n and obj["k"] == k, f"{path.name}: shape {obj['n']},{obj['k']}")
    simplices = list(combinations(range(n), k))
    expect([tuple(e["s"]) for e in obj["values"]] == simplices, f"{path.name}: tuple order")
    return np.array([e["d"] for e in obj["values"]], dtype=float)


def chain_shape(path: Path) -> tuple:
    obj = load_json(path)
    expect(len(obj["data"]) == math.comb(obj["n"], obj["k"] - 1) * obj["m"],
           f"{path.name}: data length")
    return obj["n"], obj["k"], obj["m"]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(got, want, what: str, rtol: float = REL_TOL) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(got), np.abs(want))
    err = np.abs(got - want)
    bad = err > rtol * scale
    expect(got.shape == want.shape and not bad.any(),
           f"{what}: {int(bad.sum())} entries beyond {rtol:g} relative")


def replacement_bound(values: np.ndarray, n: int, k: int) -> float:
    """Cheapest one-point-replacement chain bounding the last tuple.

    For t and an outside vertex y, the k tuples with one vertex of t swapped
    for y form the cone over the boundary of t, a chain with the same
    boundary as t; its cost is the sum of their values.  A table whose value
    at t exceeds this bound is neither weak nor strong, with a witness at t.
    """
    order = {s: i for i, s in enumerate(combinations(range(n), k))}
    t = tuple(range(n - k, n))
    return min(
        sum(values[order[tuple(sorted(t[:i] + t[i + 1:] + (y,)))]] for i in range(k))
        for y in range(n - k)
    )


def gram_volumes(points: np.ndarray) -> np.ndarray:
    """Triangle areas of every point triple, canonical order (closed form)."""
    idx = np.array(list(combinations(range(len(points)), 3)))
    u = points[idx[:, 1]] - points[idx[:, 0]]
    v = points[idx[:, 2]] - points[idx[:, 0]]
    gram = (u * u).sum(1) * (v * v).sum(1) - (u * v).sum(1) ** 2
    return np.sqrt(np.maximum(gram, 0.0)) / 2.0


# --- workloads ----------------------------------------------------------------


class StrongK3:
    """gen random-strong -> verify --strong --exhaustive -> verify --strong on a
    refutation copy -> embed frechet -> eval --p inf.  Pass i generates its own
    table from pass_seed(seed, i).

    The refutation copy raises the last tuple to 1.5 times its cheapest
    one-point-replacement chain.  Raising the table's own value by half is
    not enough: the raised table stays strong for most seeds, since every
    other chain of a strong table costs at least the original value.
    """

    name = "strong_k3"

    def setup(self, workdir: Path, seed: int, index: int) -> None:
        pass  # the table is generated by a timed command in each pass

    def steps(self, workdir: Path, seed: int, index: int) -> list:
        n, k = STRONG_N, STRONG_K
        table, refute = workdir / "s.json", workdir / "refute.json"
        last = tuple(range(n - k, n))
        original = {}

        def check_gen(report):
            expect(report["results"]["expected"]["strong"] is True, "gen: not marked strong")
            values = table_values(table, n, k)
            expect(bool((values > 0).all()), "gen: nonpositive value")
            original["values"] = values

        def check_exhaustive(report):
            res, values = report["results"], original["values"]
            expect(res["weak"] and res["strong"], "verify: not weak and strong")
            costs = np.array([m["cost"] for m in res["margins"]])
            expect_close([m["value"] for m in res["margins"]], values, "verify: margin values")
            expect(bool((costs >= values * (1 - REL_TOL)).all()), "verify: a cost below its value")

        def write_refutation():
            obj = load_json(table)
            bound = replacement_bound(original["values"], n, k)
            obj["values"][-1]["d"] = 1.5 * bound
            original["bound"] = bound
            with open(refute, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

        def check_refutation(report):
            res, value, bound = report["results"], original["values"][-1], original["bound"]
            expect(res["strong"] is False and res["weak"] is False, "refutation: not refuted")
            witness = res["witness"]
            expect(tuple(witness["s"]) == last, f"refutation: witness at {witness['s']}")
            expect_close(witness["value"], 1.5 * bound, "refutation: witness value")
            expect(value * (1 - REL_TOL) <= witness["cost"] <= bound * (1 + REL_TOL),
                   f"refutation: witness cost {witness['cost']} outside [{value}, {bound}]")

        def check_embed(report):
            count = math.comb(n, k)
            expect(report["results"]["columns"] == count, "embed: column count")
            expect(chain_shape(workdir / "F.json") == (n, k, count), "embed: file shape")

        def check_eval(report):
            expect_close(table_values(workdir / "back.json", n, k), original["values"],
                         "eval: round trip")

        s = str(pass_seed(seed, index))
        return [
            Step("gen", ["gen", "random-strong", "--n", str(n), "--k", str(k), "--seed", s,
                         "-o", "s.json"], check=check_gen),
            Step("verify", ["verify", "s.json", "--strong", "--exhaustive"], check=check_exhaustive),
            Step("verify", ["verify", "refute.json", "--strong"], expect_exit=1,
                 check=check_refutation, prepare=write_refutation),
            Step("embed", ["embed", "frechet", "s.json", "-o", "F.json"], check=check_embed),
            Step("eval", ["eval", "F.json", "--p", "inf", "-o", "back.json"], check=check_eval),
        ]


class WeakVolume:
    """volume --k 3 -> verify (weak) -> volume --k 3 --to-coboundary ->
    embed jl --eps 0.5 -> eval --p 2, on a Gaussian cloud of 40 points in R^5."""

    name = "weak_volume"

    def setup(self, workdir: Path, seed: int, index: int) -> None:
        rng = np.random.default_rng(pass_seed(seed, index))
        points = rng.standard_normal((CLOUD_POINTS, CLOUD_DIM))
        with open(workdir / f"cloud{index}.json", "w", encoding="utf-8") as fh:
            json.dump({"m": CLOUD_DIM, "points": points.tolist()}, fh)

    def steps(self, workdir: Path, seed: int, index: int) -> list:
        cloud = f"cloud{index % INPUT_SETS}.json"
        n, k = CLOUD_POINTS, VOLUME_K
        jl_dim = math.ceil(8.0 * k * math.log(n) / JL_EPS**2)  # the CLI's default cprime
        want = {}

        def check_volume(report):
            points = np.array(load_json(workdir / cloud)["points"])
            want["values"] = gram_volumes(points)
            expect_close(table_values(workdir / "vol.json", n, k), want["values"],
                         "volume: areas", rtol=1e-9)

        def check_weak(report):
            res = report["results"]
            expect(res["weak"] is True and not res["weak_violations"], "verify: not weak")

        def check_cones(report):
            axes = math.comb(CLOUD_DIM, k - 1)
            expect(report["results"]["columns"] == axes, "cones: column count")
            expect(chain_shape(workdir / "cones.json") == (n, k, axes), "cones: file shape")

        def check_jl(report):
            res = report["results"]
            expect(res["columns_after"] == jl_dim, f"jl: {res['columns_after']} columns")
            expect(res["distortion"] <= JL_EPS, f"jl: distortion {res['distortion']}")

        def check_eval(report):
            got, values = table_values(workdir / "back.json", n, k), want["values"]
            inside = (got >= (1 - JL_EPS) * values) & (got <= (1 + JL_EPS) * values)
            expect(bool(inside.all()), f"eval: {int((~inside).sum())} values outside 1±eps")

        return [
            Step("volume", ["volume", cloud, "--k", str(k), "-o", "vol.json"], check=check_volume),
            Step("verify", ["verify", "vol.json"], check=check_weak),
            Step("volume", ["volume", cloud, "--k", str(k), "--to-coboundary", "-o", "cones.json"],
                 check=check_cones),
            Step("embed", ["embed", "jl", "cones.json", "--eps", str(JL_EPS),
                           "--seed", str(pass_seed(seed, index)), "-o", "small.json"],
                 check=check_jl),
            Step("eval", ["eval", "small.json", "--p", "2", "-o", "back.json"], check=check_eval),
        ]


def min_chain_targets(seed: int, index: int) -> list:
    rng = np.random.default_rng(pass_seed(seed, 10_000 + index))
    return [tuple(sorted(int(v) for v in rng.choice(TREE_N, 3, replace=False)))
            for _ in range(MIN_CHAIN_TARGETS)]


class HypertreeL1:
    """hypertree --to-l1 -> eval --p 1 -> 16 min-chain processes on seeded
    triples of a random 2-hypertree on 12 vertices."""

    name = "hypertree_l1"

    def setup(self, workdir: Path, seed: int, index: int) -> None:
        K = random_2hypertree(TREE_N, pass_seed(seed, index))
        facets = [{"s": list(f), "w": float(w)} for f, w in zip(K.facets, K.weights)]
        with open(workdir / f"complex{index}.json", "w", encoding="utf-8") as fh:
            json.dump({"n": K.n, "k": K.k, "facets": facets}, fh)

    def steps(self, workdir: Path, seed: int, index: int) -> list:
        cx = f"complex{index % INPUT_SETS}.json"
        n, k = TREE_N, 3
        order = {s: i for i, s in enumerate(combinations(range(n), k))}
        l1 = {}

        def check_hypertree(report):
            res = report["results"]
            facets = len(load_json(workdir / cx)["facets"])
            expect(res["hypertree"] is True, "hypertree: not a hypertree")
            expect(res["columns"] == facets, "hypertree: column count")
            expect(chain_shape(workdir / "cols.json") == (n, k, facets), "hypertree: file shape")

        def check_eval(report):
            values = table_values(workdir / "l1.json", n, k)
            expect(bool((values > 0).all()), "eval: nonpositive value")
            l1["values"] = values

        def check_min_chain(target):
            def check(report):
                expect(tuple(report["results"]["target"]) == target, "min-chain: target")
                expect_close(report["results"]["cost"], l1["values"][order[target]],
                             f"min-chain {target} against eval")
            return check

        steps = [
            Step("hypertree", ["hypertree", cx, "--to-l1", "-o", "cols.json"],
                 check=check_hypertree),
            Step("eval", ["eval", "cols.json", "--p", "1", "-o", "l1.json"], check=check_eval),
        ]
        for t in min_chain_targets(seed, index):
            steps.append(Step("min_chain", ["min-chain", cx, "--target", ",".join(map(str, t))],
                              check=check_min_chain(t)))
        return steps


WORKLOADS = {w.name: w for w in (StrongK3(), WeakVolume(), HypertreeL1())}
