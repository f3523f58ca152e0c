"""Self-tests of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench`.  They start
real `kmetrics` processes and take about half a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import replay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner["parent"] == outer["id"]
    assert own[inner["id"]] >= 0.02
    assert own[outer["id"]] < 0.01
    assert abs(own[0] + own[1] - (outer["end"] - outer["start"])) < 1e-9


def test_tail_has_ten_samples_beyond_it():
    assert spans.tail(list(range(20))) == (0.0, None)
    value, percentile = spans.tail(list(range(100)))
    assert value == 89 and percentile == 90.0


def test_benchmark_json_matches_the_harness():
    contract = _contract()
    assert contract["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert {w["name"] for w in contract["workloads"]} == set(wl.WORKLOADS)


def test_oracle_agrees_on_the_subdivided_triangle():
    # the seven subdivision triangles bound (0, 1, 2) at cost 7 against its value 10
    from kmetrics import apply_operator, boundary_operator, corpus, indicator_chain

    d = corpus.subdivided_triangle().payload
    boundary = apply_operator(boundary_operator(6, 2), indicator_chain(6, (0, 1, 2)))
    assert replay.oracle_check([(6, 3, d.values, boundary.coeffs, None, 7.0)]) == []
    assert len(replay.oracle_check([(6, 3, d.values, boundary.coeffs, None, 7.5)])) == 1


def test_run_prints_the_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hypertree_l1", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_output_raises_the_error_rate(tmp_path, monkeypatch):
    real = wl.run_process

    def corrupt_eval_output(argv, cwd, env, timeout=wl.COMMAND_TIMEOUT_S):
        proc = real(argv, cwd, env, timeout)
        if "eval" in argv:
            path = Path(cwd) / "l1.json"
            table = json.loads(path.read_text())
            for entry in table["values"]:
                entry["d"] *= 2.0
            path.write_text(json.dumps(table))
        return proc

    monkeypatch.setattr(wl, "run_process", corrupt_eval_output)
    workload = wl.WORKLOADS["hypertree_l1"]
    metrics, attempted, problems, detail = run.timed_run(
        wl, workload, 3, 0.001, tmp_path, wl.cli_env(ROOT), time.perf_counter())
    assert detail["passes"] == 1
    assert attempted == wl.INPUT_SETS * run.SETUP_REPEATS + 2 + wl.MIN_CHAIN_TARGETS  # nothing was skipped
    assert len(problems) == wl.MIN_CHAIN_TARGETS  # every min-chain check failed
    assert detail["error_rate"] == len(problems) / attempted > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strong_k3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
