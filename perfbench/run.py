"""Benchmark of the kmetrics CLI: closed-loop workloads and a traced replay.

Run from the repository root:

    python3 perfbench/run.py --workload strong_k3 --seed 1 --seconds 30 --trace 0

With --trace 0 the harness runs passes of whole `kmetrics` processes, one at
a time, for --seconds and reports the end-to-end metrics.  With --trace 1 it
reports the per-layer metrics instead: CLI start-up, one CLI pass, and
in-process replays of passes with and without spans.  Either way it checks
every output, writes a results file under perfbench/results/, and prints
one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
# No pass or replay starts after this many seconds into a run, whatever
# --seconds says, so that a run ends well within three minutes.
RUN_LIMIT_S = 120.0
STARTUP_PROBES = 3
# Set-ups per input set; setup_s is the median over all of them.
SETUP_REPEATS = 3

# BENCHMARK.json names the metrics of the result line and their units.  The
# per-layer ones are those that every workload exercises, so none reads a
# constant zero; the traced run's results file holds every layer metric of
# replay.layer_metrics.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _CONTRACT = json.load(_fh)
END_TO_END = tuple(m["name"] for m in _CONTRACT["end_to_end"])
PER_LAYER = tuple(m["name"] for m in _CONTRACT["per_layer"])
UNITS = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"] + _CONTRACT["per_layer"]}


# --- set-up and the timed CLI passes -------------------------------------------


def set_up(wl, workload, seed, workdir, env):
    """Write every input set SETUP_REPEATS times, each time followed by one
    warm-up CLI process.

    Returns the set-up times and the warm-up command records.
    """
    def check_warmup(report):
        wl.expect(report["results"]["expected"]["witness_cost"] == 7.0, "warm-up: witness cost")

    warmup = wl.Step("gen", ["gen", "subdivided-triangle", "-o", "warmup.json"],
                     check=check_warmup)
    times, records = [], []
    for index in range(wl.INPUT_SETS):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(workdir, seed, index)
            records.append(wl.run_step(warmup, workdir, env))
            times.append(time.perf_counter() - start)
    return times, records


def another_round(durations, deadline, started) -> bool:
    """Start another pass only if one of median length still ends by the deadline."""
    now = time.perf_counter()
    return now + median(durations) <= deadline and now - started < RUN_LIMIT_S


def timed_run(wl, workload, seed, seconds, workdir, env, started):
    setup_times, warmups = set_up(wl, workload, seed, workdir, env)
    deadline = time.perf_counter() + seconds
    passes, durations = [], []
    while not passes or another_round(durations, deadline, started):
        start = time.perf_counter()
        steps = workload.steps(workdir, seed, len(passes))
        passes.append([wl.run_step(step, workdir, env) for step in steps])
        durations.append(time.perf_counter() - start)

    totals, commands, peaks = [], {}, []
    for records in passes:
        ran = [r for r in records if r.wall_s is not None]
        totals.append(sum(r.wall_s for r in ran))
        peaks.append(max((r.max_rss_kb for r in ran), default=0) / 1024.0)
        per_command = {}
        for r in ran:
            per_command[r.command] = per_command.get(r.command, 0.0) + r.wall_s
        for name, value in per_command.items():
            commands.setdefault(name + "_s", []).append(value)
    overheads = [r.wall_s - r.report_s for records in passes for r in records
                 if r.wall_s is not None and r.report_s is not None]

    records = warmups + [r for rs in passes for r in rs]
    problems = [f"{' '.join(r.args)}: {r.problem}" for r in records if r.problem]
    metrics = {
        "wall_s": median(totals),
        "setup_s": median(setup_times),
        "peak_rss_mb": median(peaks),
    }
    detail = {
        "passes": len(passes),
        "per_command_s": {name: median(values) for name, values in commands.items()},
        "cli_overhead_s": median(overheads),
        "error_rate": len(problems) / len(records),
        "setup_times_s": setup_times,
        "pass_wall_s": totals,
        "overhead_samples": len(overheads),
        "commands": [vars(r) for r in records],
    }
    return metrics, len(records), problems, detail


# --- the traced run -----------------------------------------------------------------


def traced_run(wl, workload, seed, seconds, workdir, env, started):
    import replay
    from spans import NullTracer, Tracer

    setup_times, records = set_up(wl, workload, seed, workdir, env)
    deadline = time.perf_counter() + seconds
    tracer = Tracer()

    tracer.pass_id = "cli"
    startups = []
    for _ in range(STARTUP_PROBES):
        with tracer.span("cli.startup"):
            proc = wl.run_process([sys.executable, "-c", "import kmetrics.cli"], workdir, env)
        startups.append(proc.wall_s)
        problem = None if proc.exit_code == 0 else f"exit {proc.exit_code}"
        records.append(wl.CommandRecord("startup", ["-c", "import kmetrics.cli"], proc.wall_s,
                                        proc.exit_code, proc.max_rss_kb, None, problem))
    cli_pass = []
    for step in workload.steps(workdir, seed, 0):
        with tracer.span("cli." + step.command):
            cli_pass.append(wl.run_step(step, workdir, env))
    records += cli_pass
    problems = [f"{' '.join(r.args)}: {r.problem}" for r in records if r.problem]
    attempted = len(records)

    run_pass = replay.REPLAYS[workload.name]
    pairs, oracle_cases = [], []
    while not pairs or another_round([sum(p) for p in pairs], deadline, started):
        index = len(pairs)
        walls = {}
        for tracing in (index % 2 == 1, index % 2 == 0):  # alternate which goes first
            tracer.pass_id = index
            r = replay.Replay(tracer if tracing else NullTracer(), workdir)
            start = time.perf_counter()
            run_pass(r, seed, index)
            walls[tracing] = time.perf_counter() - start
            attempted += r.attempted
            problems += r.problems
            if tracing:
                oracle_cases += r.oracle_cases
        pairs.append((walls[False], walls[True]))

    problems += replay.oracle_check(oracle_cases)
    attempted += len(oracle_cases)

    layers, percentiles = replay.layer_metrics(tracer, list(range(len(pairs))))
    layers["cli.startup_s"] = median(startups)
    layers["cli.overhead_s"] = median([r.wall_s - r.report_s for r in cli_pass
                                       if r.wall_s is not None and r.report_s is not None])
    layers["replay.wall_s"] = median([plain for plain, _ in pairs])
    layers["trace.overhead_s"] = median([traced - plain for plain, traced in pairs])
    metrics = {name: layers[name] for name in PER_LAYER}
    detail = {
        "layers": layers,
        "replay_pairs_s": pairs,
        "tail_percentiles": percentiles,
        "oracle_cases": len(oracle_cases),
        "error_rate": len(problems) / attempted,
        "setup_times_s": setup_times,
        "commands": [vars(r) for r in records],
        "spans": tracer.spans,
    }
    return metrics, attempted, problems, detail


# --- reporting ----------------------------------------------------------------------


def machine_info(np_version: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np_version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "kmetrics" / "__init__.py").is_file():
        print(f"error: no kmetrics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    workdir = RESULTS_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, problems, detail = run(
            wl, workload, args.seed, args.seconds, workdir, wl.cli_env(ROOT), started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(np.__version__, args.seed),
        "result": result,
        "problems": problems,
        "detail": detail,
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    for problem in problems[:20]:
        print("FAILED", problem)
    shown = detail["layers"] if args.trace else {
        **metrics, **detail["per_command_s"], "cli_overhead_s": detail["cli_overhead_s"]}
    for name, value in shown.items():
        print(f"{name:40s} {value:12.6g} {UNITS.get(name, '')}")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
