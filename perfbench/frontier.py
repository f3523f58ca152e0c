"""One-shot frontier report: how large an instance fits in a time budget.

Run from the repository root:

    python3 perfbench/frontier.py

This is not a workload and nothing gates on it.  It re-measures the
baseline rows that fit in a few seconds (printed next to the figures the
roadmap recorded for them) and, for `check_strong` (k=3, exhaustive,
jobs 1) and `frechet_embed` (k=3 and k=2, jobs 1), the largest n whose call
finishes within BUDGET_S seconds.  Tables come from `random_strong_metric`
with seed 1, volume tables from a Gaussian cloud in R^5 with seed 1.  The
report is written to perfbench/results/frontier.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
from kmetrics import (  # noqa: E402
    PointCloud,
    check_strong,
    check_weak,
    corpus,
    frechet_embed,
    volume_metric,
    write_kmetric,
)

import workloads as wl  # noqa: E402

BUDGET_S = 10.0  # seconds per call


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def volume_table(points: int, k: int):
    cloud = np.random.default_rng(1).standard_normal((points, 5))
    return volume_metric(PointCloud(cloud), k)


def frontier(label, fn, k, start_n):
    """Grow n until one call exceeds BUDGET_S; the last n within it is the frontier."""
    steps, best = [], None
    n = start_n
    while True:
        d = corpus.random_strong_metric(n, k, 1).payload
        seconds = timed(fn, d)
        steps.append({"n": n, "seconds": seconds})
        print(f"  {label} k={k} n={n}: {seconds:.2f} s", flush=True)
        if seconds > BUDGET_S:
            return {"name": label, "k": k, "largest_n_within_budget": best, "steps": steps}
        best = n
        n += 1


def main() -> int:
    rows = []

    def row(name, roadmap_s, seconds):
        rows.append({"name": name, "seconds": seconds, "roadmap_seconds": roadmap_s})
        print(f"{name:45s} {seconds:8.2f} s   (roadmap {roadmap_s} s)", flush=True)

    strong11 = corpus.random_strong_metric(11, 3, 1).payload
    row("check_strong n=11 k=3 jobs=1", 3.8, timed(check_strong, strong11, jobs=1))
    row("check_strong n=11 k=3 jobs=2", 5.4, timed(check_strong, strong11, jobs=2))
    vol40 = volume_table(40, 3)
    row("check_weak n=40 k=3 (volume table)", 1.2, timed(check_weak, vol40))
    row("check_weak n=30 k=4 (volume table)", 3.4, timed(check_weak, volume_table(30, 4)))
    work = run.RESULTS_DIR / "frontier-work"
    work.mkdir(parents=True, exist_ok=True)
    write_kmetric(vol40, str(work / "vol40.json"))
    try:
        proc = wl.run_process(wl.kmetrics_argv(["verify", "vol40.json"]), work,
                              wl.cli_env(run.ROOT))
    finally:
        shutil.rmtree(work)
    row("CLI verify (weak) n=40 k=3, whole process", 1.5, proc.wall_s)

    print(f"frontiers within {BUDGET_S:g} s per call:", flush=True)
    frontiers = [
        frontier("check_strong exhaustive jobs=1",
                 lambda d: check_strong(d, exhaustive=True, jobs=1), 3, 7),
        frontier("frechet_embed jobs=1", lambda d: frechet_embed(d, jobs=1), 3, 6),
        frontier("frechet_embed jobs=1", lambda d: frechet_embed(d, jobs=1), 2, 8),
    ]
    for f in frontiers:
        print(f"  {f['name']} k={f['k']}: largest n = {f['largest_n_within_budget']}")

    report = {
        "machine": run.machine_info(np.__version__, 1),
        "budget_s": BUDGET_S,
        "baseline_rows": rows,
        "frontiers": frontiers,
    }
    out = run.RESULTS_DIR / "frontier.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report: {out.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
