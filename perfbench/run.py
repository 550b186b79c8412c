"""Benchmark of the annkh pipeline: one workload per run.

    python3 perfbench/run.py --workload torus_snf --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics: wall_s (median
time of one pass over the workload's jobs), setup_s (median of several
fresh-interpreter set-ups) and peak_rss_mb (this process).  With
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``spans.layer_metrics`` plus the tracing overhead.
Every job's output is checked; failed, crashed and timed-out jobs count
in ``failed``.  ``--workload all`` runs each workload in its own process.
The last line of stdout is one JSON object.

wall_s and setup_s are in reference seconds.  On a shared 2-vCPU host
the CPU speed drifted by up to 2x over tens of seconds.  So a fixed
piece of pure-Python work (``calibrate``) runs between stretches of
timed work, and a pass counts as ``seconds * REFERENCE_S / median
calibration seconds``: the time it would take on a host where the
calibration takes REFERENCE_S.  The raw seconds are printed next to
them.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import spans
import workloads as w  # exits with a message where src/annkh is missing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
# A run must end within 180 s; no job starts after this budget is spent.
RUN_BUDGET_S = 150.0
# Calibrate again at the first job boundary after this much timed work.
SEGMENT_S = 0.5
# About what calibrate() takes on a 2-vCPU Xeon host at full speed.
REFERENCE_S = 0.06

_RNG = random.Random(0)
_CALIBRATION_MATRIX = [[_RNG.randint(-3, 3) for _ in range(40)] for _ in range(40)]


def calibrate():
    """Seconds taken by fixed work like annkh's own: elimination over Q
    on a fixed 40x40 matrix, then building dicts keyed by tuples.  It
    calls no annkh code, so a change to the program leaves it alone."""
    start = time.perf_counter()
    rows = [[Fraction(v) for v in row] for row in _CALIBRATION_MATRIX]
    for c in range(6):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    counts = {}
    for i in range(30000):
        key = (i % 97, i % 89, i // 7)
        counts[key] = counts.get(key, 0) + i
    groups = {}
    for (a, b, _), v in counts.items():
        if v % 3 == 0:
            groups.setdefault(a, []).append(b)
    return time.perf_counter() - start


class Clock:
    """Timed stretches, with calibrations before, between and after them.

    Reference seconds scale the raw ones by REFERENCE_S over the median
    calibration, so one slow calibration does not skew the pass."""

    def __init__(self):
        self.calibrations = [calibrate()]
        self.stretches = []

    def add(self, seconds):
        self.stretches.append(seconds)
        self.calibrations.append(calibrate())

    @property
    def scale(self):
        return REFERENCE_S / median(self.calibrations)

    @property
    def raw(self):
        return sum(self.stretches)

    @property
    def ref(self):
        return self.raw * self.scale


def timed_setups(workload, seed, tiny):
    """Fresh interpreters that import annkh and write the inputs, one
    stretch of the returned Clock each."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--tiny"] if tiny else []
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60)
        clock.add(time.perf_counter() - start)
    return clock


class Tally:
    """Jobs attempted and failed over a run, with why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, jobs, bad):
        self.attempted += jobs
        self.failed += len(bad)
        self.reasons += [f"{job_id}: {why}" for job_id, why in bad.items()]


def run_pass(workload, deadline, tally, tracer=None):
    """Run every job once; returns the pass's Clock."""
    outcomes = {}
    clock = Clock()
    start = time.perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.id
        outcomes[job.id] = w.run_job(job, deadline)
        if time.perf_counter() - start >= SEGMENT_S or job is workload.jobs[-1]:
            clock.add(time.perf_counter() - start)
            start = time.perf_counter()
    tally.add(len(outcomes), w.failures(workload, outcomes))
    return clock


def another_pass(start, took, seconds, deadline):
    """Whether a pass of median length, started now, would end within
    half a pass of the measuring window, and before the run's deadline."""
    now = time.perf_counter()
    return now - start + median(took) / 2 <= seconds and now < deadline


def measure(workload, seconds, deadline, tally):
    clocks, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        clocks.append(run_pass(workload, deadline, tally))
        took.append(time.perf_counter() - t0)
        if not another_pass(start, took, seconds, deadline):
            return clocks


def measure_traced(workload, seconds, deadline, tally):
    """Alternate untraced and traced passes; per-layer medians and overhead."""
    plain, traced, per_pass, took = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(workload, deadline, tally).raw)
        tracer = spans.Tracer()
        with tracer:
            wall = run_pass(workload, deadline, tally, tracer).raw
        traced.append(wall)
        per_pass.append(spans.layer_metrics(tracer, wall))
        took.append(time.perf_counter() - t0)
        if not another_pass(start, took, seconds, deadline):
            break
    metrics = {
        name: (median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return metrics, tracer, len(traced)


def run_one(args):
    deadline = time.perf_counter() + RUN_BUDGET_S
    setup = None if args.trace else timed_setups(args.workload, args.seed, args.tiny)
    workload = w.prepare(args.workload, args.seed, tiny=args.tiny)
    tally = Tally()
    print(f"workload {workload.name} seed {workload.seed} trace {args.trace}")
    for line in workload.inputs:
        print(f"  input {line}")
    if args.trace:
        metrics, tracer, passes = measure_traced(workload, args.seconds, deadline, tally)
        dump = w.WORK / workload.name / "spans.json"
        dump.write_text(json.dumps(tracer.spans))
        print(f"  {passes} traced passes of {len(workload.jobs)} jobs; last spans in {dump}")
        print("  per-layer times are raw seconds")
    else:
        clocks = measure(workload, args.seconds, deadline, tally)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # A calibration right after a child process exits reads noisy, so
        # set-ups are scaled by the median calibration of the whole run.
        host = median(x for c in clocks + [setup] for x in c.calibrations)
        metrics = {
            "wall_s": (median(c.ref for c in clocks), "s"),
            "setup_s": (median(setup.stretches) * REFERENCE_S / host, "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        print(f"  {len(clocks)} passes of {len(workload.jobs)} jobs")
        print(f"  raw wall_s {median(c.raw for c in clocks):.6g} s, raw setup_s "
              f"{median(setup.stretches):.6g} s, calibration "
              f"{host:.4g} s (reference {REFERENCE_S} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  fail_ratio {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} jobs)")
    for reason in tally.reasons[:10]:
        print(f"  FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh process of its own, as a single run does."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in w.NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for metric, v in one["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = v
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=w.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="3-crossing inputs, for self-tests")
    args = p.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
