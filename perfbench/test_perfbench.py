"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads as w

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", w.NAMES)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_run_emits_every_metric_and_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _bindings():
    """Every attribute of every annkh module and traced class, by identity."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "annkh"]
    for layer, classes in spans.METHODS.items():
        owners += [getattr(sys.modules[f"annkh.{layer}"], c) for c in classes]
    return {(id(o), attr): obj for o in owners for attr, obj in vars(o).items()}


def test_traced_run_restores_every_wrapped_function():
    from annkh import complexes, homology
    from annkh.diagram import AnnularDiagram

    before = _bindings()
    originals = (complexes.cube_edge_pairs, homology.smith_normal_form, AnnularDiagram.resolve)
    workload = w.prepare("torus_snf", 3, tiny=True)
    tracer = spans.Tracer()
    with tracer:
        # the wrappers sit on the names the callers look up
        assert complexes.cube_edge_pairs is not originals[0]
        assert homology.smith_normal_form is not originals[1]
        assert AnnularDiagram.resolve is not originals[2]
        run.run_pass(workload, time.perf_counter() + 60, run.Tally(), tracer)
    names = {s[0] for s in tracer.spans}
    assert {"diagram.cube_edge_pairs", "homology.smith_normal_form",
            "diagram.AnnularDiagram.resolve", "cli.main"} <= names
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_children():
    spans_ = [
        ["outer", 0.0, 10.0, -1, "j"],
        ["inner", 1.0, 4.0, 0, "j"],
        ["inner", 5.0, 6.0, 0, "j"],
        ["inner", 5.2, 5.5, 2, "j"],  # nested in a span of the same name
    ]
    incl, own, calls = spans.summarize(spans_)
    assert incl == {"outer": 10.0, "inner": 4.0}
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(4.0)
    assert calls["inner"] == 3


def test_uct_check_catches_a_wrong_table():
    ref = json.loads((w.REFERENCE / "anchors.json").read_text())["T(2,3)"]
    assert w.uct_mismatch(ref["int"], ref["gf2"]) is None
    # a wrong rank, and a missing row that only Z-torsion one degree up predicts
    for old, new in (("2\t-7\t0\t1", "2\t-7\t0\t2"), ("2\t-7\t0\t1\t-\n", "")):
        wrong = ref["gf2"].replace(old, new)
        assert wrong != ref["gf2"]
        assert w.uct_mismatch(ref["int"], wrong) is not None


def test_timeout_counts_as_a_failed_job(tmp_path):
    workload = w.prepare("cube_generic", 1, tmp_path, tiny=True)
    job = w.Job(workload.jobs[0].id, workload.jobs[0].argv, 1e-4)
    outcomes = {j.id: w.run_job(job if j.id == job.id else j) for j in workload.jobs}
    assert outcomes[job.id].rc is None and "timeout" in outcomes[job.id].error
    assert set(w.failures(workload, outcomes)) == {job.id}


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "torus_snf", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
