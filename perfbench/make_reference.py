"""Capture the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Writes ``reference/anchors.json`` (homology tables of the T(2,k) anchors
over int and gf2) and ``reference/corpus_sweep.json`` (exit code and
stdout of every corpus_sweep job).  The files in the repository were
captured from the commit that added the benchmark; recapture only when a change is meant to
alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json

import workloads as w


def capture():
    workdir = w.fresh_dir(w.WORK / "reference")
    anchors = {}
    for k in (w.TINY_K, w.ANCHOR_K):
        path = w.write_braid(workdir, f"t2_{k}", [1] * k, 2)
        anchors[f"T(2,{k})"] = {
            ring: w.run_job(w.Job("", ("homology", path, "--ring", ring), 600)).stdout
            for ring in ("int", "gf2")
        }
    jobs, _ = w.corpus_jobs(workdir)
    sweep = {}
    for job in jobs:
        o = w.run_job(job)
        sweep[job.id] = [o.rc, o.stdout]
    w.REFERENCE.mkdir(exist_ok=True)
    for name, data in (("anchors", anchors), ("corpus_sweep", sweep)):
        text = json.dumps(data, indent=1, sort_keys=True) + "\n"
        (w.REFERENCE / f"{name}.json").write_text(text)


if __name__ == "__main__":
    capture()
