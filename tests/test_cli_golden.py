"""Byte-for-byte CLI output over the whole corpus.

Runs 17 jobs on each of the 13 diagrams in ``corpus/`` through
``annkh.cli.main`` and compares exit code, stdout and stderr with
``tests/data/cli_golden.json``.  A refactor that keeps the mathematics
keeps every byte here.

The ``--ring qh`` rows record today's Q[h] tables, which slice the
differential by quantum degree and so miss the h-torsion (ROADMAP open
item 1).  They will change, on purpose, when the graded elimination for
Q[h] lands; regenerate the file then with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from annkh.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

VERBS = (
    ["homology", "--ring", "int"],
    ["homology", "--ring", "gf2"],
    ["homology", "--ring", "gf3"],
    ["homology", "--ring", "rat"],
    ["homology", "--ring", "qh"],
    ["homology", "--ring", "alpha"],
    ["homology", "--ring", "alpha:1,3"],
    ["homology", "--ring", "alpha:1,1"],
    ["homology", "--format", "json"],
    ["homology", "--variant", "planar"],
    ["verify"],
    ["verify", "--ring", "generic"],
    ["lee-rank"],
    ["canonical"],
    ["verify", "--ring", "alpha:1,3"],
    ["verify", "--variant", "planar", "--ring", "gf3"],
    ["homology", "--variant", "planar", "--ring", "alpha:1,3"],
)


def jobs():
    names = sorted(p.name for p in (ROOT / "corpus").glob("*.json"))
    return [[v[0], f"corpus/{name}", *v[1:]] for name in names for v in VERBS]


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@functools.cache
def load_golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_job():
    assert len(jobs()) == 13 * len(VERBS) == 221
    assert set(load_golden()) == {tuple(j) for j in jobs()}


@pytest.mark.parametrize("argv", jobs(), ids=" ".join)
def test_cli_output_is_unchanged(argv):
    assert run_job(argv) == load_golden()[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = [run_job(j) for j in jobs()]
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} jobs to {GOLDEN}")
