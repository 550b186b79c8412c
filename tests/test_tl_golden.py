"""Byte-for-byte output of the Temperley-Lieb verbs.

Runs ``tl-eval`` on every reduced (n, m)-tangle with n, m <= 3 over
seven rings, and ``tl-rank`` on eight shapes, through ``annkh.cli.main``,
and compares exit code, stdout and stderr with
``tests/data/tl_golden.json``.  Every ring spins, Q[h] (``qh``) as the
others; equal parameters (``alpha:1,1``) leave the annular theory no
idempotent basis, so their exit-2 rows pin that error text.  Regenerate the
file, only when the output changes on purpose, with::

    PYTHONPATH=src python tests/test_tl_golden.py
"""

import functools
import json
from pathlib import Path

import pytest

from annkh import tl
from test_cli_golden import run_job

GOLDEN = Path(__file__).resolve().parent / "data" / "tl_golden.json"

RINGS = ("generic", "int", "gf3", "alpha", "alpha:1,3", "qh", "alpha:1,1")
SHAPES = [(n, m) for n in range(4) for m in range(4) if (n + m) % 2 == 0]
RANK_SHAPES = ((1, 1), (2, 2), (3, 1), (2, 4), (1, 3), (3, 3), (4, 2), (4, 4))


def tangle_args(t):
    pairs = "[" + ",".join(f"({a},{b})" for a, b in t.pairs) + "]"
    args = [pairs, "--n", str(t.n), "--m", str(t.m)]
    if t.dots:
        args += ["--dots", ",".join(str(d) for d in t.dots)]
    return args


def jobs():
    out = []
    for n, m in SHAPES:
        for t in tl.enumerate_reduced(n, m):
            for ring in RINGS:
                out.append(["tl-eval", *tangle_args(t), "--ring", ring])
    for n, m in RANK_SHAPES:
        out.append(["tl-rank", "--n", str(n), "--m", str(m)])
    return out


@functools.cache
def load_golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_job():
    # 71 reduced tangles: 1 + 2 + 2 + 2 + 8 + 8 + 8 + 40
    assert len(jobs()) == 71 * len(RINGS) + len(RANK_SHAPES) == 505
    assert set(load_golden()) == {tuple(j) for j in jobs()}


@pytest.mark.parametrize("argv", jobs(), ids=" ".join)
def test_tl_output_is_unchanged(argv):
    assert run_job(argv) == load_golden()[tuple(argv)]


if __name__ == "__main__":
    rows = [run_job(j) for j in jobs()]
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} jobs to {GOLDEN}")
