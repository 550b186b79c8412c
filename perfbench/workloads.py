"""Workload inputs, jobs and output checks for the annkh benchmark.

Each workload is a fixed list of CLI jobs run in process through
``annkh.cli.main``.  Inputs are written as diagram JSON into a work
directory; the program sees nothing but those files and its argv.

Run as a script it performs one set-up and exits, which is what the
benchmark times as ``setup_s``::

    python3 perfbench/workloads.py --workload torus_snf --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference"

if not (SRC / "annkh" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no annkh source tree at {SRC}")
sys.path.insert(0, str(SRC))

import annkh  # noqa: E402
from annkh import cli, corpus  # noqa: E402
from annkh.diagram import save_diagram  # noqa: E402

if Path(annkh.__file__).resolve().parent != SRC / "annkh":
    raise SystemExit(f"perfbench: imported annkh from {annkh.__file__}, not {SRC}")

NAMES = ("torus_snf", "lee_localized", "cube_generic", "corpus_sweep")

# The ROADMAP baseline table is measured on T(2,k) = braid_closure([1]*k, 2);
# k = 7 is the row the torus_snf and cube_generic anchors reproduce.
ANCHOR_K = 7
TINY_K = 3

# Seeded 3-braids are kept small on purpose.  Their cost varies a lot with
# the word: at 8 crossings `homology --ring int` took 2.0-22.4 s over six
# seeds, and words on one generator (a split link) cost 3-10x the median
# at every size.  One large seeded braid would make wall_s a function of
# the seed, so each workload draws several small ones next to a fixed
# anchor that sets the cost: fresh inputs in every run, steady timings.
SEEDED = {
    "torus_snf": (2, 6),  # (how many braids, crossings each)
    "lee_localized": (4, 4),
    "cube_generic": (4, 5),
}

# T(2,5) and two fixed 6-crossing 3-braids put the cost of lee_localized
# on fixed inputs (about 2.4 s of its 3.2 s per pass): (label, word, strands).
LEE_FIXED = (
    ("T(2,5)", [1] * 5, 2),
    ("braid3_alt6", [1, -2] * 3, 3),
    ("braid3_pos6", [1, 2] * 3, 3),
)

CORPUS_VERBS = (
    ("homology", "int"),
    ("homology", "gf2"),
    ("homology", "rat"),
    ("homology", "alpha"),
    ("verify", "generic"),
    ("lee-rank", None),
    ("canonical", None),
)
TL_SHAPES = ((1, 1), (2, 2), (3, 1), (2, 4))

VERIFY_CHECKS = ("d_squared", "grading", "splitting", "functoriality", "beta")

# Per-job timeouts, each well above the slowest job of the workload when
# the benchmark was written (4.5 s, 1.3 s, 4.3 s, 0.4 s on a 2-vCPU Xeon).
TIMEOUT_S = {
    "torus_snf": 60.0,
    "lee_localized": 30.0,
    "cube_generic": 60.0,
    "corpus_sweep": 20.0,
}


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    timeout_s: float


@dataclass(frozen=True)
class Outcome:
    rc: object  # exit code, or None when the job raised or timed out
    stdout: str
    error: str = ""  # why the job did not return normally


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list
    inputs: list  # one line per input, printed by the benchmark
    check: object  # outcomes -> {job id: reason} for each failed job


def random_braid(rng, crossings):
    """A 3-strand braid word with letters drawn from +-1, +-2."""
    return [rng.choice((1, -1, 2, -2)) for _ in range(crossings)]


def closure_components(word, strands):
    """Cycles of the braid's permutation, computed without annkh."""
    perm = list(range(strands))
    for letter in word:
        j = abs(letter) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    seen, cycles = set(), 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return cycles


def write_braid(workdir, name, word, strands):
    path = workdir / f"{name}.json"
    save_diagram(corpus.braid_closure(word, strands), str(path))
    return str(path)


def _seeded(rng, workdir, count, crossings):
    out = []
    for k in range(count):
        word = random_braid(rng, crossings)
        out.append((f"seeded{k}", word, write_braid(workdir, f"seeded{k}", word, 3)))
    return out


def prepare(name, seed, workdir=None, tiny=False):
    """Write the workload's inputs and return its jobs and checks.

    ``tiny`` shrinks every input to three crossings (and corpus_sweep to
    two corpus files) for the benchmark's own tests.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    workdir = fresh_dir(Path(workdir) if workdir else WORK / name)
    rng = random.Random(f"{name}:{seed}")
    return _PREPARE[name](name, seed, workdir, rng, tiny)


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _prepare_torus(name, seed, workdir, rng, tiny):
    k = TINY_K if tiny else ANCHOR_K
    count, crossings = SEEDED[name]
    diagrams = [(f"T(2,{k})", [1] * k, write_braid(workdir, f"t2_{k}", [1] * k, 2))]
    diagrams += _seeded(rng, workdir, count, TINY_K if tiny else crossings)
    jobs = [
        Job(f"{label}:{ring}", ("homology", path, "--ring", ring), TIMEOUT_S[name])
        for label, _, path in diagrams
        for ring in ("int", "gf2")
    ]
    anchor = f"T(2,{k})"
    reference = json.loads((REFERENCE / "anchors.json").read_text())[anchor]

    def check(outcomes):
        bad = {}
        for label, _, _ in diagrams:
            zi, f2 = outcomes[f"{label}:int"], outcomes[f"{label}:gf2"]
            reason = uct_mismatch(zi.stdout, f2.stdout) if zi.rc == f2.rc == 0 else None
            if reason:
                bad[f"{label}:int"] = bad[f"{label}:gf2"] = reason
        for ring in ("int", "gf2"):
            if outcomes[f"{anchor}:{ring}"].stdout != reference[ring]:
                bad[f"{anchor}:{ring}"] = "output differs from the reference bytes"
        return bad

    return Workload(name, seed, jobs, _describe(diagrams), check)


def _prepare_lee(name, seed, workdir, rng, tiny):
    count, crossings = SEEDED[name]
    fixed = ((f"T(2,{TINY_K})", [1] * TINY_K, 2),) if tiny else LEE_FIXED
    diagrams = [
        (label, word, write_braid(workdir, f"fixed{n}", word, strands))
        for n, (label, word, strands) in enumerate(fixed)
    ]
    diagrams += _seeded(rng, workdir, count, TINY_K if tiny else crossings)
    strands = {label: s for label, _, s in fixed}
    jobs = [Job(label, ("lee-rank", path), TIMEOUT_S[name]) for label, _, path in diagrams]
    expected = {
        label: f"{2 ** closure_components(word, strands.get(label, 3))} PASS\n"
        for label, word, _ in diagrams
    }

    def check(outcomes):
        return {
            label: f"expected {expected[label]!r}"
            for label in expected
            if outcomes[label].stdout != expected[label]
        }

    return Workload(name, seed, jobs, _describe(diagrams), check)


def _prepare_cube(name, seed, workdir, rng, tiny):
    k = TINY_K if tiny else ANCHOR_K
    count, crossings = SEEDED[name]
    diagrams = [(f"T(2,{k})", [1] * k, write_braid(workdir, f"t2_{k}", [1] * k, 2))]
    diagrams += _seeded(rng, workdir, count, TINY_K if tiny else crossings)
    jobs = [
        Job(label, ("verify", path, "--ring", "generic"), TIMEOUT_S[name])
        for label, _, path in diagrams
    ]
    expected = "".join(f"{c} PASS\n" for c in VERIFY_CHECKS)

    def check(outcomes):
        return {
            label: "a check line is missing or says FAIL"
            for label, _, _ in diagrams
            if outcomes[label].stdout != expected
        }

    return Workload(name, seed, jobs, _describe(diagrams), check)


def corpus_jobs(workdir, tiny=False):
    """Every verb on every corpus file, plus tl-rank; ids match the reference."""
    files = sorted((ROOT / "corpus").glob("*.json"))
    if tiny:
        files = files[:2]
    jobs = []
    for src in files:
        dst = Path(workdir) / src.name
        shutil.copyfile(src, dst)
        for verb, ring in CORPUS_VERBS:
            argv = (verb, str(dst)) + (("--ring", ring) if ring else ())
            label = f"{verb}:{ring}:{src.stem}" if ring else f"{verb}:{src.stem}"
            jobs.append(Job(label, argv, TIMEOUT_S["corpus_sweep"]))
    for n, m in TL_SHAPES[:1] if tiny else TL_SHAPES:
        argv = ("tl-rank", "--n", str(n), "--m", str(m))
        jobs.append(Job(f"tl-rank:{n},{m}", argv, TIMEOUT_S["corpus_sweep"]))
    return jobs, [f.stem for f in files]


def _prepare_corpus(name, seed, workdir, rng, tiny):
    jobs, stems = corpus_jobs(workdir, tiny)
    # The seed only orders the jobs: outputs must not depend on what ran before.
    rng.shuffle(jobs)
    reference = json.loads((REFERENCE / "corpus_sweep.json").read_text())

    def check(outcomes):
        bad = {}
        for job in jobs:
            rc, stdout = reference[job.id]
            got = outcomes[job.id]
            if (got.rc, got.stdout) != (rc, stdout):
                bad[job.id] = "exit code or stdout differs from the reference"
        return bad

    order = ", ".join(job.id for job in jobs[:3])
    inputs = [f"corpus files: {' '.join(stems)}", f"job order starts: {order}, ..."]
    return Workload(name, seed, jobs, inputs, check)


_PREPARE = {
    "torus_snf": _prepare_torus,
    "lee_localized": _prepare_lee,
    "cube_generic": _prepare_cube,
    "corpus_sweep": _prepare_corpus,
}


def _describe(diagrams):
    return [f"{label}: braid word {word}" for label, word, _ in diagrams]


def parse_table(text):
    """homology TSV -> {(i, q, a): (rank, [torsion orders])}."""
    lines = text.splitlines()
    if not lines or lines[0] != "i\tq\ta\trank\ttorsion":
        raise ValueError("not a homology table")
    table = {}
    for line in lines[1:]:
        i, q, a, rank, tors = line.split("\t")
        orders = [] if tors == "-" else [int(t) for t in tors.split(",")]
        table[(int(i), q, a)] = (int(rank), orders)
    return table


def uct_mismatch(int_text, gf2_text):
    """None when dim H^i(F2) = free^i(Z) + t2^i + t2^(i+1) in every
    (i, q, a), where t2^i counts even torsion summands of H^i(Z);
    otherwise a description of the first offending grading."""
    try:
        z, f2 = parse_table(int_text), parse_table(gf2_text)
    except ValueError as e:
        return f"unreadable table: {e}"

    def even(i, q, a):
        return sum(1 for t in z.get((i, q, a), (0, []))[1] if t % 2 == 0)

    below = {(i - 1, q, a) for i, q, a in z}  # where H^i(Z) torsion shows in F2
    for i, q, a in sorted(set(z) | set(f2) | below):
        lhs = f2.get((i, q, a), (0, []))[0]
        rhs = z.get((i, q, a), (0, []))[0] + even(i, q, a) + even(i + 1, q, a)
        if lhs != rhs:
            return f"UCT fails at (i,q,a)=({i},{q},{a}): {lhs} != {rhs}"
    return None


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job, deadline=None):
    """Run one CLI job in process with stdout captured and a timeout.

    ``deadline`` (a perf_counter value) caps the timeout so that a run
    never outlives its own budget; a job with no time left is recorded
    as timed out without being started.
    """
    budget = job.timeout_s
    if deadline is not None:
        budget = min(budget, deadline - time.perf_counter())
    if budget <= 0:
        return Outcome(None, "", "timeout: the run's deadline had passed")
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
        return Outcome(rc, out.getvalue(), err.getvalue())
    except JobTimeout:
        return Outcome(None, out.getvalue(), f"timeout after {budget:.1f} s")
    except SystemExit as e:  # argparse rejects its argv this way
        return Outcome(e.code, out.getvalue(), err.getvalue())
    except Exception:  # a crashing job is a failed job; the run goes on
        return Outcome(None, out.getvalue(), traceback.format_exc(limit=3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def failures(workload, outcomes):
    """{job id: reason} for every job that exited nonzero, raised, timed
    out or failed its output check."""
    bad = {}
    for job in workload.jobs:
        o = outcomes[job.id]
        if o.rc != 0:
            lines = o.error.strip().splitlines()
            bad[job.id] = lines[-1] if lines else f"exit code {o.rc}"
    for job_id, reason in workload.check(outcomes).items():
        bad.setdefault(job_id, reason)
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description="Write one workload's inputs.")
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    prepare(args.workload, args.seed, tiny=args.tiny)


if __name__ == "__main__":
    main()
