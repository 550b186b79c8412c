"""Batch command-line interface.

Verbs: homology, verify, invariance, lee-rank, canonical, tl-eval,
tl-rank.  Exit status 0 on success or pass, 1 on a failed check, 2 on
input errors.  Output is byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from fractions import Fraction

from . import complexes, homology, tl, tqft
from .diagram import (
    MAX_EXPONENT,
    all_orientations,
    bounded_fraction,
    load_diagram,
    nudged,
)
from .errors import AnnkhError, InvariantError
from .ring import GENERIC, GF, INT, LEE, QH, RAT, AlphaEval, alpha_eval


class InputError(AnnkhError):
    """A bad argument or input file; the CLI exits 2."""


def parse_ring(text):
    if text == "generic":
        return GENERIC
    if text == "int":
        return INT
    if text == "rat":
        return RAT
    if text == "qh":
        return QH
    if text.startswith("gf"):
        try:
            return GF(int(text[2:]))
        except ValueError as e:
            raise InputError(f"bad prime field {text!r}: {e}")
    if text == "alpha":
        return LEE
    if text.startswith("alpha:"):
        parts = text[len("alpha:"):].split(",")
        if len(parts) != 2:
            raise InputError("alpha ring needs two values, alpha:a0,a1")
        try:
            return alpha_eval(*map(bounded_fraction, parts))
        except ValueError as e:
            raise InputError(f"bad alpha values: {e}")
        except ZeroDivisionError:
            raise InputError(f"bad alpha values: a zero denominator in {text!r}")
    raise InputError(f"unknown ring {text!r}")


def pick_variant(ring, variant_flag):
    """Whether ``--variant`` picks the planar theory; the ring picks
    everything else."""
    planar = variant_flag == "planar"
    if not planar and isinstance(ring, AlphaEval) and not ring.distinct:
        raise InputError(
            f"ring {ring} has equal parameters a0 = a1, so the annular theory "
            "has no idempotent basis over it; --variant planar works, as do "
            "distinct values"
        )
    return planar


def nonnegative_int(text):
    """The argparse type of a count of boundary points."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def load(path, nudge=False):
    try:
        d = load_diagram(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: {e}")
    if d.is_valid():
        return d
    problems = "; ".join(str(v) for v in d.validate())
    if nudge:
        t = Fraction(1, 8)
        for _ in range(8):
            try:
                rotated = nudged(d, t)
            except ValueError:
                raise InputError(
                    f"{path}: {problems}; --nudge cannot rotate it: a rotated "
                    f"coordinate is over {MAX_EXPONENT + 1} digits"
                )
            if rotated.is_valid():
                return rotated
            t /= 2
    raise InputError(f"{path}: {problems}")


def emit_rows(columns, rows, fmt):
    if fmt == "tsv":
        lines = ["\t".join(columns)]
        for row in rows:
            lines.append("\t".join(str(x) for x in row))
        return "\n".join(lines)
    return json.dumps(
        {"columns": list(columns), "rows": [list(r) for r in rows]},
        sort_keys=True,
    )


def cmd_homology(args):
    ring = parse_ring(args.ring)
    planar = pick_variant(ring, args.variant)
    d = load(args.diagram, args.nudge)
    if not ring.is_euclidean:
        raise InputError(
            "homology needs a Euclidean ring; use verify for generic checks"
        )
    h = homology.homology(complexes.build_complex(d, ring, planar))
    rows = homology.poincare_table(h)
    print(emit_rows(("i", "q", "a", "rank", "torsion"), rows, args.format))
    return 0


def _verify_generic(d):
    """The five generic checks, on the planar complex, whose differential
    is d_beta = d0 + d2; d0 alone is the annular differential.  The
    entries of each distinct planar edge map, read off the placement
    memo of the build, are split once by the annular-degree shift
    between their codomain and domain words: shift 0 is d0, which
    ``functoriality`` compares with the map placed from the annular
    local table on the same slots, and shift +2 is d2.  Any other shift
    raises ``InvariantError``, so ``splitting`` passes whenever the
    checks run."""
    placements = {}
    c = complexes.build_complex(d, GENERIC, planar=True, placements=placements)
    annular, annular_maps = {}, {}

    def annular_space(space):
        flags = tuple((s.essential, s.essential_index) for s in space.slots)
        if flags not in annular:
            annular[flags] = tqft.make_space(GENERIC, flags)
        return annular[flags]

    fun_ok = True
    # the memo maps each placement key to its map, and each placement
    # shape to the entry dict its maps share
    for key, m in placements.items():
        if not isinstance(m, tqft.LinearMap):
            continue
        _, _, dom_inv, cod_inv, pairs, _ = key
        placed = tqft._embed(
            annular_space(m.domain), annular_space(m.codomain),
            dom_inv, cod_inv, pairs, memo=annular_maps,
        )
        cod, dom = m.codomain.bidegrees, m.domain.bidegrees
        d0, bad = {}, set()
        for (row, col), v in m.entries.items():
            shift = cod[row][1] - dom[col][1]
            if shift == 0:
                d0[(row, col)] = v
            elif shift != 2:
                bad.add(shift)
        if bad:
            raise InvariantError(f"saddle map shifts adeg by {sorted(bad)}")
        fun_ok = fun_ok and d0 == placed.entries
    rep = complexes.verify_beta(c)
    return [
        ("d_squared", rep["d0d0"] is None),
        ("grading", complexes.verify_grading(c) is None),
        ("splitting", True),
        ("functoriality", fun_ok),
        ("beta", all(v is None for v in rep.values())),
    ]


def cmd_verify(args):
    ring = parse_ring(args.ring)
    planar = pick_variant(ring, args.variant)
    d = load(args.diagram, args.nudge)
    if not ring.is_euclidean and not planar:
        checks = _verify_generic(d)
    else:
        c = complexes.build_complex(d, ring, planar)
        checks = [
            ("d_squared", complexes.verify_d_squared(c) is None),
            ("grading", complexes.verify_grading(c) is None),
        ]
    ok = True
    for name, passed in checks:
        print(f"{name} {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_invariance(args):
    ring = parse_ring(args.ring)
    if not ring.is_euclidean:
        raise InputError("invariance comparison needs a Euclidean ring")
    planar = pick_variant(ring, args.variant)
    tables = []
    for path in (args.diagram_a, args.diagram_b):
        d = load(path, args.nudge)
        h = homology.homology(complexes.build_complex(d, ring, planar))
        tables.append(h.rank_table())
    same = tables[0] == tables[1]
    print("EQUAL" if same else "DIFFER")
    return 0 if same else 1


def cmd_lee_rank(args):
    d = load(args.diagram, args.nudge)
    rank = homology.lee_rank(d)
    expect = 2 ** d.n_components
    verdict = "PASS" if rank == expect else "FAIL"
    print(f"{rank} {verdict}")
    return 0 if rank == expect else 1


def cmd_canonical(args):
    d = load(args.diagram, args.nudge)
    c = homology.lee_complex(d)
    ok = True
    rows = []
    gens = []
    for o in all_orientations(d):
        rep = homology.verify_canonical(d, o, c)
        gens.append(rep.generator)
        rows.append(
            (
                "".join("-" if f else "+" for f in o),
                rep.adeg,
                rep.expected_adeg,
                "yes" if rep.is_cycle else "no",
                "PASS" if rep.ok else "FAIL",
            )
        )
        ok = ok and rep.ok
    span = homology.canonical_span_rank(c, gens)
    expect = 2 ** d.n_components
    print(
        emit_rows(
            ("orientation", "adeg", "expected", "cycle", "verdict"),
            rows,
            args.format,
        )
    )
    print(f"span {span} expected {expect} {'PASS' if span == expect else 'FAIL'}")
    return 0 if ok and span == expect else 1


def parse_tangle(text, n, m, dots=None):
    try:
        pairs = ast.literal_eval(text)
        pairs = [tuple(int(x) for x in p) for p in pairs]
    except (SyntaxError, TypeError, ValueError) as e:
        raise InputError(f"bad tangle notation {text!r}: {e}")
    dd = None
    if dots:
        try:
            dd = [int(x) for x in dots.split(",")] if dots.strip() else []
        except ValueError as e:
            raise InputError(f"bad dots {dots!r}: {e}")
    try:
        return tl.DottedTangle.make(n, m, pairs, dd)
    except ValueError as e:
        raise InputError(str(e))


def cmd_tl_eval(args):
    ring = parse_ring(args.ring)
    if pick_variant(ring, args.variant):
        raise InputError("tangles evaluate through the annular theory")
    t = parse_tangle(args.tangle, args.n, args.m, args.dots)
    f = tl.reduce_tangle(t)
    m = tl.spin_evaluate(f, ring)
    rows = [
        (r, c, ring.to_str(v))
        for (r, c), v in sorted(m.entries.items())
    ]
    print(emit_rows(("row", "col", "value"), rows, args.format))
    return 0


def cmd_tl_rank(args):
    ring = parse_ring(args.ring)
    if not isinstance(ring, AlphaEval):
        raise InputError("tl-rank needs an alpha evaluation ring")
    rank, kernel = tl.kernel_rank_experiment(args.n, args.m, ring)
    count = len(tl.enumerate_reduced(args.n, args.m))
    print(f"tangles {count} rank {rank} kernel {kernel}")
    return 0


def make_parser():
    p = argparse.ArgumentParser(
        prog="annkh",
        description="Exact annular Khovanov homology with equivariant "
        "coefficients.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    # each verb registers only the options it reads, so argparse rejects
    # the others (exit 2) instead of running without them
    def common(sp, ring=True, fmt=True, diagrams=("diagram",)):
        for name in diagrams:
            sp.add_argument(name, help="diagram JSON path")
        if ring:
            sp.add_argument("--ring", default="int", help="generic|int|rat|gf2|qh|alpha:a0,a1")
            sp.add_argument("--variant", default="annular", choices=("annular", "planar"))
        if fmt:
            sp.add_argument("--format", default="tsv", choices=("tsv", "json"))
        sp.add_argument("--nudge", action="store_true", help="rotate away ray tangencies")

    sp = sub.add_parser("homology", help="bigraded homology table")
    common(sp)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("verify", help="structural checks on the complex")
    common(sp, fmt=False)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("invariance", help="compare two diagrams' tables")
    common(sp, fmt=False, diagrams=("diagram_a", "diagram_b"))
    sp.set_defaults(fn=cmd_invariance)

    sp = sub.add_parser("lee-rank", help="localized homology rank vs 2^components")
    common(sp, ring=False, fmt=False)
    sp.set_defaults(fn=cmd_lee_rank)

    sp = sub.add_parser("canonical", help="canonical generator report")
    common(sp, ring=False)
    sp.set_defaults(fn=cmd_canonical)

    sp = sub.add_parser("tl-eval", help="evaluate a dotted tangle")
    sp.add_argument("tangle", help="pairing list, e.g. \"[(1,4),(2,3)]\"")
    sp.add_argument("--n", type=nonnegative_int, required=True)
    sp.add_argument("--m", type=nonnegative_int, required=True)
    sp.add_argument("--dots", default=None, help="comma-separated per strand")
    sp.add_argument("--ring", default="generic")
    sp.add_argument("--variant", default="annular", choices=("annular", "planar"))
    sp.add_argument("--format", default="tsv", choices=("tsv", "json"))
    sp.set_defaults(fn=cmd_tl_eval)

    sp = sub.add_parser("tl-rank", help="evaluation rank of all reduced tangles")
    sp.add_argument("--n", type=nonnegative_int, required=True)
    sp.add_argument("--m", type=nonnegative_int, required=True)
    sp.add_argument("--ring", default="alpha")
    sp.set_defaults(fn=cmd_tl_rank)
    return p


# Built once: parsing is cheap, building the subparser tree is not.
PARSER = make_parser()


def main(argv=None):
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except AnnkhError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
