"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Everything is checked at exact equality; there are
no numeric tolerances anywhere.
"""

import math
import random

import pytest

from annkh import tl, tqft
from annkh.complexes import (
    build_complex,
    verify_beta,
    verify_d_squared,
    verify_grading,
)
from annkh.corpus import COMPONENTS, R_PAIRS
from annkh.diagram import all_orientations
from annkh.homology import (
    canonical_span_rank,
    homology,
    lee_complex,
    lee_rank,
    verify_canonical,
)
from annkh.ring import A0, A1, GENERIC, GF, INT, QH, RAT, BivariatePoly, alpha_eval

from conftest import (
    adeg_shifts,
    as_table,
    build_cube,
    first_noncommuting_square,
    specialize_entries,
    truncate_adeg,
)
from test_homology import _oracle_homology_ranks


def report(n, text):
    print(f"acceptance {n}: {text} PASS")


def test_criterion_01_d_squared_symbolic(diagrams):
    for name, d in diagrams.items():
        for planar in (False, True):
            c = build_complex(d, GENERIC, planar)
            assert verify_d_squared(c) is None, (name, planar)
    report(1, "d^2 = 0 over the bivariate ring, whole corpus, exact zero")


def test_criterion_02_reduction_to_nonequivariant(diagrams):
    # the four hardcoded non-equivariant saddle rules, both parities
    one = 1

    def merge0(dom_flags, cod_flags):
        dom = tqft.make_space(INT, dom_flags)
        cod = tqft.make_space(INT, cod_flags)
        return truncate_adeg(tqft.merge_map(dom, cod, (0, 1), 0, []), 0)

    def split0(dom_flags, cod_flags):
        dom = tqft.make_space(INT, dom_flags)
        cod = tqft.make_space(INT, cod_flags)
        return truncate_adeg(tqft.split_map(dom, cod, 0, (0, 1), []), 0)

    for i in (1, 2):  # odd and even innermost essential circle
        m = merge0([(True, i), (False, None)], [(True, i)])
        assert as_table(m) == {(0, 0): {(0,): one}, (1, 0): {(1,): one}}
        m = merge0([(True, i), (True, i + 1)], [(False, None)])
        assert as_table(m) == {(1, 0): {(1,): one}, (0, 1): {(1,): one}}
        m = split0([(True, i)], [(True, i), (False, None)])
        assert as_table(m) == {(0,): {(0, 1): one}, (1,): {(1, 1): one}}
        m = split0([(False, None)], [(True, i), (True, i + 1)])
        assert as_table(m) == {(0,): {(0, 1): one, (1, 0): one}}
    # Boerner vanishing: dotted essential identities die at zero
    for i in (1, 2):
        sp = tqft.make_space(INT, [(True, i)])
        for dots in (1, 2, 3):
            assert not tqft.dotted_identity_map(sp, 0, dots).entries
    # every equivariant cube map specializes to the non-equivariant one
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        alpha_cube = build_cube(d, GENERIC)
        zero_cube = build_cube(d, INT)
        zero_maps = {(e.u, e.v): e.map for e in zero_cube.edges}
        for e in alpha_cube.edges:
            spec = specialize_entries(e.map.entries, INT)
            assert spec == zero_maps[(e.u, e.v)].entries
    report(2, "setting both parameters to zero recovers the "
              "non-equivariant formulas and Boerner vanishing")


def test_criterion_03_splitting_and_functoriality(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        cube = build_cube(d, GENERIC, planar=True)
        for e in cube.edges:
            assert adeg_shifts(e.map) <= {0, 2}, (name, e.u, e.v)
        assert first_noncommuting_square(cube) is None, name
    report(3, "maps split into adeg 0 and +2 parts exactly and "
              "truncation commutes with composition")


def test_criterion_04_localized_rank(diagrams):
    for name, d in diagrams.items():
        expect = 2 ** COMPONENTS[name]
        assert lee_rank(d) == expect, name
    report(4, "localized homology rank equals 2^components, "
              "exact integer equality")


def test_criterion_05_canonical_generators(diagrams):
    for name, d in diagrams.items():
        c = lee_complex(d)
        reports = [verify_canonical(d, o, c) for o in all_orientations(d)]
        for rep in reports:
            assert rep.is_cycle, (name, rep.generator.orientation)
            assert rep.adeg == rep.expected_adeg, (name, rep.generator.orientation)
        if name in ("hopf_null", "hopf_essential"):
            assert canonical_span_rank(c, [r.generator for r in reports]) == 4, name
    report(5, "every canonical generator is a cycle with the predicted "
              "annular degree; the four Hopf classes span rank 4")


def test_criterion_06_reidemeister_invariance(diagrams):
    rings = [INT, GF(2), QH, alpha_eval(0, 1)]
    for move, (a, b) in R_PAIRS.items():
        for ring in rings:
            ha = homology(build_complex(diagrams[a], ring))
            hb = homology(build_complex(diagrams[b], ring))
            assert ha.rank_table() == hb.rank_table(), (move, ring)
    report(6, "rank and torsion tables agree across the R1/R2/R3 pairs "
              "over all four coefficient rings")


def test_criterion_07_dense_oracle(diagrams):
    for name, d in diagrams.items():
        assert d.n_crossings <= 3
        got = homology(build_complex(d, RAT))
        per_degree = {}
        for (i, _, _), (rank, _) in got.entries.items():
            per_degree[i] = per_degree.get(i, 0) + rank
        expect = {i: r for i, r in _oracle_homology_ranks(d).items() if r}
        assert per_degree == expect, name
    report(7, "rational homology ranks match the independent dense "
              "row-reduction oracle on the whole corpus")


def test_criterion_08_beta_deformation(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        rep = verify_beta(build_complex(d, GENERIC, planar=True))
        assert all(v is None for v in rep.values()), (name, rep)
    report(8, "the deformed differential squares to zero in all three "
              "components separately")


def test_criterion_09_tangle_calculus():
    assert tl.circle_value(0) == BivariatePoly.from_int(2)
    assert tl.circle_value(1) == A0 + A1
    for k in range(2, 6):
        assert tl.circle_value(k) == A0**k + A1**k
        t = tl.DottedTangle.make(0, 0, [], [], closed_loops=(k,))
        red = tl.reduce_tangle(t).term_dict()
        assert red == {tl.DottedTangle.make(0, 0, []): A0**k + A1**k}

    def catalan(l):
        return math.comb(2 * l, l) // (l + 1)

    for n, m in ((1, 1), (2, 2), (3, 3), (2, 0), (4, 0), (4, 2), (5, 5)):
        l = (n + m) // 2
        assert len(tl.enumerate_reduced(n, m)) == 2**l * catalan(l)
    assert len(tl.enumerate_reduced(3, 3)) == 40

    rng = random.Random(99)
    for n, mid, m in ((1, 1, 1), (2, 2, 2), (0, 2, 0), (1, 3, 1)):
        tangles_f = tl.enumerate_reduced(n, mid)
        tangles_g = tl.enumerate_reduced(mid, m)
        for _ in range(4):
            f = tl.TLMorphism.make(
                n, mid, {rng.choice(tangles_f): BivariatePoly.from_int(
                    rng.randint(1, 3))}
            )
            g = tl.TLMorphism.make(
                mid, m, {rng.choice(tangles_g): BivariatePoly.from_int(
                    rng.randint(1, 3))}
            )
            lhs = tl.spin_evaluate(tl.tl_compose(f, g), GENERIC)
            rhs = tqft.compose(
                tl.spin_evaluate(g, GENERIC),
                tl.spin_evaluate(f, GENERIC),
            )
            assert lhs.entries == rhs.entries
    report(9, "circle evaluations, reduced tangle counts (40 at (3,3)), "
              "and spinning functoriality on random composites")


def test_criterion_10_grading_contract(diagrams):
    for name, d in diagrams.items():
        for ring, planar in (
            (GENERIC, False),
            (INT, False),
            (GF(2), False),
            (QH, False),
            (GENERIC, True),
            (alpha_eval(0, 1), False),
        ):
            c = build_complex(d, ring, planar)
            assert verify_grading(c) is None, (name, planar, ring)
    report(10, "every differential entry preserves the shifted bigrade, "
               "checked exhaustively")
