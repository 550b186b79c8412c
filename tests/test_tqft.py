import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from annkh import corpus, tqft
from annkh.diagram import cube_edge_pairs
from annkh.errors import AnnkhError, NotACubeEdgeError, VariantRingMismatchError
from annkh.linalg import accumulate
from annkh import frobenius as fb
from annkh.ring import A0, A1, GENERIC, GF, INT, QH, RAT, BivariatePoly, alpha_eval

from conftest import (
    adeg_shifts,
    as_table,
    bits_word,
    build_cube,
    check_bidegree,
    embed_oracle,
    first_noncommuting_square,
    outcome,
    reference_classify_saddle,
    specialize_entries,
    truncate_adeg,
    word_bits,
)

EV = alpha_eval(0, 1)
EV2 = alpha_eval(2, 5)

ZERO = BivariatePoly()
ONE = BivariatePoly.from_int(1)


PLANAR, ANNULAR = True, False


def space(ring, planar, flags):
    return tqft.make_space(ring, flags, planar)


# ---------------------------------------------------------------------------
# state spaces


def test_state_space_trivial_circle(diagrams):
    rd = diagrams["trivial_unknot"].resolve(())
    sp = tqft.state_space(rd, INT)
    assert sp.rank == 2
    assert sp.bidegrees == ((-1, 0), (1, 0))


def test_state_space_essential_circle(diagrams):
    rd = diagrams["essential_unknot_ccw"].resolve(())
    sp = tqft.state_space(rd, INT)
    assert sp.bidegrees == ((-1, -1), (1, 1))


def test_state_space_two_essential(diagrams):
    rd = diagrams["unlink2_essential"].resolve(())
    sp = tqft.state_space(rd, GENERIC)
    assert sp.rank == 4
    assert [a for _, a in sp.bidegrees] == [-2, 0, 0, 2]
    assert [s.convention for s in sp.slots] == ["V", "V_PRIME"]


def test_bidegrees_are_the_slotwise_sums_of_basis_bidegree():
    rng = random.Random(13)
    seen = set()
    for _ in range(200):
        convs = [rng.choice(fb.BASIS_TAGS) for _ in range(rng.randint(0, 6))]
        seen.update(convs)
        slots = tuple(
            tqft.Slot(c not in (fb.ONE_X, fb.E), c, None) for c in convs
        )
        sp = tqft.StateSpace(EV2, ANNULAR, slots)
        want = []
        for bits in product((0, 1), repeat=len(convs)):
            q = a = 0
            for c, b in zip(convs, bits):
                dq, da = fb.basis_bidegree(c, b)
                q, a = q + dq, a + da
            want.append((q, a))
        assert sp.bidegrees == tuple(want), convs
    assert seen == set(fb.BASIS_TAGS)


V_BASES = ("V", "V_PRIME", "ONE_X")
LOCALIZED = ("D_V", "D_V_PRIME", "E")


@pytest.mark.parametrize(
    "ring, planar, conventions",
    [
        pytest.param(
            ring,
            planar,
            LOCALIZED if localized and not planar else V_BASES,
            id=f"{ring!r}-{'planar' if planar else 'annular'}",
        )
        for ring, localized in (
            (INT, False),
            (RAT, False),
            (GF(2), False),
            (QH, False),
            (GENERIC, False),
            (alpha_eval(0, 1), True),
            (alpha_eval(2, Fraction(1, 3)), True),
        )
        for planar in (PLANAR, ANNULAR)
    ],
)
def test_the_ring_and_the_theory_pick_the_bases(ring, planar, conventions):
    # odd essential, even essential and trivial slots, in that order
    sp = space(ring, planar, [(True, 1), (True, 2), (False, None)])
    assert tuple(s.convention for s in sp.slots) == conventions
    assert sp.planar is planar and sp.ring == ring
    odd = space(ring, planar, [(True, 3)])
    assert odd.slots[0].convention == conventions[0]


def test_annular_spaces_need_distinct_parameters():
    flags = [(True, 1), (False, None)]
    with pytest.raises(VariantRingMismatchError, match="distinct"):
        space(alpha_eval(1, 1), ANNULAR, flags)
    planar = space(alpha_eval(1, 1), PLANAR, flags)
    assert [s.convention for s in planar.slots] == ["V", "ONE_X"]


def test_builders_truncate_between_annular_spaces():
    # the spaces decide: the planar map between planar spaces, its
    # adeg-0 part between annular ones with the same slots
    def both(flags):
        ann = space(GENERIC, ANNULAR, flags)
        return ann, tqft.StateSpace(GENERIC, PLANAR, ann.slots)

    two, two_g = both([(True, 1), (True, 2)])
    one, one_g = both([(False, None)])
    cases = [
        (tqft.merge_map(two, one, (0, 1), 0, []),
         tqft.merge_map(two_g, one_g, (0, 1), 0, []), 1),
        (tqft.split_map(one, two, 0, (0, 1), []),
         tqft.split_map(one_g, two_g, 0, (0, 1), []), 1),
        (tqft.dotted_identity_map(two, 0, 1),
         tqft.dotted_identity_map(two_g, 0, 1), 2),
    ]
    for ann, planar, q in cases:
        assert adeg_shifts(planar) == {0, 2}
        assert ann.entries == truncate_adeg(planar, 0).entries
        assert check_bidegree(ann, q, 0)
        assert check_bidegree(planar, q, None)


# ---------------------------------------------------------------------------
# the displayed saddle formulas, in the involved tensor factors only
#
# Words are bit tuples per slot, 0 the first basis vector; expected maps
# were transcribed by expanding products in the quotient ring by hand.


def merge(ring, planar, dom_flags, cod_flags):
    dom = space(ring, planar, dom_flags)
    cod = space(ring, planar, cod_flags)
    m = tqft.merge_map(dom, cod, (0, 1), 0, [])
    return m if planar else truncate_adeg(m, 0)


def split(ring, planar, dom_flags, cod_flags):
    dom = space(ring, planar, dom_flags)
    cod = space(ring, planar, cod_flags)
    m = tqft.split_map(dom, cod, 0, (0, 1), [])
    return m if planar else truncate_adeg(m, 0)


def test_full_type_i():
    m = merge(GENERIC, PLANAR, [(True, 1), (False, None)], [(True, 1)])
    assert as_table(m) == {
        (0, 0): {(0,): ONE},
        (1, 0): {(1,): ONE},
        (0, 1): {(0,): A0, (1,): ONE},  # boxed adeg-raising term
        (1, 1): {(1,): A1},
    }


def test_full_type_i_even_swaps_parameters():
    m = merge(GENERIC, PLANAR, [(True, 2), (False, None)], [(True, 2)])
    assert as_table(m) == {
        (0, 0): {(0,): ONE},
        (1, 0): {(1,): ONE},
        (0, 1): {(0,): A1, (1,): ONE},
        (1, 1): {(1,): A0},
    }


def test_full_type_ii():
    m = merge(GENERIC, PLANAR, [(True, 1), (True, 2)], [(False, None)])
    assert as_table(m) == {
        (0, 0): {(0,): ONE},  # boxed
        (1, 0): {(0,): -A0, (1,): ONE},  # X - a0
        (0, 1): {(0,): -A1, (1,): ONE},  # X - a1
    }


def test_full_type_iii():
    m = split(GENERIC, PLANAR, [(True, 1)], [(True, 1), (False, None)])
    assert as_table(m) == {
        (0,): {(0, 1): ONE, (0, 0): -A1, (1, 0): ONE},  # boxed v1 (x) 1
        (1,): {(1, 1): ONE, (1, 0): -A0},
    }


def test_full_type_iv():
    m = split(GENERIC, PLANAR, [(False, None)], [(True, 1), (True, 2)])
    assert as_table(m) == {
        (0,): {(0, 1): ONE, (1, 0): ONE},
        (1,): {(0, 1): A0, (1, 0): A1, (1, 1): ONE},  # boxed v1 (x) v1'
    }


def test_annular_type_i():
    m = merge(GENERIC, ANNULAR, [(True, 1), (False, None)], [(True, 1)])
    assert as_table(m) == {
        (0, 0): {(0,): ONE},
        (1, 0): {(1,): ONE},
        (0, 1): {(0,): A0},
        (1, 1): {(1,): A1},
    }


def test_annular_type_ii():
    m = merge(GENERIC, ANNULAR, [(True, 1), (True, 2)], [(False, None)])
    assert as_table(m) == {
        (1, 0): {(0,): -A0, (1,): ONE},
        (0, 1): {(0,): -A1, (1,): ONE},
    }


def test_annular_type_iii():
    m = split(GENERIC, ANNULAR, [(True, 1)], [(True, 1), (False, None)])
    assert as_table(m) == {
        (0,): {(0, 1): ONE, (0, 0): -A1},
        (1,): {(1, 1): ONE, (1, 0): -A0},
    }


def test_annular_type_iv():
    m = split(GENERIC, ANNULAR, [(False, None)], [(True, 1), (True, 2)])
    assert as_table(m) == {
        (0,): {(0, 1): ONE, (1, 0): ONE},
        (1,): {(0, 1): A0, (1, 0): A1},
    }


def test_zero_specialization_formulas():
    # with both parameters zero the four annular maps collapse to the
    # non-equivariant rules: X dies on essential circles, splits create
    # v0 (x) v1 + v1 (x) v0, and merges send opposite pairs to X
    one = 1
    m = merge(INT, ANNULAR, [(True, 1), (False, None)], [(True, 1)])
    assert as_table(m) == {(0, 0): {(0,): one}, (1, 0): {(1,): one}}
    m = merge(INT, ANNULAR, [(True, 1), (True, 2)], [(False, None)])
    assert as_table(m) == {(1, 0): {(1,): one}, (0, 1): {(1,): one}}
    m = split(INT, ANNULAR, [(True, 1)], [(True, 1), (False, None)])
    assert as_table(m) == {(0,): {(0, 1): one}, (1,): {(1, 1): one}}
    m = split(INT, ANNULAR, [(False, None)], [(True, 1), (True, 2)])
    assert as_table(m) == {(0,): {(0, 1): one, (1, 0): one}}


@pytest.mark.parametrize("ring", [EV, EV2])
def test_localized_formulas(ring):
    q0, q1 = ring.alpha_images()
    one = Fraction(1)
    m = merge(ring, ANNULAR, [(True, 1), (False, None)], [(True, 1)])
    assert as_table(m) == {
        (1, 0): {(1,): one},  # vbar1 (x) e0 -> vbar1
        (0, 1): {(0,): one},  # vbar0 (x) e1 -> vbar0
    }
    m = merge(ring, ANNULAR, [(True, 1), (True, 2)], [(False, None)])
    assert as_table(m) == {
        (1, 0): {(0,): one},  # vbar1 (x) vbar0' -> e0
        (0, 1): {(1,): one},  # vbar0 (x) vbar1' -> e1
    }
    m = split(ring, ANNULAR, [(True, 1)], [(True, 1), (False, None)])
    assert as_table(m) == {
        (0,): {(0, 1): q0 - q1},
        (1,): {(1, 0): q1 - q0},
    }
    m = split(ring, ANNULAR, [(False, None)], [(True, 1), (True, 2)])
    assert as_table(m) == {
        (0,): {(1, 0): q1 - q0},  # e0 -> (a1-a0) vbar1 (x) vbar0'
        (1,): {(0, 1): q0 - q1},
    }


@pytest.mark.parametrize("ring", [EV, EV2])
def test_localized_primed_formulas(ring):
    q0, q1 = ring.alpha_images()
    one = Fraction(1)
    m = merge(ring, ANNULAR, [(True, 2), (False, None)], [(True, 2)])
    assert as_table(m) == {
        (0, 0): {(0,): one},
        (1, 1): {(1,): one},
    }
    m = merge(ring, ANNULAR, [(True, 2), (True, 3)], [(False, None)])
    assert as_table(m) == {
        (1, 0): {(1,): one},  # vbar1' (x) vbar0 -> e1
        (0, 1): {(0,): one},
    }
    m = split(ring, ANNULAR, [(True, 2)], [(True, 2), (False, None)])
    assert as_table(m) == {
        (0,): {(0, 0): q1 - q0},
        (1,): {(1, 1): q0 - q1},
    }
    m = split(ring, ANNULAR, [(False, None)], [(True, 2), (True, 3)])
    assert as_table(m) == {
        (0,): {(0, 1): q1 - q0},  # e0 -> (a1-a0) vbar0' (x) vbar1
        (1,): {(1, 0): q0 - q1},
    }


def _ab_bit(slot, letter):
    if not slot.essential:
        return 0 if letter == "a" else 1
    if slot.essential_index % 2 == 1:
        return 1 if letter == "a" else 0
    return 0 if letter == "a" else 1


def _ab_table(m):
    """Matrix in the a/b labels of the localized theory."""
    letters = ("a", "b")
    out = {}
    for din in product(letters, repeat=len(m.domain.slots)):
        word = tuple(
            _ab_bit(s, l) for s, l in zip(m.domain.slots, din)
        )
        col = bits_word(word)
        img = {}
        for (r, c), v in m.entries.items():
            if c != col:
                continue
            cw = word_bits(m.codomain, r)
            lets = tuple(
                "a" if _ab_bit(s, "a") == b else "b"
                for s, b in zip(m.codomain.slots, cw)
            )
            img[lets] = v
        if img:
            out[din] = img
    return out


@pytest.mark.parametrize("inner", [1, 2])
@pytest.mark.parametrize("ring", [EV, EV2])
def test_ab_uniform_rules(ring, inner):
    """The localized maps relabeled through a/b are parity-independent."""
    q0, q1 = ring.alpha_images()
    one = Fraction(1)
    m = merge(
        ring, ANNULAR, [(True, inner), (False, None)], [(True, inner)]
    )
    assert _ab_table(m) == {
        ("a", "a"): {("a",): one},
        ("b", "b"): {("b",): one},
    }
    m = merge(
        ring,
        ANNULAR,
        [(True, inner), (True, inner + 1)],
        [(False, None)],
    )
    assert _ab_table(m) == {
        ("a", "a"): {("a",): one},
        ("b", "b"): {("b",): one},
    }
    m = split(
        ring, ANNULAR, [(True, inner)], [(True, inner), (False, None)]
    )
    assert _ab_table(m) == {
        ("a",): {("a", "a"): q1 - q0},
        ("b",): {("b", "b"): q0 - q1},
    }
    m = split(
        ring,
        ANNULAR,
        [(False, None)],
        [(True, inner), (True, inner + 1)],
    )
    assert _ab_table(m) == {
        ("a",): {("a", "a"): q1 - q0},
        ("b",): {("b", "b"): q0 - q1},
    }


# ---------------------------------------------------------------------------
# dotted identities


def test_dotted_identity_on_essential_slots():
    sp = tqft.essential_space(2, GENERIC)
    inner = tqft.dotted_identity_map(sp, 0, 1)
    assert as_table(inner) == {
        (0, 0): {(0, 0): A0},
        (0, 1): {(0, 1): A0},
        (1, 0): {(1, 0): A1},
        (1, 1): {(1, 1): A1},
    }
    outer = tqft.dotted_identity_map(sp, 1, 1)
    assert as_table(outer) == {
        (0, 0): {(0, 0): A1},
        (1, 0): {(1, 0): A1},
        (0, 1): {(0, 1): A0},
        (1, 1): {(1, 1): A0},
    }


def test_boerner_vanishing_at_zero():
    sp = tqft.essential_space(1, INT)
    assert not tqft.dotted_identity_map(sp, 0, 1).entries
    assert not tqft.dotted_identity_map(sp, 0, 3).entries


def test_two_dots_on_trivial_slot():
    sp = space(GENERIC, ANNULAR, [(False, None)])
    m = tqft.dotted_identity_map(sp, 0, 2)
    # X^2 = (a0+a1) X - a0 a1
    assert as_table(m) == {
        (0,): {(0,): -(A0 * A1), (1,): A0 + A1},
        (1,): {(0,): -(A0 * A1 * (A0 + A1)), (1,): A0 * A0 + A0 * A1 + A1 * A1},
    }
    assert check_bidegree(m, 4, 0)


def test_dotted_identity_bidegree():
    sp = tqft.essential_space(1, GENERIC)
    m = tqft.dotted_identity_map(sp, 0, 1)
    assert check_bidegree(m, 2, 0)


# ---------------------------------------------------------------------------
# cube-level properties over the whole corpus


def _generic_cubes(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        yield name, build_cube(d, GENERIC, planar=True)


def test_all_saddle_kinds_appear(diagrams):
    kinds = set()
    for _, cube in _generic_cubes(diagrams):
        kinds |= {e.descriptor.kind for e in cube.edges}
    assert kinds == {
        tqft.MERGE_TT,
        tqft.SPLIT_T,
        tqft.TYPE_I,
        tqft.TYPE_II,
        tqft.TYPE_III,
        tqft.TYPE_IV,
    }


CLASSIFY_ERRORS = ("not an edge", "involves", "untouched", "impossible")


def test_classify_saddle_matches_the_old_classifier(diagrams):
    """Every cube edge of the corpus and of 20 seeded 2- to 4-strand
    braid closures gets the descriptor of the classifier that scans every
    circle, and so does every non-edge the same error: an edge taken
    backwards, two steps at once, and an edge whose target carries the
    circles of another smoothing of as many ones.  A target resolution
    of another diagram with as many crossings is refused: edges are
    numbered per diagram."""
    rng = random.Random(59)
    cases = list(diagrams.values())
    for _ in range(20):
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, 6))]
        cases.append(corpus.braid_closure(word, n))
    by_size = {}
    for d in cases:
        by_size.setdefault(d.n_crossings, []).append(d)
    edges, errors = 0, Counter()
    for d in cases:
        others = [e for e in by_size[d.n_crossings] if e is not d]
        for u in product((0, 1), repeat=d.n_crossings):
            for i, v in cube_edge_pairs(d, u):
                args = (d, d.resolve(u), d.resolve(v), i)
                got = tqft.classify_saddle(*args)
                assert got == reference_classify_saddle(*args), (u, i)
                edges += 1
                wrong = [(d, d.resolve(v), d.resolve(u), i)]
                wrong += [(d, d.resolve(u), d.resolve(w), i)
                          for _, w in cube_edge_pairs(d, v)]
                wrong += [
                    (d, d.resolve(u), replace(d.resolve(w), smoothing=v), i)
                    for w in product((0, 1), repeat=d.n_crossings)
                    if sum(w) == sum(v) and w != v
                ]
                for e in others:
                    with pytest.raises(NotACubeEdgeError, match="another diagram"):
                        tqft.classify_saddle(d, d.resolve(u), e.resolve(v), i)
                for args in wrong:
                    got = outcome(tqft.classify_saddle, *args)
                    assert got == outcome(reference_classify_saddle, *args), (u, i)
                    if not isinstance(got, tqft.SaddleDescriptor):
                        errors.update(w for w in CLASSIFY_ERRORS if w in got[1])
    assert edges > 1000, edges
    assert set(errors) == set(CLASSIFY_ERRORS), errors


def test_splitting_lemma_on_corpus(diagrams):
    for name, cube in _generic_cubes(diagrams):
        for e in cube.edges:
            assert adeg_shifts(e.map) <= {0, 2}, (name, e.u, e.v)


def test_truncation_commutes_with_composition(diagrams):
    for name, cube in _generic_cubes(diagrams):
        assert first_noncommuting_square(cube) is None, name


def test_the_square_oracle_cannot_see_an_annular_table_mutation(
    diagrams, mutated_annular_table
):
    # the mutation reaches the annular cube, yet the old per-square
    # check on the planar cube passes: only a per-edge comparison of
    # d0 with the placed annular table can fail
    changed = 0
    for name, cube in _generic_cubes(diagrams):
        assert first_noncommuting_square(cube) is None, name
        annular = build_cube(cube.diagram, GENERIC)
        for e, ea in zip(cube.edges, annular.edges):
            changed += truncate_adeg(e.map, 0).entries != ea.map.entries
    assert changed > 0


def test_square_faces_commute_before_signs(diagrams):
    for name, cube in _generic_cubes(diagrams):
        maps = {(e.u, e.v): e.map for e in cube.edges}
        for u in cube.resolutions:
            ups = [v for _, v in cube_edge_pairs(cube.diagram, u)]
            for a in ups:
                for b in ups:
                    if a >= b:
                        continue
                    w = tuple(x | y for x, y in zip(a, b))
                    path1 = tqft.compose(maps[(a, w)], maps[(u, a)])
                    path2 = tqft.compose(maps[(b, w)], maps[(u, b)])
                    assert path1.entries == path2.entries, (name, u, w)


def test_commuting_square_with_zero_specialization(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        cube_a = build_cube(d, GENERIC)
        cube_z = build_cube(d, INT)
        zmaps = {(e.u, e.v): e.map for e in cube_z.edges}
        for e in cube_a.edges:
            spec = specialize_entries(e.map.entries, INT)
            assert spec == zmaps[(e.u, e.v)].entries, (name, e.u)


def test_annular_maps_have_saddle_bidegree(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        cube = build_cube(d, GENERIC)
        for e in cube.edges:
            assert check_bidegree(e.map, 1, 0), (name, e.u, e.v)


def test_compose_with_identity(diagrams):
    d = diagrams["hopf_essential"]
    cube = build_cube(d, GENERIC)
    e = cube.edges[0]
    ident = tqft.identity_map(e.map.domain)
    assert tqft.compose(e.map, ident).entries == e.map.entries


def test_double_merge_associativity(diagrams):
    # two successive trivial merges agree along both square paths
    d = diagrams["hopf_null"]
    cube = build_cube(d, GENERIC, planar=True)
    maps = {(e.u, e.v): e.map for e in cube.edges}
    lhs = tqft.compose(maps[((0, 1), (1, 1))], maps[((0, 0), (0, 1))])
    rhs = tqft.compose(maps[((1, 0), (1, 1))], maps[((0, 0), (1, 0))])
    assert lhs.entries == rhs.entries


def test_adeg_truncations_reassemble_the_planar_map(diagrams):
    d = diagrams["trefoil_right"]
    for e in build_cube(d, GENERIC, planar=True).edges:
        d0, d2 = truncate_adeg(e.map, 0), truncate_adeg(e.map, 2)
        assert accumulate(GENERIC, dict(d0.entries), d2.entries.items()) == e.map.entries


def test_annular_saddle_map_rejects_an_odd_adeg_shift():
    # an essential circle split into two trivial ones shifts adeg by
    # -1 and +1; the table guard raises once, before any placement
    dom = space(INT, ANNULAR, [(True, 1)])
    cod = space(INT, ANNULAR, [(False, None), (False, None)])
    sd = tqft.SaddleDescriptor(tqft.TYPE_III, (0,), (0, 1), ())
    with pytest.raises(AnnkhError, match=r"shifts adeg by \[-1, 1\]"):
        tqft.annular_saddle_map(sd, dom, cod)
    for planar in (PLANAR, ANNULAR):
        with pytest.raises(AnnkhError, match=r"shifts adeg by \[-1, 1\]"):
            tqft.local_table(INT, (fb.V,), (fb.ONE_X, fb.ONE_X), planar)


@pytest.mark.parametrize("planar", [PLANAR, ANNULAR], ids=["planar", "annular"])
def test_embed_rejects_an_uninvolved_pair_of_two_kinds(planar):
    # slot 2 is trivial in the domain but essential in the codomain, so
    # the placed map would shift adeg by an odd amount
    dom = space(GENERIC, planar, [(True, 1), (False, None), (False, None)])
    cod = space(GENERIC, planar, [(True, 1), (True, 2)])
    with pytest.raises(AnnkhError, match=r"uninvolved slots 2 -> 1 differ in kind"):
        tqft.merge_map(dom, cod, (0, 1), 0, [(2, 1)])


def test_embed_checks_kinds_through_a_memo_of_the_same_shape():
    # both codomains give the merge the same table and placement shape,
    # so only the kind check tells them apart, on a memo that holds both
    dom = space(GENERIC, ANNULAR, [(True, 1), (False, None), (False, None)])
    ok = space(GENERIC, ANNULAR, [(True, 1), (False, None)])
    bad = space(GENERIC, ANNULAR, [(True, 1), (True, 2)])
    memo = {}
    m = tqft._embed(dom, ok, (0, 1), (0,), [(2, 1)], memo=memo)
    assert m == tqft.merge_map(dom, ok, (0, 1), 0, [(2, 1)])
    assert tqft._embed(dom, ok, (0, 1), (0,), ((2, 1),), memo=memo) is m
    with pytest.raises(AnnkhError, match=r"uninvolved slots 2 -> 1 differ in kind"):
        tqft._embed(dom, bad, (0, 1), (0,), [(2, 1)], memo=memo)


ORACLE_RINGS = [INT, GF(2), RAT, QH, alpha_eval(0, 1), alpha_eval(1, 3), GENERIC]


def _planar_twin(sp):
    """The planar space with an annular space's slots: the planar theory
    in the annular bases, whose adeg-0 part the annular maps must be."""
    return tqft.StateSpace(sp.ring, PLANAR, sp.slots)


def _same_map(ann, planar, q):
    # entries and their order, so the placement order is pinned too;
    # every entry of both maps shifts qdeg by q
    d0 = truncate_adeg(planar, 0)
    return (
        list(ann.entries.items()) == list(d0.entries.items())
        and check_bidegree(ann, q, 0)
        and check_bidegree(planar, q, None)
    )


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=repr)
def test_annular_cube_edges_are_annular_parts_of_the_planar_maps(diagrams, ring):
    for name, d in sorted(diagrams.items()):
        cube = build_cube(d, ring)
        twins = {u: _planar_twin(sp) for u, sp in cube.spaces.items()}
        for e in cube.edges:
            planar = tqft.annular_saddle_map(e.descriptor, twins[e.u], twins[e.v])
            assert _same_map(e.map, planar, 1), (name, e.u, e.v)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=repr)
def test_annular_builders_are_annular_parts_of_the_planar_ones(ring):
    three_ess = space(ring, ANNULAR, [(True, 1), (True, 2), (True, 3)])
    triv_ess = space(ring, ANNULAR, [(False, None), (True, 1)])
    ess_triv = space(ring, ANNULAR, [(True, 1), (False, None), (False, None)])
    ess_one = space(ring, ANNULAR, [(True, 1), (False, None)])
    cases = [
        # type II merge, with the outer essential circle renumbered
        (tqft.merge_map, three_ess, triv_ess, (0, 1), 0, [(2, 1)]),
        # type I merge beside a trivial circle
        (tqft.merge_map, ess_triv, ess_one, (0, 1), 0, [(2, 1)]),
        # type IV split, the essential circle renumbered outward
        (tqft.split_map, triv_ess, three_ess, 0, (0, 1), [(1, 2)]),
        # type III split
        (tqft.split_map, ess_one, ess_triv, 0, (0, 1), [(1, 2)]),
    ]
    for build, dom, cod, *args in cases:
        ann = build(dom, cod, *args)
        planar = build(_planar_twin(dom), _planar_twin(cod), *args)
        assert _same_map(ann, planar, 1), (build.__name__, args)
    for slot in range(3):
        for dots in (1, 2):
            ann = tqft.dotted_identity_map(ess_triv, slot, dots)
            planar = tqft.dotted_identity_map(_planar_twin(ess_triv), slot, dots)
            assert _same_map(ann, planar, 2 * dots), (slot, dots)


EMBED_CASES = [
    (INT, ANNULAR),
    (GF(2), ANNULAR),
    (alpha_eval(1, 3), ANNULAR),
    (GENERIC, PLANAR),
    (GENERIC, ANNULAR),
]


def _with_memo_hits(diagrams):
    """The corpus plus T(2,5) and a seeded 5-crossing 3-braid, whose
    cubes have many edges of one placement shape."""
    rng = random.Random(5)
    word = [rng.choice((1, -1, 2, -2)) for _ in range(5)]
    extra = {
        "T(2,5)": corpus.braid_closure([1] * 5, 2),
        f"braid3 {word}": corpus.braid_closure(word, 3),
    }
    for d in extra.values():
        d.ensure_valid()
    return {**diagrams, **extra}


@pytest.mark.parametrize(
    "ring, planar", EMBED_CASES, ids=lambda x: x if isinstance(x, bool) else repr(x)
)
def test_embed_places_what_the_bit_tuple_oracle_places(diagrams, ring, planar):
    edges = 0
    for name, d in sorted(_with_memo_hits(diagrams).items()):
        cube = build_cube(d, ring, planar)
        for e in cube.edges:
            sd, dom, cod = e.descriptor, cube.spaces[e.u], cube.spaces[e.v]
            table = tqft.local_table(
                ring,
                tuple(dom.slots[s].convention for s in sd.dom_involved),
                tuple(cod.slots[s].convention for s in sd.cod_involved),
                planar,
            )
            want = embed_oracle(
                dom, cod, sd.dom_involved, sd.cod_involved, sd.uninvolved, table
            )
            # entries and their order
            assert list(e.map.entries.items()) == list(want.entries.items()), (
                name, e.u, e.v,
            )
            edges += 1
    assert edges > 0


def test_memoized_tables_are_not_shared_across_rings(diagrams):
    # one process builds the same diagram over several rings; each cube
    # must equal the one built alone from an empty memo
    d = diagrams["trefoil_left"]
    cases = [
        (GF(2), ANNULAR),
        (GF(3), ANNULAR),
        (alpha_eval(1, 3), ANNULAR),
        (GF(2), PLANAR),
        (GF(3), PLANAR),
        (alpha_eval(1, 3), PLANAR),
        (alpha_eval(1, 1), PLANAR),
    ]
    tqft.local_table.cache_clear()
    together = [build_cube(d, ring, planar) for ring, planar in cases]
    info = tqft.local_table.cache_info()
    assert info.hits > info.misses > 0
    for (ring, planar), cube in zip(cases, together):
        tqft.local_table.cache_clear()
        alone = build_cube(d, ring, planar)
        assert [e.map for e in cube.edges] == [e.map for e in alone.edges], (
            ring,
            planar,
        )
    tqft.local_table.cache_clear()


def test_local_tables_are_immutable():
    for planar in (PLANAR, ANNULAR):
        key = (GENERIC, (fb.V, fb.V_PRIME), (fb.ONE_X,), planar)
        table = tqft.local_table(*key)
        assert table is tqft.local_table(*key)
        assert isinstance(table, tuple) and len(table) == 4
        for terms in table:
            assert isinstance(terms, tuple)
            assert all(isinstance(t, tuple) for t in terms)


def test_the_annular_table_is_the_planar_one_less_its_plus2_terms():
    # type II merge into a trivial circle: input words 00, 01, 10, 11
    # have adeg -2, 0, 0, +2, so every term of row 00 raises adeg by 2
    # and row 11 (m(v1 (x) v1') = 0) is empty
    key = (GENERIC, (fb.V, fb.V_PRIME), (fb.ONE_X,))
    planar = tqft.local_table(*key, PLANAR)
    annular = tqft.local_table(*key, ANNULAR)
    assert planar[0] and not planar[3]
    assert annular == ((), planar[1], planar[2], ())


@pytest.mark.parametrize("ring", [INT, alpha_eval(1, 3), GENERIC], ids=repr)
@pytest.mark.parametrize("planar", [PLANAR, ANNULAR], ids=["planar", "annular"])
def test_dots_births_and_deaths_are_memoized_local_tables(ring, planar):
    # a second call over the same ring and conventions is a cache hit,
    # and returns the map the first call built
    sp = space(ring, planar, [(True, 1), (False, None)])
    calls = [
        lambda: tqft.dotted_identity_map(sp, 0, 2),
        lambda: tqft.dotted_identity_map(sp, 1, 1),
        lambda: tqft.birth_map(sp, 1),
        lambda: tqft.death_map(sp, 1),
    ]
    tqft.local_table.cache_clear()
    try:
        for build in calls:
            first = build()
            info = tqft.local_table.cache_info()
            assert build() == first
            again = tqft.local_table.cache_info()
            assert (again.hits, again.misses) == (info.hits + 1, info.misses)
        assert tqft.local_table.cache_info().misses == len(calls)
    finally:
        tqft.local_table.cache_clear()
    assert tqft.local_table.cache_info().currsize == 0
