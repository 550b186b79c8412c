from fractions import Fraction
from itertools import product

import pytest

from annkh import tqft
from annkh.complexes import build_cube
from annkh.diagram import cube_edge_pairs
from annkh.errors import AnnkhError, VariantRingMismatchError
from annkh import frobenius as fb
from annkh.ring import A0, A1, GENERIC, GF, INT, QH, RAT, BivariatePoly, alpha_eval

EV = alpha_eval(0, 1)
EV2 = alpha_eval(2, 5)

ZERO = BivariatePoly()
ONE = BivariatePoly.from_int(1)


def as_table(m):
    """{domain word: {codomain word: value}} with zero rows dropped."""
    out = {}
    for (r, c), v in m.entries.items():
        dw = m.domain.index_word(c)
        cw = m.codomain.index_word(r)
        out.setdefault(dw, {})[cw] = v
    return out


PLANAR, ANNULAR = True, False


def space(ring, planar, flags):
    return tqft.make_space(ring, flags, planar)


# ---------------------------------------------------------------------------
# state spaces


def test_state_space_trivial_circle(diagrams):
    rd = diagrams["trivial_unknot"].resolve(())
    sp = tqft.state_space(rd, INT)
    assert sp.rank == 2
    assert [sp.word_bidegree(w) for w in sp.words()] == [(-1, 0), (1, 0)]


def test_state_space_essential_circle(diagrams):
    rd = diagrams["essential_unknot_ccw"].resolve(())
    sp = tqft.state_space(rd, INT)
    assert [sp.word_bidegree(w) for w in sp.words()] == [(-1, -1), (1, 1)]


def test_state_space_two_essential(diagrams):
    rd = diagrams["unlink2_essential"].resolve(())
    sp = tqft.state_space(rd, GENERIC)
    assert sp.rank == 4
    assert sorted(sp.adegs) == [-2, 0, 0, 2]
    assert [s.convention for s in sp.slots] == ["V", "V_PRIME"]


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
         tqft.merge_map(two_g, one_g, (0, 1), 0, [])),
        (tqft.split_map(one, two, 0, (0, 1), []),
         tqft.split_map(one_g, two_g, 0, (0, 1), [])),
        (tqft.dotted_identity_map(two, 0, 1),
         tqft.dotted_identity_map(two_g, 0, 1)),
    ]
    for ann, planar in cases:
        assert set(planar.adeg_split()) == {0, 2}
        assert ann.entries == tqft.truncate_adeg(planar, 0).entries
        assert ann.declared_bidegree[1] == 0
        assert planar.declared_bidegree[1] is None


# ---------------------------------------------------------------------------
# the displayed saddle formulas, in the involved tensor factors only
#
# Words are bit tuples per slot, 0 the first basis vector; expected maps
# were transcribed by expanding products in the quotient ring by hand.


def merge(ring, planar, dom_flags, cod_flags):
    dom = space(ring, planar, dom_flags)
    cod = space(ring, planar, cod_flags)
    m = tqft.merge_map(dom, cod, (0, 1), 0, [])
    return m if planar else tqft.truncate_adeg(m, 0)


def split(ring, planar, dom_flags, cod_flags):
    dom = space(ring, planar, dom_flags)
    cod = space(ring, planar, cod_flags)
    m = tqft.split_map(dom, cod, 0, (0, 1), [])
    return m if planar else tqft.truncate_adeg(m, 0)


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
        col = m.domain.word_index(word)
        img = {}
        for (r, c), v in m.entries.items():
            if c != col:
                continue
            cw = m.codomain.index_word(r)
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
    assert tqft.dotted_identity_map(sp, 0, 1).is_zero()
    assert tqft.dotted_identity_map(sp, 0, 3).is_zero()


def test_two_dots_on_trivial_slot():
    sp = space(GENERIC, ANNULAR, [(False, None)])
    m = tqft.dotted_identity_map(sp, 0, 2)
    # X^2 = (a0+a1) X - a0 a1
    assert as_table(m) == {
        (0,): {(0,): -(A0 * A1), (1,): A0 + A1},
        (1,): {(0,): -(A0 * A1 * (A0 + A1)), (1,): A0 * A0 + A0 * A1 + A1 * A1},
    }
    assert m.check_bidegree(4, 0)


def test_dotted_identity_bidegree():
    sp = tqft.essential_space(1, GENERIC)
    m = tqft.dotted_identity_map(sp, 0, 1)
    assert m.check_bidegree(2, 0)


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


def test_splitting_lemma_on_corpus(diagrams):
    for name, cube in _generic_cubes(diagrams):
        for e in cube.edges:
            shifts = set(e.map.adeg_split())
            assert shifts <= {0, 2}, (name, e.u, e.v)


def test_truncation_commutes_with_composition(diagrams):
    for name, cube in _generic_cubes(diagrams):
        by_u = {}
        for e in cube.edges:
            by_u.setdefault(e.u, []).append(e)
        for e1 in cube.edges:
            for e2 in by_u.get(e1.v, ()):
                full = tqft.compose(e2.map, e1.map)
                lhs = tqft.truncate_adeg(full, 0)
                rhs = tqft.compose(
                    tqft.truncate_adeg(e2.map, 0), tqft.truncate_adeg(e1.map, 0)
                )
                assert lhs.entries == rhs.entries, (name, e1.u, e2.v)


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
            spec = e.map.matrix.map_entries(INT.specialize_poly, INT)
            assert spec.entries == zmaps[(e.u, e.v)].entries, (name, e.u)


def test_annular_maps_have_saddle_bidegree(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        cube = build_cube(d, GENERIC)
        for e in cube.edges:
            assert e.map.check_bidegree(1, 0), (name, e.u, e.v)


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


def test_annular_parts_reassemble_the_planar_map(diagrams):
    d = diagrams["trefoil_right"]
    for e in build_cube(d, GENERIC, planar=True).edges:
        d0, d2 = tqft.annular_parts(e.map)
        assert d0.add(d2).entries == e.map.entries


def test_annular_saddle_map_rejects_an_odd_adeg_shift(monkeypatch):
    dom = space(INT, ANNULAR, [(True, 1)])
    cod = space(INT, ANNULAR, [(False, None)])
    shifted = tqft.LinearMap.wrap(dom, cod, {(0, 0): 1}, (1, None))
    assert set(shifted.adeg_split()) == {1}
    monkeypatch.setattr(tqft, "_saddle", lambda *args: shifted)
    sd = tqft.SaddleDescriptor(tqft.TYPE_III, 0, None, None, (0,), (0,), ())
    with pytest.raises(AnnkhError, match=r"shifts adeg by \[1\]"):
        tqft.annular_saddle_map(sd, dom, cod)


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
    table = tqft.local_table(GENERIC, (fb.V, fb.V_PRIME), (fb.ONE_X,))
    assert table is tqft.local_table(GENERIC, (fb.V, fb.V_PRIME), (fb.ONE_X,))
    assert isinstance(table, tuple) and len(table) == 4
    for terms in table:
        assert isinstance(terms, tuple)
        assert all(isinstance(t, tuple) for t in terms)
