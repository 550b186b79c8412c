from dataclasses import replace
from itertools import product

import pytest

from annkh import tqft
from annkh.complexes import (
    assemble,
    build_complex,
    build_cube,
    sign_assignment,
    verify_beta,
    verify_d_squared,
    verify_grading,
)
from annkh.errors import (
    InvariantError,
    UnsupportedRingError,
    VariantRingMismatchError,
)
from annkh.linalg import SparseMatrix
from annkh.ring import A0, GENERIC, GF, INT, QH, alpha_eval

from conftest import bits_word, specialize_complex, truncate_adeg, word_bits


def test_sign_assignment_examples():
    assert sign_assignment((0, 0), 0) == 0
    assert sign_assignment((1, 0), 1) == 1
    with pytest.raises(ValueError):
        sign_assignment((1, 0), 0)


def test_every_square_face_is_odd():
    for n in (2, 3, 4):
        for u in product((0, 1), repeat=n):
            zeros = [i for i, x in enumerate(u) if x == 0]
            for a in zeros:
                for b in zeros:
                    if a >= b:
                        continue
                    ua = list(u)
                    ua[a] = 1
                    ub = list(u)
                    ub[b] = 1
                    total = (
                        sign_assignment(u, a)
                        + sign_assignment(tuple(ua), b)
                        + sign_assignment(u, b)
                        + sign_assignment(tuple(ub), a)
                    )
                    assert total % 2 == 1


def test_cube_combinatorics(diagrams):
    cube = build_cube(diagrams["trefoil_right"], INT)
    assert len(cube.resolutions) == 8
    assert len(cube.edges) == 12
    cube0 = build_cube(diagrams["essential_unknot_ccw"], INT)
    assert len(cube0.resolutions) == 1 and not cube0.edges


def test_zero_crossing_assembly(diagrams):
    c = build_complex(diagrams["essential_unknot_ccw"], INT)
    assert c.degrees == [0]
    assert c.rank(0) == 2
    assert c.bigrade[0] == [(-1, -1), (1, 1)]


def test_trefoil_group_ranks(diagrams):
    # ranks follow the circle counts of the eight smoothings
    d = diagrams["trefoil_right"]
    c = build_complex(d, INT)
    assert c.degrees == [0, 1, 2, 3]
    expected = {
        i: sum(
            2 ** len(d.resolve(u).circles)
            for u in product((0, 1), repeat=3)
            if sum(u) == i
        )
        for i in range(4)
    }
    assert {i: c.rank(i) for i in c.degrees} == expected


def test_d_squared_generic_corpus(diagrams):
    for name, d in diagrams.items():
        c = build_complex(d, GENERIC)
        assert verify_d_squared(c) is None, name
        cg = build_complex(d, GENERIC, planar=True)
        assert verify_d_squared(cg) is None, name


def test_corrupted_sign_is_caught(diagrams):
    d = diagrams["trefoil_right"]
    c = build_complex(d, INT)
    m = c.diff[0]
    bad = dict(m.entries)
    some = sorted(bad)[0]
    bad[some] = -bad[some]
    c.diff[0] = SparseMatrix(m.ring, m.nrows, m.ncols, bad)
    assert verify_d_squared(c) is not None


def test_grading_contract_corpus(diagrams):
    for name, d in diagrams.items():
        for ring, planar in (
            (GENERIC, False),
            (INT, False),
            (QH, False),
            (GENERIC, True),
        ):
            c = build_complex(d, ring, planar)
            assert verify_grading(c) is None, (name, ring, planar)


def _shift_part(c, i, shift):
    """The entries of c.diff[i] that shift annular degree by ``shift``."""
    src, dst = c.bigrade[i], c.bigrade[i + 1]
    m = c.diff[i]
    kept = {
        (r, col): v
        for (r, col), v in m.entries.items()
        if dst[r][1] - src[col][1] == shift
    }
    return SparseMatrix.wrap(c.ring, m.nrows, m.ncols, kept)


def test_grading_allows_an_adeg_raise_only_when_planar(diagrams):
    d = diagrams["trefoil_right"]
    c = build_complex(d, GENERIC, planar=True)
    d2 = {i: _shift_part(c, i, 2) for i in c.diff}
    raised = replace(c, planar=False, diff=d2)
    assert any(m.entries for m in raised.diff.values())
    assert verify_grading(raised)[3] == "adeg"
    assert verify_grading(replace(raised, planar=True)) is None


def test_grading_finds_an_entry_of_the_wrong_qdeg(diagrams):
    c = build_complex(diagrams["trefoil_right"], GENERIC)
    i = min(i for i, m in c.diff.items() if m.entries)
    m = c.diff[i]
    entries = dict(m.entries)
    r, col = sorted(entries)[len(entries) // 2]
    entries[(r, col)] = entries[(r, col)] * A0
    wrong = SparseMatrix.wrap(GENERIC, m.nrows, m.ncols, entries)
    bad = replace(c, diff={**c.diff, i: wrong})
    assert verify_grading(bad) == (i, r, col, "qdeg")


def test_homological_support(diagrams):
    d = diagrams["hopf_null"]  # two negative crossings at base orientation
    c = build_complex(d, INT)
    assert c.degrees == [-2, -1, 0]
    assert c.n_plus == 0 and c.n_minus == 2


def test_specialization_commutes_with_assembly(diagrams):
    for name in ("hopf_essential", "essential_unknot_r1", "trefoil_left"):
        d = diagrams[name]
        generic = build_complex(d, GENERIC)
        for target in (INT, GF(2), QH):
            spec = specialize_complex(generic, target)
            direct = build_complex(d, target)
            assert spec.degrees == direct.degrees
            for i in spec.diff:
                assert spec.diff[i].entries == direct.diff[i].entries, (name, i)
            assert spec.bigrade == direct.bigrade


def test_specialization_to_evaluated_parameters_is_conjugate(diagrams):
    # after rescaling the essential bases and rotating trivial slots to
    # the idempotents, the evaluated generic complex matches the direct
    # localized build
    from annkh.frobenius import Frobenius

    d = diagrams["hopf_essential"]
    ring = alpha_eval(0, 1)
    generic = build_complex(d, GENERIC)
    spec = specialize_complex(generic, ring)
    direct = build_complex(d, ring)
    fr = Frobenius(ring)
    cube = build_cube(d, ring)

    def change_of_basis(i, c_from, c_to):
        # matrix of the identity from V-convention words to D-convention
        rows = {}
        for (deg, u), start in c_from.offsets.items():
            if deg != i:
                continue
            generic_space = tqft.state_space(d.resolve(u), GENERIC)
            space_v = tqft.StateSpace(ring, False, generic_space.slots)
            space_d = cube.spaces[u]
            for word in range(space_v.rank):
                # convert each slot basis vector through the ring algebra
                vecs = []
                for slot_v, slot_d, bit in zip(
                    space_v.slots, space_d.slots, word_bits(space_v, word)
                ):
                    src = fr.element(
                        slot_v.convention,
                        ring.one() if bit == 0 else ring.zero(),
                        ring.one() if bit == 1 else ring.zero(),
                    )
                    vecs.append(fr.convert(src, slot_d.convention).coords)
                off = c_to.offset(i, u)
                for bits in product((0, 1), repeat=len(vecs)):
                    coeff = ring.one()
                    for v, b in zip(vecs, bits):
                        coeff = ring.mul(coeff, v[b])
                    if ring.is_zero(coeff):
                        continue
                    rows[(off + bits_word(bits), start + word)] = coeff
        return SparseMatrix(ring, c_to.rank(i), c_from.rank(i), rows)

    for i in spec.degrees[:-1]:
        phi_src = change_of_basis(i, spec, direct)
        phi_dst = change_of_basis(i + 1, spec, direct)
        lhs = phi_dst @ spec.diff[i]
        rhs = direct.diff[i] @ phi_src
        assert lhs.entries == rhs.entries, i


def test_specialize_requires_generic():
    with pytest.raises(UnsupportedRingError):
        specialize_complex(
            build_complex_cached(), INT
        )


def build_complex_cached():
    from annkh.corpus import essential_unknot

    return build_complex(essential_unknot(), INT)


def test_beta_identities_corpus(diagrams):
    for name, d in diagrams.items():
        if d.n_crossings == 0:
            continue
        rep = verify_beta(build_complex(d, GENERIC, planar=True))
        assert all(v is None for v in rep.values()), (name, rep)


def four_product_beta(c):
    """Oracle for verify_beta: split the planar differential into d0 and
    d2 by annular-degree shift and take the four products separately."""
    d0 = {i: _shift_part(c, i, 0) for i in c.diff}
    d2 = {i: _shift_part(c, i, 2) for i in c.diff}
    report = {}
    for name, prod in (
        ("d0d0", lambda i: d0[i + 1] @ d0[i]),
        ("d0d2+d2d0", lambda i: (d0[i + 1] @ d2[i]) + (d2[i + 1] @ d0[i])),
        ("d2d2", lambda i: d2[i + 1] @ d2[i]),
    ):
        report[name] = None
        for i in c.degrees[:-2]:
            m = prod(i)
            if not m.is_zero():
                (r, col), v = sorted(m.entries.items())[0]
                report[name] = (i, r, col, v)
                break
    return report


def test_verify_beta_matches_the_four_product_oracle(diagrams):
    for name, d in sorted(diagrams.items()):
        c = build_complex(d, GENERIC, planar=True)
        assert verify_beta(c) == four_product_beta(c), name


def test_verify_beta_matches_the_oracle_on_a_corrupted_merge(
    diagrams, corrupted_merge
):
    failed = set()
    for name, d in sorted(diagrams.items()):
        c = build_complex(d, GENERIC, planar=True)
        rep = verify_beta(c)
        assert rep == four_product_beta(c), name
        failed |= {k for k, v in rep.items() if v is not None}
    assert "d0d0" in failed


def test_verify_beta_rejects_a_shift_outside_0_2_4(diagrams, corrupted_merge):
    c = build_complex(diagrams["trefoil_left"], GENERIC, planar=True)
    assert verify_beta(c)["d0d0"] is not None
    top = c.degrees[0] + 2
    odd = dict(c.bigrade)
    odd[top] = [(q, a + 1) for q, a in c.bigrade[top]]
    with pytest.raises(InvariantError, match="shifts adeg by"):
        verify_beta(replace(c, bigrade=odd))


def test_dump_is_deterministic(diagrams):
    d = diagrams["unknot_clasp"]
    a = build_complex(d, INT)
    b = build_complex(d, INT)
    assert a.offsets == b.offsets and a.bigrade == b.bigrade
    assert a.diff == b.diff
    assert a.degrees[0] == 0 and not all(m.is_zero() for m in a.diff.values())


def test_edge_blocks_are_disjoint(diagrams):
    """assemble places edge entries without summing: every entry of
    every edge map lands in the differential, none on another."""
    for name in ("trefoil_right", "braid3_r3_a", "unlink2_essential"):
        for planar in (False, True):
            cube = build_cube(diagrams[name], GENERIC, planar)
            c = assemble(cube)
            placed = sum(len(m.entries) for m in c.diff.values())
            assert placed == sum(len(e.map.entries) for e in cube.edges)


def test_gradedness_flags(diagrams):
    d = diagrams["essential_unknot_ccw"]
    c = build_complex(d, alpha_eval(0, 1))
    assert not c.qdeg_graded and c.adeg_graded
    assert [a for _, a in c.bigrade[0]] == [-1, 1]
    g = build_complex(d, GF(2))
    assert g.qdeg_graded and g.adeg_graded
    p = build_complex(d, INT, planar=True)
    assert p.qdeg_graded and not p.adeg_graded


def test_gf2_build(diagrams):
    c = build_complex(diagrams["trefoil_right"], GF(2))
    assert verify_d_squared(c) is None
    assert verify_grading(c) is None


def test_annular_parts_of_the_planar_cube_are_the_annular_cube(diagrams):
    # verify --ring generic takes the annular maps from the planar cube
    for name, d in sorted(diagrams.items()):
        planar = build_cube(d, GENERIC, planar=True)
        annular = build_cube(d, GENERIC)
        keys = [(e.u, e.v) for e in planar.edges]
        assert keys == [(e.u, e.v) for e in annular.edges], name
        for e, ea in zip(planar.edges, annular.edges):
            d0 = tqft.annular_parts(e.map)[0]
            assert d0.entries == ea.map.entries, (name, e.u, e.v)
            assert d0.declared_bidegree == ea.map.declared_bidegree


def test_verify_beta_needs_the_planar_complex(diagrams):
    c = build_complex(diagrams["hopf_null"], GENERIC)
    with pytest.raises(VariantRingMismatchError):
        verify_beta(c)


def test_annular_parts_are_the_truncations(diagrams):
    for name, d in sorted(diagrams.items()):
        for e in build_cube(d, GENERIC, planar=True).edges:
            d0, d2 = tqft.annular_parts(e.map)
            assert d0.entries == truncate_adeg(e.map, 0).entries, name
            assert d2.entries == truncate_adeg(e.map, 2).entries, name
