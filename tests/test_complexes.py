import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from annkh import complexes, corpus, tqft
from annkh.complexes import (
    _square,
    build_complex,
    verify_beta,
    verify_d_squared,
    verify_grading,
)
from annkh.errors import (
    InvariantError,
    UnsupportedRingError,
    VariantRingMismatchError,
)
from annkh.linalg import SparseMatrix, accumulate
from annkh.ring import A0, GENERIC, GF, INT, QH, alpha_eval

from conftest import (
    assemble,
    assembled,
    assembled_square,
    bits_word,
    build_cube,
    check_bidegree,
    one_block,
    placed_entries,
    sign_assignment,
    specialize_complex,
    truncate_adeg,
    verify_grading_oracle,
    word_bits,
)
from test_diagram import random_braids


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
    c = build_complex(diagrams["trefoil_right"], INT)
    rof, cof, items = c.blocks[0][0]
    (rc, v), *rest = sorted(items)
    bad = _with_row(c, 0, 0, (rof, cof, [(rc, -v), *rest]))
    assert verify_d_squared(bad) is not None


def test_grading_contract_corpus(diagrams):
    for name, d in diagrams.items():
        for ring, planar in (
            (GENERIC, False),
            (INT, False),
            (QH, False),
            (GENERIC, True),
            (GF(2), True),
            (alpha_eval(1, 3), False),
        ):
            c = build_complex(d, ring, planar)
            assert verify_grading(c) is None, (name, ring, planar)
            assert verify_grading_oracle(c) is None, (name, ring, planar)


def _shared_dict_mutated(planar):
    """T(2,5) over GENERIC with one value of an entry dict shared by
    several edges multiplied by a0, so every edge of that shape, of
    either sign, carries an entry of the wrong qdeg: the dict is taken
    from the placement memo of one build and mutated, and a second build
    through that memo places it again."""
    d = corpus.braid_closure([1] * 5, 2)
    placements = {}
    c = build_complex(d, GENERIC, planar, placements)
    blocks = [dict(items) for rows in c.blocks.values() for _, _, items in rows]
    uses = Counter()  # (id of an entry dict, sign) -> edges placing it
    for m in placements.values():
        if isinstance(m, tqft.LinearMap):
            negated = {k: -v for k, v in m.entries.items()}
            uses[id(m.entries), 0] += blocks.count(m.entries)
            uses[id(m.entries), 1] += blocks.count(negated)
    entries = next(
        m.entries for m in placements.values()
        if isinstance(m, tqft.LinearMap)
        and uses[id(m.entries), 0] + uses[id(m.entries), 1] > 2
        and uses[id(m.entries), 0] and uses[id(m.entries), 1]
    )
    key = sorted(entries)[len(entries) // 2]
    entries[key] = entries[key] * A0
    return build_complex(d, GENERIC, planar, placements)


def _bigrade_shifted(planar, coordinate):
    """T(2,5) over GENERIC with one generator's qdeg raised by 2 or its
    adeg by 1: a row of the middle degree that an entry reaches."""
    c = build_complex(corpus.braid_closure([1] * 5, 2), GENERIC, planar)
    i = c.degrees[len(c.degrees) // 2]
    rof, _, items = c.blocks[i - 1][-1]
    row = rof + max(r for (r, _), _ in items)
    q, a = c.bigrade[i][row]
    c.bigrade[i][row] = (q + 2, a) if coordinate == "qdeg" else (q, a + 1)
    return c


@pytest.mark.parametrize("planar", [False, True], ids=["annular", "planar"])
@pytest.mark.parametrize("mutation", ["shared_value", "qdeg", "adeg"])
def test_block_grading_finds_what_the_oracle_finds(planar, mutation):
    if mutation == "shared_value":
        c = _shared_dict_mutated(planar)
    else:
        c = _bigrade_shifted(planar, mutation)
    got = verify_grading(c)
    assert got is not None and got[3] == ("adeg" if mutation == "adeg" else "qdeg")
    assert got == verify_grading_oracle(c)


def _shift_part(c, shift):
    """i -> the entries of the assembled d^i that shift annular degree by
    ``shift``."""
    out = {}
    for i, m in assembled(c).items():
        src, dst = c.bigrade[i], c.bigrade[i + 1]
        out[i] = {
            (r, col): v
            for (r, col), v in m.entries.items()
            if dst[r][1] - src[col][1] == shift
        }
    return out


def test_grading_allows_an_adeg_raise_only_when_planar(diagrams):
    d = diagrams["trefoil_right"]
    c = build_complex(d, GENERIC, planar=True)
    d2 = _shift_part(c, 2)
    raised = replace(c, planar=False, blocks=one_block(d2))
    assert any(d2.values())
    assert verify_grading(raised)[3] == "adeg"
    assert verify_grading(replace(raised, planar=True)) is None


def test_grading_finds_an_entry_of_the_wrong_qdeg(diagrams):
    c = build_complex(diagrams["trefoil_right"], GENERIC)
    diff = {i: m.entries for i, m in assembled(c).items()}
    i = min(i for i, m in diff.items() if m)
    entries = dict(diff[i])
    r, col = sorted(entries)[len(entries) // 2]
    entries[(r, col)] = entries[(r, col)] * A0
    bad = replace(c, blocks=one_block({**diff, i: entries}))
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
            spec_diff, direct_diff = assembled(spec), assembled(direct)
            for i in spec_diff:
                assert spec_diff[i].entries == direct_diff[i].entries, (name, i)
            assert spec.bigrade == direct.bigrade


def test_specialization_to_evaluated_parameters_is_conjugate(diagrams):
    # after rescaling the essential bases and rotating trivial slots to
    # the idempotents, the evaluated generic complex matches the direct
    # localized build
    from annkh.frobenius import basis_change

    d = diagrams["hopf_essential"]
    ring = alpha_eval(0, 1)
    generic = build_complex(d, GENERIC)
    spec = specialize_complex(generic, ring)
    direct = build_complex(d, ring)
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
                # each slot basis vector on {1, X}, then on the D basis
                vecs = []
                for slot_v, slot_d, bit in zip(
                    space_v.slots, space_d.slots, word_bits(space_v, word)
                ):
                    d0, d1 = basis_change(ring, slot_v.convention)[0][bit]
                    one, x = basis_change(ring, slot_d.convention)[1]
                    vecs.append(tuple(d0 * u + d1 * v for u, v in zip(one, x)))
                off = c_to.offset(i, u)
                for bits in product((0, 1), repeat=len(vecs)):
                    coeff = ring.one()
                    for v, b in zip(vecs, bits):
                        coeff = ring.mul(coeff, v[b])
                    if ring.is_zero(coeff):
                        continue
                    rows[(off + bits_word(bits), start + word)] = coeff
        return SparseMatrix(ring, c_to.rank(i), c_from.rank(i), rows)

    spec_diff, direct_diff = assembled(spec), assembled(direct)
    for i in spec.degrees[:-1]:
        phi_src = change_of_basis(i, spec, direct)
        phi_dst = change_of_basis(i + 1, spec, direct)
        lhs = phi_dst @ spec_diff[i]
        rhs = direct_diff[i] @ phi_src
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
    d0, d2 = _shift_part(c, 0), _shift_part(c, 2)
    ring = c.ring
    report = {}
    for name, prod in (
        ("d0d0", lambda i: ring.matmul(d0[i + 1], d0[i])),
        ("d0d2+d2d0", lambda i: accumulate(
            ring, ring.matmul(d0[i + 1], d2[i]), ring.matmul(d2[i + 1], d0[i]).items()
        )),
        ("d2d2", lambda i: ring.matmul(d2[i + 1], d2[i])),
    ):
        report[name] = None
        for i in c.degrees[:-2]:
            m = prod(i)
            if m:
                (r, col), v = sorted(m.items())[0]
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


def _with_row(c, i, n, row):
    """c with row n of the blocks of degree i replaced by ``row``."""
    rows = list(c.blocks[i])
    rows[n] = row
    return replace(c, blocks={**c.blocks, i: rows})


def _three_braids(seed, count):
    """Seeded closed 3-braids of one to six crossings."""
    rng = random.Random(seed)
    out = {}
    for _ in range(count):
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(rng.randint(1, 6))]
        out[f"braid 3 {word}"] = corpus.braid_closure(word, 3)
    return out


def _reports(c):
    """What verify_d_squared and, on a planar complex, verify_beta say."""
    return verify_d_squared(c), verify_beta(c) if c.planar else None


def _oracle_reports(c):
    """_reports with the product taken on the assembled differential."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_square", assembled_square)
        return _reports(c)


SQUARE_CASES = pytest.mark.parametrize(
    "ring, planar",
    [
        (GENERIC, False),
        (GENERIC, True),
        (INT, False),
        (GF(2), True),
        (alpha_eval(1, 3), False),
    ],
    ids=["generic", "generic-planar", "int", "gf2-planar", "alpha-1-3"],
)


def _assert_squares_match_the_oracle(diagrams, ring, planar):
    """Every degree's product and both reports, corpus and 3-braids;
    the reports that are not None, by name."""
    failed = set()
    for name, d in {**diagrams, **_three_braids(71, 20)}.items():
        c = build_complex(d, ring, planar)
        for i in c.degrees[:-2]:
            assert _square(c, i) == assembled_square(c, i), (name, i)
        got = _reports(c)
        assert got == _oracle_reports(c), name
        if got[0] is not None:
            failed.add("d_squared")
        failed |= {k for k, v in (got[1] or {}).items() if v is not None}
    return failed


@SQUARE_CASES
def test_squares_read_off_the_blocks_are_the_assembled_products(diagrams, ring, planar):
    assert not _assert_squares_match_the_oracle(diagrams, ring, planar)


@SQUARE_CASES
def test_squares_match_the_oracle_on_a_corrupted_merge(
    diagrams, corrupted_merge, ring, planar
):
    assert "d_squared" in _assert_squares_match_the_oracle(diagrams, ring, planar)


GATE_CASES = {
    "T(2,5)": corpus.braid_closure([1] * 5, 2),
    "braid 3 mixed": corpus.braid_closure([1, -2, 1, 2, -1], 3),
}


@pytest.mark.parametrize(
    "ring, planar",
    [(GENERIC, False), (GENERIC, True), (INT, True), (alpha_eval(1, 3), False)],
    ids=["generic", "generic-planar", "int-planar", "alpha-1-3"],
)
def test_a_sign_flipped_on_one_block_row_is_reported(ring, planar):
    """Negating one edge makes each of its faces commute, so d^2 reads
    twice a path there, wherever the edge sits in its degree; the flipped
    row is a new items object, so its faces get keys of their own."""
    for name, d in GATE_CASES.items():
        c = build_complex(d, ring, planar)
        for i in c.degrees[:-1]:
            for n in sorted({0, len(c.blocks[i]) // 2, len(c.blocks[i]) - 1}):
                rof, cof, items = c.blocks[i][n]
                flipped = [(rc, ring.neg(v)) for rc, v in items]
                bad = _with_row(c, i, n, (rof, cof, flipped))
                got = _reports(bad)
                assert got[0] is not None, (name, i, n)
                assert got == _oracle_reports(bad), (name, i, n)


@pytest.mark.parametrize("planar", [False, True], ids=["annular", "planar"])
def test_a_block_row_moved_by_one_is_reported(planar):
    """A row offset off by one either straddles a vertex of C^{i+1},
    which the tiling check refuses, or leaves its faces unmatched."""
    for name, d in GATE_CASES.items():
        c = build_complex(d, GENERIC, planar)
        for i in c.degrees[:-1]:
            for n in sorted({0, len(c.blocks[i]) // 2, len(c.blocks[i]) - 1}):
                rof, cof, items = c.blocks[i][n]
                bad = _with_row(c, i, n, (rof + 1, cof, items))
                try:
                    got = _reports(bad)
                except InvariantError:
                    continue
                assert got[0] is not None, (name, i, n)


def test_a_block_straddling_a_vertex_raises(diagrams):
    c = build_complex(diagrams["trefoil_right"], GENERIC)
    rof, cof, items = c.blocks[0][0]
    bad = _with_row(c, 0, 0, (rof + 1, cof, items))
    with pytest.raises(InvariantError, match="a block of degree 1 at 5 reaches 6"):
        verify_d_squared(bad)


def test_dump_is_deterministic(diagrams):
    d = diagrams["unknot_clasp"]
    a = build_complex(d, INT)
    b = build_complex(d, INT)
    assert a.offsets == b.offsets and a.bigrade == b.bigrade
    a_diff = {i: m.entries for i, m in assembled(a).items()}
    assert a_diff == {i: m.entries for i, m in assembled(b).items()}
    assert a.degrees[0] == 0 and any(a_diff.values())


def test_edge_blocks_are_disjoint(diagrams):
    """Each cube edge is one block of its degree, at the offsets of its
    two vertices, inside their rectangle, and negated exactly on the
    edges of sign exponent 1.  So every (row, col) of a degree comes from
    exactly one block, inside the degree's ranks."""
    for name in ("trefoil_right", "braid3_r3_a", "unlink2_essential"):
        for planar in (False, True):
            cube = build_cube(diagrams[name], GENERIC, planar)
            c = build_complex(diagrams[name], GENERIC, planar)
            edges = {}
            for e in cube.edges:
                edges.setdefault(sum(e.u) - c.n_minus, []).append(e)
            assert sorted(c.blocks) == sorted(edges)
            for i, blocks in c.blocks.items():
                assert len(blocks) == len(edges[i])
                placed = {}
                for (rof, cof, items), e in zip(blocks, edges[i]):
                    assert (rof, cof) == (c.offset(i + 1, e.v), c.offset(i, e.u))
                    want = {
                        k: -v if e.sign_exponent == 1 else v
                        for k, v in e.map.entries.items()
                    }
                    assert dict(items) == want, (name, e.u, e.v)
                    for (r, col), v in items:
                        assert r < cube.spaces[e.v].rank and col < cube.spaces[e.u].rank
                        assert (rof + r, cof + col) not in placed, (name, e.u, e.v)
                        placed[(rof + r, cof + col)] = v
                assert all(
                    r < c.rank(i + 1) and col < c.rank(i) for r, col in placed
                ), (name, planar, i)


def _placement_shape(cube, e):
    """What an edge's placement depends on: the local table's key, the
    slot counts and the involved and uninvolved slots."""
    sd, dom, cod = e.descriptor, cube.spaces[e.u], cube.spaces[e.v]
    table_key = (
        cube.ring,
        tuple(dom.slots[s].convention for s in sd.dom_involved),
        tuple(cod.slots[s].convention for s in sd.cod_involved),
        cube.planar,
    )
    return (
        table_key,
        len(dom.slots),
        len(cod.slots),
        sd.dom_involved,
        sd.cod_involved,
        sd.uninvolved,
    )


@pytest.mark.parametrize(
    "ring, planar", [(INT, False), (GENERIC, True)], ids=["int", "generic-planar"]
)
def test_edges_of_one_shape_share_one_placement(ring, planar):
    cube = build_cube(corpus.braid_closure([1] * 7, 2), ring, planar)
    shapes = {_placement_shape(cube, e) for e in cube.edges}
    placements = {id(e.map.entries) for e in cube.edges}
    pairs = {(_placement_shape(cube, e), id(e.map.entries)) for e in cube.edges}
    assert len(cube.edges) == 448
    assert len(placements) == len(shapes) == len(pairs) == 27


@pytest.mark.parametrize(
    "ring, planar", [(INT, False), (GENERIC, True)], ids=["int", "generic-planar"]
)
def test_vertices_and_edges_of_one_shape_share_one_object(ring, planar):
    """The 448 rows of T(2,7) place the entries of 27 maps between 8
    spaces, one object each, read off the placement memo; rows of one
    map and sign share one items object."""
    placements = {}
    c = build_complex(corpus.braid_closure([1] * 7, 2), ring, planar, placements)
    spaces, maps = {}, {}
    for key, m in placements.items():
        if not isinstance(m, tqft.LinearMap):
            continue
        for sp in (m.domain, m.codomain):
            spaces.setdefault(sp.slots, set()).add(id(sp))
        _, _, dom_inv, cod_inv, pairs, _ = key
        shape = (m.domain.slots, m.codomain.slots, dom_inv, cod_inv, pairs)
        maps.setdefault(shape, set()).add(id(m))
    rows = [row for rows in c.blocks.values() for row in rows]
    items = {id(it): dict(it) for _, _, it in rows}
    assert (len(c.offsets), len(spaces)) == (128, 8)
    assert (len(rows), len(maps)) == (448, 27)
    assert all(len(ids) == 1 for ids in [*spaces.values(), *maps.values()])
    entries = [m.entries for m in placements.values() if isinstance(m, tqft.LinearMap)]
    signed = entries + [{k: ring.neg(v) for k, v in e.items()} for e in entries]
    assert len(items) <= len(signed)
    assert all(it in signed for it in items.values())


@pytest.mark.parametrize(
    "ring, planar",
    [(INT, False), (GF(2), False), (alpha_eval(1, 3), False), (GENERIC, True)],
    ids=["int", "gf2", "alpha-1-3", "generic-planar"],
)
def test_build_complex_matches_the_reference_cube(diagrams, ring, planar):
    """The int rows of the degree-by-degree walk hold what the reference
    cube of objects holds: the same bigrade and offsets, and in each
    degree the same placed, signed entries, each placed once; and the
    walk placed its maps on the slots the reference edges' descriptors
    name."""
    cases = {**diagrams, **random_braids(67, 30, 6)}
    for name, d in cases.items():
        placements = {}
        got = build_complex(d, ring, planar, placements)
        cube = build_cube(d, ring, planar)
        want = assemble(cube)
        placed_on = {
            (m.domain.slots, m.codomain.slots, *key[2:5])
            for key, m in placements.items()
            if isinstance(m, tqft.LinearMap)
        }
        assert placed_on == {
            (cube.spaces[e.u].slots, cube.spaces[e.v].slots, e.descriptor.dom_involved,
             e.descriptor.cod_involved, e.descriptor.uninvolved)
            for e in cube.edges
        }, name
        assert got.degrees == want.degrees, name
        assert got.bigrade == want.bigrade, name
        assert got.offsets == want.offsets, name
        placed = placed_entries(got)
        assert placed == placed_entries(want), name
        assert all(len(s) == n for s, n in placed.values()), name


def test_cubes_share_no_placement(diagrams):
    d = diagrams["trefoil_right"]
    first, second = build_cube(d, INT), build_cube(d, INT)
    ids = [{id(e.map.entries) for e in cube.edges} for cube in (first, second)]
    assert ids[0] and not ids[0] & ids[1]
    assert [e.map for e in first.edges] == [e.map for e in second.edges]


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
            d0 = truncate_adeg(e.map, 0)
            assert d0.entries == ea.map.entries, (name, e.u, e.v)
            assert check_bidegree(ea.map, 1, 0), (name, e.u, e.v)


def test_verify_beta_needs_the_planar_complex(diagrams):
    c = build_complex(diagrams["hopf_null"], GENERIC)
    with pytest.raises(VariantRingMismatchError):
        verify_beta(c)

