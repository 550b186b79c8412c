import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from annkh import homology as hom
from annkh.complexes import ChainComplexData, build_complex
from annkh.diagram import AnnularDiagram, all_orientations, cube_edge_pairs
from annkh.errors import UnsupportedRingError
from annkh.homology import (
    BigradedHomology,
    cancel_units,
    canonical_generator,
    canonical_span_rank,
    homology,
    lee_complex,
    lee_rank,
    poincare_table,
    smith_normal_form,
    verify_canonical,
)
from annkh.linalg import SparseMatrix, packed, row_form
from annkh.ring import A1, GENERIC, GF, INT, QH, RAT, alpha_eval
from annkh.corpus import COMPONENTS, R_PAIRS, braid_closure

from conftest import (
    assembled,
    dense_snf_oracle,
    from_rows,
    hpoly,
    is_cycle_oracle,
    one_block,
    per_slice_homology_oracle,
    slice_positions,
    span_rank_oracle,
)


def field_rank(ring, dense):
    """Rank of a dense matrix over a field by Gaussian elimination: the
    reference rank for the sparse routines."""
    if not dense or not dense[0]:
        return 0
    rows = [list(r) for r in dense]
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not ring.is_zero(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            v = rows[r][col]
            if ring.is_zero(v):
                continue
            f, _ = ring.divmod(v, pv)
            row = rows[r]
            prow = rows[rank]
            for c in range(col, ncols):
                row[c] = ring.sub(row[c], ring.mul(f, prow[c]))
        rank += 1
        col += 1
    return rank


def mat(ring, rows):
    return from_rows(ring, [[ring.from_int(x) if isinstance(x, int) else x for x in row] for row in rows])


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_examples():
    assert smith_normal_form(mat(INT, [[2]])).invariants == [2]
    res = smith_normal_form(mat(QH, [[A1, 0], [0, A1 * A1]]))
    assert res.invariants == [A1, A1 * A1]
    zero = smith_normal_form(mat(INT, [[0]]))
    assert zero.rank == 0 and zero.invariants == []


def det(rows):
    """Integer determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, v in enumerate(rows[0])
        if v
    )


def determinantal_divisors(rows):
    """d_k = gcd of all k x k minors, for k = 1 .. min(shape); d_0 = 1."""
    nr, nc = len(rows), len(rows[0])
    out = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, det([[rows[r][c] for c in cs] for r in rs]))
        out.append(g)
    return out


def test_snf_divisibility_and_determinantal_divisors():
    rng = random.Random(7)
    cases = []
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        cases.append([[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)])
    # diagonal but not a divisibility chain: the pivot must be fixed up
    cases += [[[2, 0], [0, 3]], [[4, 0, 0], [0, -6, 0], [0, 0, 10]]]
    for rows in cases:
        res = smith_normal_form(mat(INT, rows))
        d = determinantal_divisors(rows)
        rank = max(k for k, dk in enumerate(d) if dk)
        assert res.rank == len(res.invariants) == rank
        assert res.invariants == [d[k] // d[k - 1] for k in range(1, rank + 1)]
        assert all(v > 0 for v in res.invariants)
        assert all(b % a == 0 for a, b in zip(res.invariants, res.invariants[1:]))


def test_snf_over_fields_gives_rank():
    rng = random.Random(8)
    for ring in (RAT, GF(5), alpha_eval(0, 1)):
        for _ in range(10):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            rows = [
                [ring.from_int(rng.randint(-4, 4)) for _ in range(nc)]
                for _ in range(nr)
            ]
            m = from_rows(ring, rows)
            res = smith_normal_form(m)
            assert res.rank == field_rank(ring, rows)
            pivots = cancel_units(ring, *row_form(m.entries))
            assert len(pivots) == field_rank(ring, rows)
            assert all(v == ring.one() for v in res.invariants)


def test_snf_rejects_generic():
    with pytest.raises(UnsupportedRingError):
        smith_normal_form(SparseMatrix(GENERIC, 1, 1, {}))


def test_snf_rational_polynomial_matrix():
    h = A1
    m = mat(QH, [[h, h * h], [h * h, h * h * h]])
    res = smith_normal_form(m)
    assert res.invariants == [h]


def _random_hpoly(rng):
    return hpoly(*(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))))


SNF_ORACLE_RINGS = {
    "int": (INT, lambda rng: rng.randint(-6, 6)),
    "gf3": (GF(3), lambda rng: rng.randint(0, 2)),
    "rat": (RAT, lambda rng: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
    "qh": (QH, _random_hpoly),
}


@pytest.mark.parametrize("name", sorted(SNF_ORACLE_RINGS))
def test_snf_matches_dense_oracle(name):
    ring, draw = SNF_ORACLE_RINGS[name]
    rng = random.Random(sorted(SNF_ORACLE_RINGS).index(name) + 40)
    zero, one = ring.zero(), ring.one()
    two = ring.add(one, one)
    three = ring.add(two, one)
    # diagonals that are not divisibility chains
    cases = [[[two, zero], [zero, three]], [[three, zero, zero], [zero, two, two]]]
    if ring == QH:
        h = A1
        cases.append([[h * h, zero], [zero, h + one]])
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.random()
        cases.append([
            [draw(rng) if rng.random() < density else ring.zero() for _ in range(nc)]
            for _ in range(nr)
        ])
    for rows in cases:
        m = from_rows(ring, rows)
        assert smith_normal_form(m) == dense_snf_oracle(m), rows


# ---------------------------------------------------------------------------
# unit cancellation against the dense Smith normal form oracle

H = A1
FIELD_CASES = {"gf2", "gf5", "rat", "alpha"}
CANCEL_CASES = {
    "int": (INT, [1, -1, 1, -1, 2, -3, 4]),
    "int_even": (INT, [2, -2, 4, 6, -8]),
    "int_pm12": (INT, [1, -1, 2, -2]),
    "gf2": (GF(2), [1]),
    "gf5": (GF(5), [1, 2, 3, 4]),
    "rat": (RAT, [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]),
    "alpha": (alpha_eval(0, 1), [Fraction(1), Fraction(-1), Fraction(3, 4)]),
    "qh": (QH, [QH.from_int(1), QH.from_int(-2), H, H * H, H + 1, 2 * H]),
}


@pytest.mark.parametrize("name", sorted(CANCEL_CASES))
def test_cancel_units_matches_dense_snf(name):
    ring, values = CANCEL_CASES[name]
    rng = random.Random(sorted(CANCEL_CASES).index(name))
    remainders = 0
    for _ in range(30):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        entries = {
            (r, c): rng.choice(values)
            for r in range(nr)
            for c in range(nc)
            if rng.random() < 0.4
        }
        m = SparseMatrix(ring, nr, nc, entries)
        rows, cols = row_form(m.entries)
        pivots = cancel_units(ring, rows, cols)
        rest = packed(ring, rows, cols)
        assert len(set(pivots)) == len(pivots)
        assert all(0 <= p < nr for p in pivots)
        assert not rows.keys() & set(pivots)  # eliminated in place
        assert rest.nrows <= nr - len(pivots)
        assert not any(ring.is_unit(v) for v in rest.entries.values())
        dense = dense_snf_oracle(m)
        res = smith_normal_form(rest)
        assert len(pivots) + res.rank == dense.rank
        # the cancelled rows are independent rows of m
        pivot_block = m.submatrix(pivots, list(range(nc)))
        assert dense_snf_oracle(pivot_block).rank == len(pivots)
        non_units = [v for v in res.invariants if not ring.is_unit(v)]
        assert non_units == [v for v in dense.invariants if not ring.is_unit(v)]
        remainders += bool(rest.entries)
    # away from fields the remainder-SNF path must be exercised too
    assert (remainders > 0) == (name not in FIELD_CASES), remainders


def test_cancel_units_keeps_surviving_order():
    # column 3 empties when row 0 is cancelled, and packing drops it
    m = mat(INT, [[2, 0, 1, 5], [0, 3, 0, 0], [4, 0, 0, 0]])
    rows, cols = row_form(m.entries)
    assert cancel_units(INT, rows, cols) == [0]
    assert rows == {1: {1: 3}, 2: {0: 4}}  # on the positions of m
    rest = packed(INT, rows, cols)
    assert (rest.nrows, rest.ncols) == (2, 2)
    assert rest.entries == {(0, 1): 3, (1, 0): 4}


def test_the_snf_input_keeps_what_the_benchmark_tracer_reads():
    """perfbench wraps these three methods by name from the class dict and
    reads the shape and entries of the Smith normal form's argument."""
    assert {"__matmul__", "submatrix", "to_dense"} <= set(SparseMatrix.__dict__)
    rows, cols = row_form({(0, 0): 2, (1, 2): 4})
    m = packed(INT, rows, cols)
    assert (m.nrows, m.ncols, m.entries) == (2, 2, {(0, 0): 2, (1, 1): 4})


# ---------------------------------------------------------------------------
# cancellation carried across degrees


def _non_units(ring, res):
    return [v for v in res.invariants if not ring.is_unit(v)]


@pytest.mark.parametrize("ring", [INT, GF(2)], ids=repr)
def test_cancelled_rows_leave_the_next_differential_alone(diagrams, ring):
    """Per slice, d^{i+1} without the columns that d^i cancelled against
    a unit has the rank and non-unit invariants of the whole d^{i+1}."""
    checked = 0
    for name, d in diagrams.items():
        for planar in (False, True):
            c = build_complex(d, ring, planar)
            diff = assembled(c)
            slices = {i: slice_positions(c, i) for i in c.degrees}
            for i in c.degrees[:-2]:
                for key, cols in slices[i].items():
                    mid, top = slices[i + 1].get(key), slices[i + 2].get(key)
                    if not mid or not top:
                        continue
                    block = diff[i].submatrix(mid, cols)
                    pivots = cancel_units(ring, *row_form(block.entries))
                    dropped = {mid[p] for p in pivots}
                    kept = [p for p in mid if p not in dropped]
                    full = dense_snf_oracle(diff[i + 1].submatrix(top, mid))
                    cut = dense_snf_oracle(diff[i + 1].submatrix(top, kept))
                    assert cut.rank == full.rank, (name, planar, i, key)
                    assert _non_units(ring, cut) == _non_units(ring, full)
                    checked += bool(pivots and full.rank)
    assert checked > 20, checked


ORACLE_RINGS = {
    "int": INT,
    "gf2": GF(2),
    "gf3": GF(3),
    "rat": RAT,
    "qh": QH,
    "alpha:1,3": alpha_eval(1, 3),
    "alpha:0,1": alpha_eval(0, 1),
}


@pytest.fixture(scope="module")
def oracle_diagrams(diagrams):
    """The corpus plus 15 seeded 3- and 4-strand braid closures."""
    rng = random.Random(47)
    cases = dict(diagrams)
    for _ in range(15):
        n = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(3, 4))]
        cases[f"braid {n} {word}"] = braid_closure(word, n)
    return cases


def _euclidean_step_complex(ring):
    """R -> R^2 -> R by (2, 3) and then (3, -2).  Over Z no entry is a
    unit, and the SNF of d^0 pivots on the row of 3 after one Euclidean
    step; that row is not cancelled, and d^1 needs its column: without
    it d^1 is (3) and H^2 gains Z/3."""
    g = [(0, 0)]
    return ChainComplexData(
        ring, False, 0, 0, [0, 1, 2],
        bigrade={0: g, 1: g * 2, 2: g},
        blocks=one_block(
            {0: mat(ring, [[2], [3]]).entries, 1: mat(ring, [[3, -2]]).entries}
        ),
    )


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_homology_matches_per_slice_oracle(oracle_diagrams, name):
    ring = ORACLE_RINGS[name]
    cases = {"euclidean step": _euclidean_step_complex(ring)}
    for label, d in oracle_diagrams.items():
        for planar in (False, True):
            cases[label, planar] = build_complex(d, ring, planar)
    for label, c in cases.items():
        expect = per_slice_homology_oracle(c).rank_table()
        assert homology(c).rank_table() == expect, label


def test_homology_reads_the_blocks(diagrams):
    for name in ("trefoil_right", "hopf_essential", "braid3_r3_a"):
        c = build_complex(diagrams[name], INT)
        assert not hasattr(c, "diff"), name  # nothing assembles the blocks
        assert homology(c).rank_table() == per_slice_homology_oracle(c).rank_table()


def test_unit_invariant_of_a_unit_free_slice_is_not_torsion():
    # no entry is a unit, yet the Smith form is diag(1, 8)
    grades = [(0, 0), (0, 0)]
    c = ChainComplexData(
        INT, False, 0, 0, [0, 1],
        bigrade={0: grades, 1: grades},
        blocks=one_block({0: mat(INT, [[2, 3], [0, 4]]).entries}),
    )
    assert homology(c).entries == {(1, 0, 0): (0, (8,))}


# ---------------------------------------------------------------------------
# homology of the corpus


def test_unknot_homologies(diagrams):
    c = build_complex(diagrams["trivial_unknot"], INT)
    assert homology(c).entries == {
        (0, -1, 0): (1, ()),
        (0, 1, 0): (1, ()),
    }
    c = build_complex(diagrams["essential_unknot_ccw"], INT)
    assert homology(c).entries == {
        (0, -1, -1): (1, ()),
        (0, 1, 1): (1, ()),
    }


def test_euler_characteristic_per_bigrade(diagrams):
    for name, d in diagrams.items():
        c = build_complex(d, INT)
        h = homology(c)
        chain = {}
        for i in c.degrees:
            for q, a in c.bigrade[i]:
                chain[(q, a)] = chain.get((q, a), 0) + (-1) ** i
        hom = {}
        for (i, q, a), (rank, _) in h.entries.items():
            hom[(q, a)] = hom.get((q, a), 0) + (-1) ** i * rank
        for key in set(chain) | set(hom):
            assert chain.get(key, 0) == hom.get(key, 0), (name, key)


def sl2_defects(h):
    """Where the rank table, grouped by (i, q - a), fails to be the weight
    table of an sl2 representation with the annular degree as weight:
    symmetric under a -> -a and unimodal toward a = 0."""
    groups = {}
    for (i, q, a), (rank, _) in h.entries.items():
        groups.setdefault((i, q - a), {})[a] = rank
    bad = []
    for key, ranks in groups.items():
        for a, rank in ranks.items():
            if ranks.get(-a, 0) != rank:
                bad.append((key, a, "not symmetric"))
            if abs(a) >= 2 and ranks.get(abs(a) - 2, 0) < rank:
                bad.append((key, a, "not unimodal"))
    return bad


def test_sl2_weight_symmetry(diagrams):
    # Grigsby-Licata-Wehrli (arXiv:1505.04386): sl2 acts on annular
    # Khovanov homology with the annular degree as the weight
    rng = random.Random(31)
    cases = dict(diagrams)
    for k in range(12):
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, 4))]
        cases[f"braid {n} {word}"] = braid_closure(word, n)
    for name, d in cases.items():
        for ring in (RAT, GF(2), GF(3)):
            h = homology(build_complex(d, ring))
            assert h.entries, (name, ring)
            assert sl2_defects(h) == [], (name, ring)


def test_sl2_check_rejects_a_lopsided_table():
    h = BigradedHomology(
        RAT, {(0, 2, 2): (1, ()), (0, 0, 0): (1, ()), (0, -2, -2): (1, ())}
    )
    assert sl2_defects(h) == []
    h.entries[(0, 2, 2)] = (2, ())
    assert len(sl2_defects(h)) == 3


def test_lee_rank_corpus(diagrams):
    for name, d in diagrams.items():
        assert lee_rank(d) == 2 ** COMPONENTS[name], name


def test_lee_rank_other_evaluation(diagrams):
    assert lee_rank(diagrams["hopf_essential"], 2, 5) == 4


def test_poincare_table_shape(diagrams):
    c = build_complex(diagrams["essential_unknot_ccw"], INT)
    rows = poincare_table(homology(c))
    assert rows == [(0, -1, -1, 1, "-"), (0, 1, 1, 1, "-")]
    empty = BigradedHomology(INT, {})
    assert poincare_table(empty) == []


def test_alternating_rank_sum_matches_table(diagrams):
    d = diagrams["trefoil_left"]
    c = build_complex(d, INT)
    h = homology(c)
    rows = poincare_table(h)
    total = {}
    for i, q, a, rank, _ in rows:
        total[(q, a)] = total.get((q, a), 0) + (-1) ** i * rank
    chain = {}
    for i in c.degrees:
        for q, a in c.bigrade[i]:
            chain[(q, a)] = chain.get((q, a), 0) + (-1) ** i
    for key, val in total.items():
        assert chain.get(key, 0) == val


# ---------------------------------------------------------------------------
# the planar theory reproduces classical integral Khovanov homology
#
# Literature values with the quantum grading negated (1 sits in degree
# -1 here, opposite the usual convention).


def _planar_table(d):
    h = homology(build_complex(d, INT, planar=True))
    return {(i, q): val for (i, q, _), val in h.entries.items()}


def test_planar_unknots(diagrams):
    for name in ("trivial_unknot", "essential_unknot_ccw"):
        assert _planar_table(diagrams[name]) == {
            (0, -1): (1, ()),
            (0, 1): (1, ()),
        }


def test_planar_positive_hopf(diagrams):
    assert _planar_table(diagrams["hopf_essential"]) == {
        (0, 0): (1, ()),
        (0, -2): (1, ()),
        (2, -4): (1, ()),
        (2, -6): (1, ()),
    }


def test_planar_negative_hopf(diagrams):
    assert _planar_table(diagrams["hopf_null"]) == {
        (0, 0): (1, ()),
        (0, 2): (1, ()),
        (-2, 4): (1, ()),
        (-2, 6): (1, ()),
    }


def test_planar_trefoils(diagrams):
    assert _planar_table(diagrams["trefoil_right"]) == {
        (0, -1): (1, ()),
        (0, -3): (1, ()),
        (2, -5): (1, ()),
        (3, -9): (1, ()),
        (3, -7): (0, (2,)),
    }
    assert _planar_table(diagrams["trefoil_left"]) == {
        (0, 1): (1, ()),
        (0, 3): (1, ()),
        (-2, 5): (1, ()),
        (-2, 7): (0, (2,)),
        (-3, 9): (1, ()),
    }


def test_planar_theory_ignores_annular_embedding(diagrams):
    # the annulus is irrelevant to the planar theory: both trefoil
    # diagrams of the same knot type give equal planar tables
    a = _planar_table(diagrams["braid3_r3_a"])
    b = _planar_table(diagrams["braid3_r3_b"])
    assert a == b


# ---------------------------------------------------------------------------
# canonical generators


def test_canonical_single_essential_circle(diagrams):
    gen = canonical_generator(diagrams["essential_unknot_ccw"], (False,))
    # counterclockwise: depth 0 plus 1 -> letter b -> vbar0, adeg -1
    assert gen.letters == ("b",)
    assert gen.word == 0
    assert gen.adeg == -1
    gen = canonical_generator(diagrams["essential_unknot_ccw"], (True,))
    assert gen.letters == ("a",) and gen.word == 1 and gen.adeg == 1


def test_canonical_trivial_circle(diagrams):
    gen = canonical_generator(diagrams["trivial_unknot"], (False,))
    # counterclockwise trivial circle: letter b picks the idempotent e1
    assert gen.letters == ("b",) and gen.word == 1 and gen.adeg == 0


def test_canonical_cycles_and_adeg_corpus(diagrams, monkeypatch):
    traced = []
    resolve = AnnularDiagram.resolve
    monkeypatch.setattr(
        AnnularDiagram, "resolve", lambda d, u: traced.append(u) or resolve(d, u)
    )
    for name, d in diagrams.items():
        c = lee_complex(d)
        for o in all_orientations(d):
            traced.clear()
            rep = verify_canonical(d, o, c)
            assert rep.is_cycle, (name, o)
            assert rep.adeg == rep.expected_adeg, (name, o)
            # each report traces its oriented resolution once
            assert len(traced) == 1, (name, o)


def test_canonical_span_corpus(diagrams):
    for name in ("hopf_null", "hopf_essential", "trefoil_right", "braid3_r3_a"):
        d = diagrams[name]
        gens = [canonical_generator(d, o) for o in all_orientations(d)]
        assert canonical_span_rank(lee_complex(d), gens) == 2 ** COMPONENTS[name]


def test_canonical_checks_match_the_assembled_oracle(diagrams):
    for name, d in diagrams.items():
        c = lee_complex(d)
        gens = []
        for o in all_orientations(d):
            rep = verify_canonical(d, o, c)
            assert rep.is_cycle == is_cycle_oracle(c, rep.generator), (name, o)
            gens.append(rep.generator)
        assert canonical_span_rank(c, gens) == span_rank_oracle(c, gens), name


def test_a_word_whose_column_has_entries_is_no_cycle(diagrams, monkeypatch):
    """Every word of the canonical generator's vertex, each from its
    labels in place of the canonical ones: the cycle test is the
    oracle's, and some word is no cycle."""
    d = diagrams["trefoil_right"]
    c = lee_complex(d)
    o = next(iter(all_orientations(d)))
    gen = canonical_generator(d, o)
    reports = []
    for labels in product((0, 1), repeat=len(gen.letters)):
        monkeypatch.setattr(AnnularDiagram, "canonical_labels", lambda *_: labels)
        rep = verify_canonical(d, o, c)
        assert rep.generator.letters == tuple("ab"[x] for x in labels)
        assert rep.is_cycle == is_cycle_oracle(c, rep.generator), labels
        reports.append(rep)
    assert sorted(rep.generator.word for rep in reports) == [*range(len(reports))]
    assert any(rep.generator == gen and rep.ok for rep in reports)
    assert any(not rep.is_cycle and not rep.ok for rep in reports)


def test_trefoil_canonical_adeg_values(diagrams):
    # two parallel strands around the puncture: winding +-2, two circles
    reports = [
        verify_canonical(diagrams["trefoil_right"], o)
        for o in all_orientations(diagrams["trefoil_right"])
    ]
    assert sorted(r.adeg for r in reports) == [-2, 2]


# ---------------------------------------------------------------------------
# Reidemeister invariance


@pytest.mark.parametrize("move", ["r1", "r2"])
@pytest.mark.parametrize("ring", [INT, GF(2), QH, alpha_eval(0, 1)], ids=repr)
def test_reidemeister_invariance(diagrams, move, ring):
    a, b = R_PAIRS[move]
    ha = homology(build_complex(diagrams[a], ring))
    hb = homology(build_complex(diagrams[b], ring))
    assert ha.rank_table() == hb.rank_table(), move


# ---------------------------------------------------------------------------
# independent dense oracle over the rationals
#
# Rebuilt from scratch: the non-equivariant saddle rules are hardcoded,
# classification redone from circle edge sets, dense Gaussian
# elimination replaces the sparse Smith machinery.


def _oracle_classify(d, rd_u, rd_v, crossing):
    incident = set(d.crossings[crossing])
    ids_u = [d.edge_ids(c.edges) for c in rd_u.circles]
    ids_v = [d.edge_ids(c.edges) for c in rd_v.circles]
    dom = [i for i, ids in enumerate(ids_u) if ids & incident]
    cod = [j for j, ids in enumerate(ids_v) if ids & incident]
    match = {}
    keys = {ids: j for j, ids in enumerate(ids_v)}
    for i, ids in enumerate(ids_u):
        if i not in dom:
            match[i] = keys[ids]
    return dom, cod, match


def _oracle_local(rd_u, rd_v, dom, cod):
    """Maps as {in bits: {out bits: rational}} on the involved circles,
    from the non-equivariant annular rules."""
    ess_u = [rd_u.circles[i].essential for i in dom]
    ess_v = [rd_v.circles[j].essential for j in cod]
    F = Fraction
    if len(dom) == 2:
        if not any(ess_u):
            return {  # trivial merge: plain multiplication
                (0, 0): {(0,): F(1)},
                (0, 1): {(1,): F(1)},
                (1, 0): {(1,): F(1)},
            }
        if all(ess_u):
            return {(1, 0): {(1,): F(1)}, (0, 1): {(1,): F(1)}}
        # essential + trivial, essential slot listed first below
        flip = not ess_u[0]
        table = {(0, 0): {(0,): F(1)}, (1, 0): {(1,): F(1)}}
        if flip:
            return {(b, a): v for (a, b), v in table.items()}
        return table
    if not any(ess_v):
        return {  # trivial split: plain comultiplication
            (0,): {(0, 1): F(1), (1, 0): F(1)},
            (1,): {(1, 1): F(1)},
        }
    if all(ess_v):
        return {(0,): {(0, 1): F(1), (1, 0): F(1)}}
    flip = not ess_v[0]
    table = {(0,): {(0, 1): F(1)}, (1,): {(1, 1): F(1)}}
    if flip:
        return {k: {(b, a): v for (a, b), v in img.items()} for k, img in table.items()}
    return table


def _oracle_edge_matrix(d, u, v, crossing):
    rd_u, rd_v = d.resolve(u), d.resolve(v)
    dom, cod, match = _oracle_classify(d, rd_u, rd_v, crossing)
    local = _oracle_local(rd_u, rd_v, dom, cod)
    nu, nv = len(rd_u.circles), len(rd_v.circles)
    out = {}
    for word in product((0, 1), repeat=nu):
        key_in = tuple(word[i] for i in dom)
        for key_out, val in local.get(key_in, {}).items():
            bits = [0] * nv
            for pos, j in enumerate(cod):
                bits[j] = key_out[pos]
            for i, j in match.items():
                bits[j] = word[i]
            out[(tuple(bits), word)] = val
    return out


def _oracle_homology_ranks(d):
    """Ranks per homological degree over the rationals."""
    n = d.n_crossings
    n_plus, n_minus = d.n_plus_minus()
    degrees = list(range(-n_minus, n_plus + 1))
    vertex = {i: sorted(u for u in product((0, 1), repeat=n) if sum(u) == i + n_minus)
              for i in degrees}
    basis = {}
    for i in degrees:
        bl = []
        for u in vertex[i]:
            for w in product((0, 1), repeat=len(d.resolve(u).circles)):
                bl.append((u, w))
        basis[i] = bl
    diffs = {}
    for i in degrees[:-1]:
        rows = {b: r for r, b in enumerate(basis[i + 1])}
        dense = [[Fraction(0)] * len(basis[i]) for _ in basis[i + 1]]
        for col, (u, w) in enumerate(basis[i]):
            for crossing, v in cube_edge_pairs(d, u):
                sign = (-1) ** (sum(u[:crossing]) % 2)
                for (wout, win), val in _oracle_edge_matrix(d, u, v, crossing).items():
                    if win != w:
                        continue
                    dense[rows[(v, wout)]][col] += sign * val
        diffs[i] = dense
    ranks = {}
    for i in degrees:
        dim = len(basis[i])
        rk_out = field_rank(RAT, diffs[i]) if i in diffs else 0
        rk_in = field_rank(RAT, diffs[i - 1]) if (i - 1) in diffs else 0
        ranks[i] = dim - rk_out - rk_in
    return ranks


def test_rational_ranks_match_dense_oracle(diagrams):
    for name, d in diagrams.items():
        got = homology(build_complex(d, RAT))
        per_degree = {}
        for (i, _, _), (rank, _) in got.entries.items():
            per_degree[i] = per_degree.get(i, 0) + rank
        expect = {i: r for i, r in _oracle_homology_ranks(d).items() if r}
        assert per_degree == expect, name


# ---------------------------------------------------------------------------
# sizes the dense Smith normal form could not afford: T(2,8), 6564 generators


@pytest.fixture(scope="module")
def torus_2_8():
    d = braid_closure([1] * 8, 2)
    d.ensure_valid()
    return d


def test_universal_coefficients_z_to_f2_on_t28(torus_2_8):
    z = homology(build_complex(torus_2_8, INT)).entries
    f2 = homology(build_complex(torus_2_8, GF(2))).entries

    def even(i, q, a):
        return sum(1 for t in z.get((i, q, a), (0, ()))[1] if t % 2 == 0)

    assert any(tors for _, tors in z.values())  # the identity is not vacuous
    below = {(i - 1, q, a) for i, q, a in z}
    for i, q, a in set(z) | set(f2) | below:
        expect = z.get((i, q, a), (0, ()))[0] + even(i, q, a) + even(i + 1, q, a)
        assert f2.get((i, q, a), (0, ()))[0] == expect, (i, q, a)


def test_lee_rank_t28(torus_2_8):
    assert lee_rank(torus_2_8) == 4
