from itertools import product

import pytest

from annkh import corpus, tqft
from annkh.complexes import ChainComplexData
from annkh.errors import InvariantError, UnsupportedRingError
from annkh.linalg import SparseMatrix
from annkh.ring import GenericAlpha


@pytest.fixture(scope="session")
def diagrams():
    ds = corpus.build_all()
    for d in ds.values():
        d.ensure_valid()
    return ds


@pytest.fixture
def corrupted_merge(monkeypatch):
    """Every merge table with m(1 (x) 1) doubled.  Saddle tables are
    memoized per process, so the memo is empty before and after."""
    original = tqft._local_merge

    def corrupted(fr, *convs):
        local = original(fr, *convs)
        local[(0, 0)] = [(bits, fr.ring.add(v, v)) for bits, v in local[(0, 0)]]
        return local

    tqft.local_table.cache_clear()
    monkeypatch.setattr(tqft, "_local_merge", corrupted)
    yield
    tqft.local_table.cache_clear()


def word_bits(space, word):
    """A basis word of a state space as its tuple of slot bits, first
    slot first."""
    k = len(space.slots)
    return tuple((word >> (k - 1 - j)) & 1 for j in range(k))


def bits_word(bits):
    """The basis word whose slot bits are ``bits``, first slot first."""
    word = 0
    for b in bits:
        word = (word << 1) | b
    return word


def as_table(m):
    """{domain bits: {codomain bits: value}} with zero columns dropped."""
    out = {}
    for (r, c), v in m.entries.items():
        out.setdefault(word_bits(m.domain, c), {})[word_bits(m.codomain, r)] = v
    return out


def embed_oracle(dom_space, cod_space, dom_inv, cod_inv, pairs, table, bidegree):
    """The placement of a local table on bit tuples, slot by slot: the
    oracle for ``tqft._embed``, which works on the word ints."""
    for ds, cs in pairs:
        if dom_space.slots[ds].essential != cod_space.slots[cs].essential:
            raise InvariantError(f"uninvolved slots {ds} -> {cs} differ in kind")
    entries = {}
    k_cod = len(cod_space.slots)
    for col, word in enumerate(product((0, 1), repeat=len(dom_space.slots))):
        key = bits_word(word[s] for s in dom_inv)
        for loc_out, v in table[key]:
            bits = [0] * k_cod
            for pos, s in enumerate(cod_inv):
                bits[s] = loc_out[pos]
            for ds, cs in pairs:
                bits[cs] = word[ds]
            entries[(bits_word(bits), col)] = v
    return tqft.LinearMap.wrap(dom_space, cod_space, entries, bidegree)


def from_rows(ring, rows):
    """A sparse matrix from a dense list of rows."""
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not ring.is_zero(v):
                entries[(r, c)] = v
    return SparseMatrix.wrap(ring, len(rows), len(rows[0]) if rows else 0, entries)


def specialize_complex(c, target):
    """Entrywise specialization of a generic complex; grading metadata is
    preserved, and the target ring decides whether qdeg is graded."""
    if not isinstance(c.ring, GenericAlpha):
        raise UnsupportedRingError("can only specialize the generic complex")
    diff = {
        i: m.map_entries(target.specialize_poly, target)
        for i, m in c.diff.items()
    }
    return ChainComplexData(
        ring=target,
        planar=c.planar,
        n_plus=c.n_plus,
        n_minus=c.n_minus,
        degrees=list(c.degrees),
        bigrade={i: list(g) for i, g in c.bigrade.items()},
        diff=diff,
        offsets=dict(c.offsets),
    )


def truncate_adeg(m, keep=0):
    """The part of a map shifting annular degree by exactly ``keep``."""
    cod, dom = m.codomain.bidegrees, m.domain.bidegrees
    kept = {
        (row, col): v
        for (row, col), v in m.entries.items()
        if cod[row][1] - dom[col][1] == keep
    }
    bidegree = (m.declared_bidegree[0], keep)
    return tqft.LinearMap.wrap(m.domain, m.codomain, kept, bidegree)


def qdeg_shift_of_entry(m, row, col):
    """q(target) + q(entry) - q(source); None if the entry is
    inhomogeneous."""
    sq = m.domain.ring.scalar_qdeg(m.entries[(row, col)])
    if sq is None:
        return None
    return m.codomain.bidegrees[row][0] + sq - m.domain.bidegrees[col][0]


def check_bidegree(m, expect_q, expect_a):
    """Whether every entry of a map realizes the given bidegree (the q
    check is skipped over rings that do not preserve the quantum
    grading)."""
    graded = m.domain.ring.preserves_qdeg
    cod, dom = m.codomain.bidegrees, m.domain.bidegrees
    for (row, col) in m.entries:
        if expect_a is not None and cod[row][1] - dom[col][1] != expect_a:
            return False
        if expect_q is not None and graded:
            if qdeg_shift_of_entry(m, row, col) != expect_q:
                return False
    return True


def first_noncommuting_square(cube):
    """The square oracle: truncate_0(B.A) = B_0.A_0 for every pair of
    consecutive edges A, B of a planar cube.  None when it holds, else
    the first failing pair's (start, end) vertices."""
    by_u = {}
    for e in cube.edges:
        by_u.setdefault(e.u, []).append(e)
    for e1 in cube.edges:
        for e2 in by_u.get(e1.v, ()):
            lhs = truncate_adeg(tqft.compose(e2.map, e1.map), 0)
            rhs = tqft.compose(truncate_adeg(e2.map, 0), truncate_adeg(e1.map, 0))
            if lhs.entries != rhs.entries:
                return e1.u, e2.v
    return None


TABLE_MUTATIONS = ("keeps_a_plus2_term", "drops_an_adeg0_term")


@pytest.fixture(params=TABLE_MUTATIONS)
def mutated_annular_table(request, monkeypatch):
    """Every annular saddle table, mutated in one term: one +2 term of
    the planar table kept, or one adeg-0 term dropped.  Planar tables
    are left alone."""
    original = tqft.local_table

    def mutated(ring, dom_convs, cod_convs, planar):
        table = original(ring, dom_convs, cod_convs, planar)
        if planar:
            return table
        rows = [list(row) for row in table]
        if request.param == "keeps_a_plus2_term":
            full = original(ring, dom_convs, cod_convs, True)
            plus2 = [
                (k, t) for k, row in enumerate(full) for t in row if t not in table[k]
            ]
            if plus2:
                rows[plus2[0][0]].append(plus2[0][1])
        else:
            next(row for row in rows if row).pop()
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(tqft, "local_table", mutated)
    return request.param


def pd_circle_count(d, u):
    """Independent circle-count oracle from PD combinatorics alone.

    Slots are (crossing, position); the smoothing pairs slots within a
    crossing, and each open edge pairs the two slots holding its id.
    Circles are the cycles of the resulting degree-2 graph, plus one per
    free loop.
    """
    slots = [(k, q) for k in range(d.n_crossings) for q in range(4)]
    parent = {s: s for s in slots}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    for k, bit in enumerate(u):
        if bit == 0:
            union((k, 0), (k, 1))
            union((k, 2), (k, 3))
        else:
            union((k, 0), (k, 3))
            union((k, 1), (k, 2))
    by_edge = {}
    for k, rec in enumerate(d.crossings):
        for q, eid in enumerate(rec):
            by_edge.setdefault(eid, []).append((k, q))
    free_loops = 0
    for eid in d.edges:
        ends = by_edge.get(eid, [])
        if not ends:
            free_loops += 1
            continue
        assert len(ends) == 2, f"edge {eid} must have two ends"
        union(ends[0], ends[1])
    return len({find(s) for s in slots}) + free_loops
