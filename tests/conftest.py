import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from annkh import corpus, diagram, frobenius, tl, tqft
from annkh.complexes import ChainComplexData
from annkh.diagram import cube_edge_pairs
from annkh.errors import (
    ORIGIN_ON_CURVE,
    RAY_TANGENCY,
    SELF_INTERSECTION,
    AnnkhError,
    EmbeddingViolationError,
    InvariantError,
    NotACubeEdgeError,
    UnsupportedRingError,
    Violation,
)
from annkh.homology import BigradedHomology, SNFResult, generator_vector_index
from annkh.linalg import SparseMatrix
from annkh.ring import E1, E2, BivariatePoly, GenericAlpha


@pytest.fixture(scope="session")
def diagrams():
    ds = corpus.build_all()
    for d in ds.values():
        d.ensure_valid()
    return ds


@pytest.fixture
def corrupted_merge(monkeypatch):
    """Every merge table with m(1 (x) 1) doubled.  Local tables are
    memoized per process, so the memo is empty before and after."""
    original = frobenius.cobordism

    def corrupted(ring, dom_convs, cod_convs, dots):
        local = original(ring, dom_convs, cod_convs, dots)
        if len(dom_convs) == 2:
            local[(0, 0)] = [(bits, ring.add(v, v)) for bits, v in local[(0, 0)]]
        return local

    tqft.local_table.cache_clear()
    monkeypatch.setattr(frobenius, "cobordism", corrupted)
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


def embed_oracle(dom_space, cod_space, dom_inv, cod_inv, pairs, table):
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
    return tqft.LinearMap(dom_space, cod_space, entries)


def reduce_tangle_oracle(t):
    """The two-dot rule applied term by term on a binary work tree,
    never merging equal states: the oracle for ``tl.reduce_tangle``.
    One strand with k dots makes Fib(k) work items."""
    coeff = BivariatePoly.from_int(1)
    for k in t.closed_loops:
        coeff = coeff * tl.circle_value(k)
    work = [(t.dots, coeff)]
    out = {}
    while work:
        dots, c = work.pop()
        hot = next((i for i, d in enumerate(dots) if d >= 2), None)
        if hot is None:
            key = tl.DottedTangle(t.n, t.m, t.pairs, dots)
            out[key] = out.get(key, BivariatePoly()) + c
            continue
        for drop, w in ((1, E1), (2, -E2)):
            lowered = list(dots)
            lowered[hot] -= drop
            work.append((tuple(lowered), c * w))
    return tl.TLMorphism.make(t.n, t.m, out)


def hpoly(*coeffs):
    """The Q[h] value with these coefficients, constant term first."""
    return BivariatePoly({(0, k): c for k, c in enumerate(coeffs)})


def from_rows(ring, rows):
    """A sparse matrix from a dense list of rows."""
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not ring.is_zero(v):
                entries[(r, c)] = v
    return SparseMatrix(ring, len(rows), len(rows[0]) if rows else 0, entries)


def dense_snf_oracle(m):
    """Smith normal form on a dense copy of ``m``: the oracle for the
    sparse ``homology.smith_normal_form``.

    Pivots are chosen with minimal Euclidean size, breaking ties at the
    leftmost column; each pivot is fixed up until it divides the whole
    remaining block, so the diagonal is a divisibility chain as found.
    """
    ring = m.ring
    if not ring.is_euclidean:
        raise UnsupportedRingError(f"Smith normal form over {ring.kind}")
    A = m.to_dense()
    nr, nc = m.nrows, m.ncols

    def row_op(i, j, q):  # row_i -= q * row_j
        for t in range(nc):
            A[i][t] = ring.sub(A[i][t], ring.mul(q, A[j][t]))

    def col_op(i, j, q):  # col_i -= q * col_j
        for t in range(nr):
            A[t][i] = ring.sub(A[t][i], ring.mul(q, A[t][j]))

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        if i != j:
            for t in range(nr):
                A[t][i], A[t][j] = A[t][j], A[t][i]

    invariants = []
    r = 0
    while r < nr and r < nc:
        best = None
        for j in range(r, nc):
            for i in range(r, nr):
                v = A[i][j]
                if ring.is_zero(v):
                    continue
                key = (ring.size(v), j, i)
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(r, bi)
        swap_cols(r, bj)
        while True:
            changed = False
            for i in range(r + 1, nr):
                if ring.is_zero(A[i][r]):
                    continue
                q, rem = ring.divmod(A[i][r], A[r][r])
                row_op(i, r, q)
                if not ring.is_zero(rem):
                    swap_rows(r, i)
                    changed = True
            for j in range(r + 1, nc):
                if ring.is_zero(A[r][j]):
                    continue
                q, rem = ring.divmod(A[r][j], A[r][r])
                col_op(j, r, q)
                if not ring.is_zero(rem):
                    swap_cols(r, j)
                    changed = True
            if changed:
                continue
            if any(
                not ring.is_zero(A[i][r]) for i in range(r + 1, nr)
            ) or any(not ring.is_zero(A[r][j]) for j in range(r + 1, nc)):
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(r + 1, nr):
                for j in range(r + 1, nc):
                    if ring.is_zero(A[i][j]):
                        continue
                    _, rem = ring.divmod(A[i][j], A[r][r])
                    if not ring.is_zero(rem):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for t in range(nc):
                A[r][t] = ring.add(A[r][t], A[offender][t])
        # keep only the normalized pivot: row r is zero beyond it and
        # is never read again
        invariants.append(ring.normalize_unit(A[r][r])[1])
        r += 1
    return SNFResult(invariants=invariants, rank=len(invariants))


def slice_positions(c, i):
    """Positions of C^i per preserved (q, a) slice; an ungraded
    direction is None in the key."""
    out = {}
    for pos, (q, a) in enumerate(c.bigrade[i]):
        key = (q if c.qdeg_graded else None, a if c.adeg_graded else None)
        out.setdefault(key, []).append(pos)
    return out


def per_slice_homology_oracle(c):
    """Homology reduced slice by slice with no cancellation carried
    between degrees: every d^i is cut out of the whole of C^i by
    ``submatrix`` and diagonalized by :func:`dense_snf_oracle`.  The
    oracle for ``homology.homology``."""
    ring = c.ring
    diff = assembled(c)
    slices = {i: slice_positions(c, i) for i in c.degrees}
    ranks, tors = {}, {}
    for i in c.degrees[:-1]:
        for key, cols in slices[i].items():
            rows = slices[i + 1].get(key)
            if rows:
                res = dense_snf_oracle(diff[i].submatrix(rows, cols))
                ranks[(i, key)] = res.rank
                tors[(i + 1, key)] = [v for v in res.invariants if not ring.is_unit(v)]
    entries = {}
    for i in c.degrees:
        for key, positions in slices[i].items():
            free = len(positions) - ranks.get((i, key), 0) - ranks.get((i - 1, key), 0)
            torsion = tuple(tors.get((i, key), ()))
            if free or torsion:
                entries[(i, *key)] = (free, torsion)
    return BigradedHomology(ring, entries)


def assembled(c):
    """i -> the differential C^i -> C^{i+1} as a ``SparseMatrix``, each
    block placed at its offsets: the complex the block readers of
    ``complexes`` and ``homology`` are checked against."""
    diff = {}
    for i in c.degrees[:-1]:
        m = {}
        for rof, cof, items in c.blocks.get(i, ()):
            for (r, col), v in items:
                m[(rof + r, cof + col)] = v
        diff[i] = SparseMatrix(c.ring, c.rank(i + 1), c.rank(i), m)
    return diff


def is_cycle_oracle(c, gen):
    """Whether the generator's column of the assembled differential is
    empty: the oracle for the cycle test of ``homology.verify_canonical``,
    which reads the blocks leaving the generator's vertex."""
    diff = assembled(c)
    col = generator_vector_index(c, gen)
    return gen.degree not in diff or all(cc != col for _, cc in diff[gen.degree].entries)


def span_rank_oracle(c, gens):
    """The rank the generators add to the boundaries of their degrees,
    each rank that of a dense Smith normal form of the assembled
    d^{i-1}, with and without one column per generator: the oracle for
    ``homology.canonical_span_rank``."""
    diff = assembled(c)
    total = 0
    for i in {g.degree for g in gens}:
        d_in = diff.get(i - 1, SparseMatrix(c.ring, c.rank(i), 0, {}))
        rows = [generator_vector_index(c, g) for g in gens if g.degree == i]
        spanned = dict(d_in.entries)
        for j, r in enumerate(rows, d_in.ncols):
            spanned[(r, j)] = c.ring.one()
        ncols = d_in.ncols + len(rows)
        total += dense_snf_oracle(SparseMatrix(c.ring, c.rank(i), ncols, spanned)).rank
        total -= dense_snf_oracle(d_in).rank
    return total


def assembled_square(c, i):
    """The entries of d_{i+1} d_i on the assembled differential: the
    oracle for ``complexes._square``, which reads the product off the
    blocks."""
    diff = assembled(c)
    return (diff[i + 1] @ diff[i]).entries


def verify_grading_oracle(c):
    """Every entry of the assembled differential against ``bigrade``,
    one ``scalar_qdeg`` per entry: the oracle for the block-wise
    ``complexes.verify_grading``."""
    adeg_shifts = (0, 2) if c.planar else (0,)
    for i, m in assembled(c).items():
        src, dst = c.bigrade[i], c.bigrade[i + 1]
        for (r, col), v in m.entries.items():
            qs, as_ = src[col]
            qt, at = dst[r]
            if at - as_ not in adeg_shifts:
                return (i, r, col, "adeg")
            if c.qdeg_graded:
                sq = c.ring.scalar_qdeg(v)
                if sq is None or qt + sq != qs:
                    return (i, r, col, "qdeg")
    return None


def one_block(diff):
    """Blocks of a hand-built differential {i: entry dict}: each degree
    one block at (0, 0)."""
    return {i: [(0, 0, entries.items())] for i, entries in diff.items()}


def specialize_entries(entries, target):
    """A GENERIC entry dict specialized entrywise into ``target``, the
    entries that vanish there dropped."""
    out = {}
    for key, v in entries.items():
        w = target.specialize_poly(v)
        if not target.is_zero(w):
            out[key] = w
    return out


def specialize_complex(c, target):
    """Entrywise specialization of a generic complex; grading metadata is
    preserved, and the target ring decides whether qdeg is graded."""
    if not isinstance(c.ring, GenericAlpha):
        raise UnsupportedRingError("can only specialize the generic complex")
    diff = {i: specialize_entries(m.entries, target) for i, m in assembled(c).items()}
    return ChainComplexData(
        ring=target,
        planar=c.planar,
        n_plus=c.n_plus,
        n_minus=c.n_minus,
        degrees=list(c.degrees),
        bigrade={i: list(g) for i, g in c.bigrade.items()},
        blocks=one_block(diff),
        offsets=dict(c.offsets),
    )


def adeg_shifts(m):
    """The set of annular-degree shifts of a map's entries."""
    cod, dom = m.codomain.bidegrees, m.domain.bidegrees
    return {cod[row][1] - dom[col][1] for row, col in m.entries}


def truncate_adeg(m, keep=0):
    """The part of a map shifting annular degree by exactly ``keep``."""
    cod, dom = m.codomain.bidegrees, m.domain.bidegrees
    kept = {
        (row, col): v
        for (row, col), v in m.entries.items()
        if cod[row][1] - dom[col][1] == keep
    }
    return tqft.LinearMap(m.domain, m.codomain, kept)


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


# ---------------------------------------------------------------------------
# the reference cube: every resolution and every edge map kept as objects,
# from the public ``resolve``, ``classify_saddle`` and ``annular_saddle_map``;
# the oracle for ``complexes.build_complex``, which keeps int rows only


def sign_assignment(u, i):
    """Exponent of the sign on the edge raising coordinate i of u."""
    if u[i] != 0:
        raise ValueError("edge must start at a 0-coordinate")
    return sum(u[:i]) % 2


@dataclass(frozen=True)
class CubeEdge:
    u: tuple
    v: tuple
    coordinate: int
    sign_exponent: int
    descriptor: object
    map: object  # LinearMap


@dataclass
class Cube:
    diagram: object
    ring: object
    planar: bool  # edge maps are the untruncated planar maps
    resolutions: dict
    spaces: dict
    edges: list


def build_cube(d, ring, planar=False):
    """Resolve all smoothings and build every classified edge map
    between the cube's own vertex spaces, each space and map built once
    per cube and shared (``tqft.state_space``, ``tqft._embed``)."""
    d.ensure_valid()
    resolutions, spaces, shared = {}, {}, {}
    for u in product((0, 1), repeat=d.n_crossings):
        rd = d.resolve(u)
        resolutions[u] = rd
        spaces[u] = tqft.state_space(rd, ring, planar, memo=shared)
    edges = []
    placements = {}
    for u in resolutions:
        for i, v in cube_edge_pairs(d, u):
            sd = tqft.classify_saddle(d, resolutions[u], resolutions[v], i)
            m = tqft.annular_saddle_map(sd, spaces[u], spaces[v], placements)
            edges.append(CubeEdge(u, v, i, sign_assignment(u, i), sd, m))
    return Cube(d, ring, planar, resolutions, spaces, edges)


def assemble(cube):
    """The complex of a reference cube: groups, offsets and one signed
    block per edge, with the quantum shift applied."""
    n_plus, n_minus = cube.diagram.n_plus_minus()
    ring = cube.ring
    degrees = list(range(-n_minus, n_plus + 1))
    bigrade, offsets = {}, {}
    for i in degrees:
        grade = []
        shift = n_minus - n_plus - i
        for u in sorted(u for u in cube.resolutions if sum(u) == i + n_minus):
            offsets[(i, u)] = len(grade)
            grade.extend((q + shift, a) for q, a in cube.spaces[u].bidegrees)
        bigrade[i] = grade
    blocks = {}
    for e in cube.edges:
        i = sum(e.u) - n_minus
        items = [
            (k, ring.neg(v) if e.sign_exponent else v) for k, v in e.map.entries.items()
        ]
        rof, cof = offsets[(i + 1, e.v)], offsets[(i, e.u)]
        blocks.setdefault(i, []).append((rof, cof, items))
    return ChainComplexData(
        ring=ring,
        planar=cube.planar,
        n_plus=n_plus,
        n_minus=n_minus,
        degrees=degrees,
        bigrade=bigrade,
        blocks=blocks,
        offsets=offsets,
    )


def placed_entries(c):
    """Degree -> the set of (row, col, value) entries its blocks place,
    and how many entries they hold, repeats included."""
    out = {}
    for i, rows in c.blocks.items():
        placed = [(rof + r, cof + col, v) for rof, cof, items in rows for (r, col), v in items]
        out[i] = (set(placed), len(placed))
    return out


def edge_ids(rd, c):
    """The edge ids a resolved circle runs along."""
    return rd.diagram.edge_ids(c.edges)


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
    and the tables of the other cobordisms are left alone."""
    original = tqft.local_table

    def mutated(ring, dom_convs, cod_convs, planar, dots=0):
        table = original(ring, dom_convs, cod_convs, planar, dots)
        if planar or len(dom_convs) + len(cod_convs) != 3:
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


def outcome(fn, *args):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except AnnkhError as e:
        return type(e), str(e)


def reference_box_partners(boxes):
    """For each box a, the sorted indices b > a of the closed boxes it
    meets, by trying every pair."""
    return [
        [b for b in range(a + 1, len(boxes))
         if boxes[a][0] <= boxes[b][1] and boxes[b][0] <= boxes[a][1]
         and boxes[a][2] <= boxes[b][3] and boxes[b][2] <= boxes[a][3]]
        for a in range(len(boxes))
    ]


def on_segment(a, b, p):
    """Whether p lies on the closed segment from a to b."""
    if diagram._orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def reference_seg_intersection(p1, p2, p3, p4):
    """How two closed segments meet, exactly, on ints or Fractions:
    None, ("point", pt) or ("overlap", None).  The general classifier
    validation ran before its cases were written out on ints."""
    o1 = diagram._orient(p1, p2, p3)
    o2 = diagram._orient(p1, p2, p4)
    o3 = diagram._orient(p3, p4, p1)
    o4 = diagram._orient(p3, p4, p2)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        axis = 0 if p1[0] != p2[0] else 1
        lo1, hi1 = sorted((p1[axis], p2[axis]))
        lo2, hi2 = sorted((p3[axis], p4[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        if lo == hi:
            return ("point", p1 if p1[axis] == lo else p2)
        return ("overlap", None)
    if (o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0:
        if (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0:
            d = (p2[0] - p1[0], p2[1] - p1[1])
            e = (p4[0] - p3[0], p4[1] - p3[1])
            denom = d[0] * e[1] - d[1] * e[0]
            t = Fraction((p3[0] - p1[0]) * e[1] - (p3[1] - p1[1]) * e[0], denom)
            return ("point", (p1[0] + t * d[0], p1[1] + t * d[1]))
    if o1 == 0 and on_segment(p1, p2, p3):
        return ("point", p3)
    if o2 == 0 and on_segment(p1, p2, p4):
        return ("point", p4)
    if o3 == 0 and on_segment(p3, p4, p1):
        return ("point", p1)
    if o4 == 0 and on_segment(p3, p4, p2):
        return ("point", p2)
    return None


def reference_validate_geometry(d):
    """The geometric violations of a diagram whose crossings matched, by
    the pairwise loop validation ran before consecutive segments were
    decided by one cross and one dot product: every pair of segments
    whose boxes meet goes through :func:`reference_seg_intersection`."""
    segs = [
        (eid, i, pts[i], pts[i + 1])
        for eid, pts in d._int_edges.items()
        for i in range(len(pts) - 1)
    ]
    out = []
    origin = (0, 0)
    cross = d._cross_pts
    cross_pts = set(cross)
    edges = d.edges
    # segments adjacent to each crossing point
    adj_lookup = {}
    for k, combo in enumerate(d._ends):
        for e in combo:
            idx = 0 if e.end == 0 else len(edges[e.edge]) - 2
            adj_lookup.setdefault((e.edge, idx), set()).add(cross[k])
    for eid, pts in d._int_edges.items():
        for p, at in zip(pts, edges[eid]):
            if p[1] == 0 and p[0] > 0:
                out.append(Violation(RAY_TANGENCY, f"edge {eid}", f"vertex {at}"))
    for k, p in enumerate(cross):
        if p[1] == 0 and p[0] > 0:
            at = edges[d.crossings[k][0]][-1]
            out.append(Violation(RAY_TANGENCY, f"crossing {k}", str(at)))
    closed = {eid: d._edge_is_closed(eid) for eid in edges}
    nsegs = {eid: len(edges[eid]) - 1 for eid in edges}
    boxes = [
        (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
        for _, _, a, b in segs
    ]
    partners = reference_box_partners(boxes)
    for a in range(len(segs)):
        e1, i1, a1, b1 = segs[a]
        if on_segment(a1, b1, origin):
            out.append(Violation(ORIGIN_ON_CURVE, f"edge {e1} segment {i1}"))
        for b in partners[a]:
            e2, i2, a2, b2 = segs[b]
            hit = reference_seg_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            kind, pt = hit
            where = f"edges {e1}/{e2}"
            if kind == "overlap":
                out.append(Violation(SELF_INTERSECTION, where, "collinear overlap"))
                continue
            ok = False
            if (
                pt in cross_pts
                and pt in adj_lookup.get((e1, i1), ())
                and pt in adj_lookup.get((e2, i2), ())
            ):
                # end segments touching at their shared crossing point
                ok = True
            elif e1 == e2:
                consecutive = abs(i1 - i2) == 1 or (
                    closed[e1] and {i1, i2} == {0, nsegs[e1] - 1}
                )
                if consecutive:
                    ok = pt in {a1, b1} & {a2, b2}
            if not ok:
                at = (Fraction(pt[0], d.scale), Fraction(pt[1], d.scale))
                out.append(Violation(SELF_INTERSECTION, where, diagram._meet_text(at)))
    return out


def fraction_crossings(d):
    """The crossing points in the diagram's own Fraction coordinates: the
    head of each crossing's incoming under-strand."""
    return [d.edges[rec[0]][-1] for rec in d.crossings]


def dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def reference_point_seg_dist2(p, a, b):
    ab = (b[0] - a[0], b[1] - a[1])
    t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / (ab[0] ** 2 + ab[1] ** 2)
    t = min(max(t, Fraction(0)), Fraction(1))
    return dist2(p, (a[0] + t * ab[0], a[1] + t * ab[1]))


@lru_cache(maxsize=8)
def reference_truncation(d):
    """Each open edge cut back to its crossing disks, worked out in the
    diagram's own Fraction coordinates.  A crossing's disk has half its
    distance to the nearest other feature, found by trying them all: a
    segment not ending at it, another crossing, or the puncture.  Each
    end is cut at p + 2^-j (n - p), n the next point along its edge, for
    the least j >= 1 that lands inside the disk."""
    segs = [
        (eid, i, pts[i], pts[i + 1])
        for eid, pts in d.edges.items()
        for i in range(len(pts) - 1)
    ]
    trunc = {eid: list(pts) for eid, pts in d.edges.items()}
    crossings = fraction_crossings(d)
    for k, combo in enumerate(d._ends):
        p = crossings[k]
        adjacent = {
            (e.edge, 0 if e.end == 0 else len(d.edges[e.edge]) - 2) for e in combo
        }
        dists = [reference_point_seg_dist2(p, a, b) for eid, i, a, b in segs
                 if (eid, i) not in adjacent]
        dists += [dist2(p, p2) for k2, p2 in enumerate(crossings) if k2 != k]
        dists.append(dist2(p, (0, 0)))
        rho2 = min(dists) / 4
        for e in combo:
            pts = d.edges[e.edge]
            n = pts[1] if e.end == 0 else pts[-2]
            t = Fraction(1, 2)
            while t * t * dist2(p, n) >= rho2:
                t /= 2
            cut = (p[0] + t * (n[0] - p[0]), p[1] + t * (n[1] - p[1]))
            trunc[e.edge][0 if e.end == 0 else -1] = cut
    # times the LCM of the denominators: a positive scale keeps the sign
    # of every predicate, and int points keep the oracle quick
    scale = math.lcm(*(c.denominator for pts in trunc.values() for p in pts for c in p))
    return {
        eid: [(int(x * scale), int(y * scale)) for x, y in pts]
        for eid, pts in trunc.items()
    }


def reference_ray_stations(points, closed=True):
    """Signed crossings of the positive x-axis by a polyline, closed
    unless ``closed`` is false, in traversal order: upward crossings
    count +1, and the rule is half-open at y = 0.  Each (x, sign) is
    exact, x found by solving for the segment's crossing point."""
    out = []
    n = len(points)
    for i in range(n if closed else n - 1):
        a, b = points[i], points[(i + 1) % n]
        if a[1] <= 0 < b[1]:
            sign = 1
        elif b[1] <= 0 < a[1]:
            sign = -1
        else:
            continue
        x = a[0] + Fraction((b[0] - a[0]) * (0 - a[1]), b[1] - a[1])
        if x > 0:
            out.append((x, sign))
    return out


def reference_signed_area_twice(points):
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        total += a[0] * b[1] - a[1] * b[0]
    return total


def reference_point_winding(points, p):
    wn = 0
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        left = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if a[1] <= p[1]:
            if b[1] > p[1] and left > 0:
                wn += 1
        else:
            if b[1] <= p[1] and left < 0:
                wn -= 1
    return wn


# the ends (0-3 in PD order) each smoothing joins: 1-2, 3-4 or 1-4, 2-3
SMOOTHING_PARTNER = {0: (1, 0, 3, 2), 1: (3, 2, 1, 0)}


def reference_resolve(d, u, choice=None):
    """The disk model: the circles of the smoothing u traced through the
    PD slots on the edges of :func:`reference_truncation`, each closed by
    the chords across the crossing disks.  With ``choice``
    an orientation choice, each circle is traced along the orientation
    of its least edge.  The oracle for ``AnnularDiagram.resolve`` and
    ``oriented_resolution``, which walk edge numbers through the crossing
    points instead and read no disk, and for ``canonical_labels``, which
    reads each label, (depth + ccw) % 2, off per-edge sums: see
    :func:`circle_facts`.

    Returns, per circle in the order ``resolve`` lists them, its edge
    ids, winding, essential index (None if trivial), nesting depth and
    whether it runs counterclockwise.  Trivial circles come first, by the
    least point of their edges and then their least edge id; essential
    circles follow by their least ray radius."""
    u = tuple(u)
    d.ensure_valid()
    trunc = reference_truncation(d)
    slot = {
        (e.edge, e.end): (k, q) for k, combo in enumerate(d._ends)
        for q, e in enumerate(combo)
    }
    visited = set()
    traced = []  # (points, edge ids)
    for eid in sorted(d.edges):
        if eid in visited:
            continue
        forward = True
        if choice is not None:
            comp = d.comp_of_edge(eid)
            forward = bool(d.orientations[comp]) == bool(choice[comp])
        if (eid, 0) not in slot:  # a free loop
            pts = trunc[eid][:-1]
            visited.add(eid)
            traced.append((tuple(pts if forward else pts[::-1]), frozenset([eid])))
            continue
        pts, ids, at = [], set(), (eid, forward)
        while True:
            edge, fwd = at
            ids.add(edge)
            pts += trunc[edge] if fwd else trunc[edge][::-1]
            k, q = slot[(edge, 1 if fwd else 0)]
            nxt = d._ends[k][SMOOTHING_PARTNER[u[k]][q]]
            at = (nxt.edge, nxt.end == 0)
            if at == (eid, forward):
                break
        visited |= ids
        traced.append((tuple(pts), frozenset(ids)))
    keyed = []
    for j, (pts, ids) in enumerate(traced):
        stations = reference_ray_stations(pts)
        w = sum(s for _, s in stations)
        if abs(w) > 1:
            raise EmbeddingViolationError(f"circle through {sorted(ids)} winds {w} times")
        probe = pts[0]  # a cut or a free loop's point: on no other circle
        depth = sum(
            1 for i, (other, _) in enumerate(traced)
            if i != j and reference_point_winding(other, probe) != 0
        )
        ccw = reference_signed_area_twice(pts) > 0
        if w:
            key = (1, min(x for x, _ in stations))
        else:
            key = (0, min(p for e in ids for p in d.edges[e]), min(ids))
        keyed.append((key, ids, w, depth, ccw))
    keyed.sort(key=lambda row: row[0])
    radii = [key[1] for key, *_ in keyed if key[0]]
    if radii != sorted(set(radii)):
        raise InvariantError(f"essential circles share a radius: {radii}")
    trivial = len(keyed) - len(radii)
    return [
        (ids, w, j - trivial + 1 if key[0] else None, depth, ccw)
        for j, (key, ids, w, depth, ccw) in enumerate(keyed)
    ]


def eager_walk(d, u):
    """The points of every circle of the smoothing u, traced eagerly
    from the PD ends and the edges' points: from the circle's least edge
    id along that edge's stored direction, each edge's points up to, not
    including, the crossing it runs into.  Keyed by the circle's edge
    ids: a resolved circle holds no points, and the tests read a
    circle's points as ``eager_walk(d, u)[edge_ids(rd, c)]``."""
    u = tuple(u)
    d.ensure_valid()
    slot = {
        (e.edge, e.end): (k, q) for k, combo in enumerate(d._ends)
        for q, e in enumerate(combo)
    }
    visited, out = set(), {}
    for eid in sorted(d.edges):
        if eid in visited:
            continue
        pts, ids, at = [], set(), (eid, True)
        while True:
            edge, fwd = at
            ids.add(edge)
            p = d._int_edges[edge]
            pts += p[:-1] if fwd else p[:0:-1]
            if (edge, 0) not in slot:  # a free loop
                break
            k, q = slot[(edge, 1 if fwd else 0)]
            nxt = d._ends[k][SMOOTHING_PARTNER[u[k]][q]]
            at = (nxt.edge, nxt.end == 0)
            if at == (eid, True):
                break
        visited |= ids
        out[frozenset(ids)] = tuple(pts)
    return out


def circle_facts(rd, choice=None):
    """Per circle, its edge ids, winding and essential index and, for
    the oriented resolution of ``choice``, its canonical label: what
    :func:`disk_facts` returns, read off a resolution."""
    facts = [(edge_ids(rd, c), c.winding, c.essential_index) for c in rd.circles]
    if choice is None:
        return facts
    labels = rd.diagram.canonical_labels(rd, choice)
    return [(*fact, label) for fact, label in zip(facts, labels)]


def disk_facts(d, u, choice=None):
    """:func:`reference_resolve` in the shape of :func:`circle_facts`:
    with ``choice``, each circle's depth and direction fold into its
    label, (depth + ccw) % 2."""
    rows = reference_resolve(d, u, choice)
    if choice is None:
        return [(ids, w, index) for ids, w, index, _, _ in rows]
    return [(ids, w, index, (depth + ccw) % 2) for ids, w, index, depth, ccw in rows]


def reference_classify_saddle(d, rd_from, rd_to, crossing):
    """The classifier that intersects every circle's edge ids with the
    crossing's and sorts the involved circles: the oracle for
    ``tqft.classify_saddle``, which reads per-resolution tables."""
    uf, ut = rd_from.smoothing, rd_to.smoothing
    diff = [i for i, (a, b) in enumerate(zip(uf, ut)) if a != b]
    if diff != [crossing] or uf[crossing] != 0:
        raise NotACubeEdgeError(f"{uf} -> {ut} not an edge at {crossing}")
    incident = set(d.crossings[crossing])
    ids_from = [edge_ids(rd_from, c) for c in rd_from.circles]
    ids_to = [edge_ids(rd_to, c) for c in rd_to.circles]
    dom_inv = [i for i, ids in enumerate(ids_from) if ids & incident]
    cod_inv = [i for i, ids in enumerate(ids_to) if ids & incident]
    if not ((len(dom_inv), len(cod_inv)) in ((2, 1), (1, 2))):
        raise NotACubeEdgeError(
            f"saddle at {crossing} involves {len(dom_inv)} -> {len(cod_inv)} circles"
        )
    by_key = {ids: j for j, ids in enumerate(ids_to)}
    pairs = []
    for i, ids in enumerate(ids_from):
        if i in dom_inv:
            continue
        j = by_key.get(ids)
        if j is None or j in cod_inv:
            raise NotACubeEdgeError("untouched circles do not match")
        pairs.append((i, j))

    def pattern(rd, idxs):
        ess = [i for i in idxs if rd.circles[i].essential]
        triv = [i for i in idxs if not rd.circles[i].essential]
        ess.sort(key=lambda i: rd.circles[i].essential_index)
        return ess, triv

    dess, dtriv = pattern(rd_from, dom_inv)
    cess, ctriv = pattern(rd_to, cod_inv)
    if len(dom_inv) == 2:
        if len(dess) == 0 and len(cess) == 0:
            kind = tqft.MERGE_TT
        elif len(dess) == 1 and len(cess) == 1:
            kind = tqft.TYPE_I
        elif len(dess) == 2 and len(cess) == 0:
            kind = tqft.TYPE_II
        else:
            raise NotACubeEdgeError("impossible merge pattern")
    else:
        if len(dess) == 0 and len(cess) == 0:
            kind = tqft.SPLIT_T
        elif len(dess) == 1 and len(cess) == 1:
            kind = tqft.TYPE_III
        elif len(dess) == 0 and len(cess) == 2:
            kind = tqft.TYPE_IV
        else:
            raise NotACubeEdgeError("impossible split pattern")
    dom, cod = tuple(dess + dtriv), tuple(cess + ctriv)
    return tqft.SaddleDescriptor(kind, dom, cod, tuple(pairs))


def spin_tangle_oracle(t, ring):
    """The spin of a reduced tangle step by step on the whole space: the
    oracle for ``tl.spin_tangle``, which places one local table per strand.

    A token list tracks the legs at the radial slots, innermost first.
    Dots on through strands act first; then caps merge and die,
    innermost first; then cups are born and split, outermost first.
    """
    bb = [i for i, (a, b) in enumerate(t.pairs) if b <= t.n]
    tt = [i for i, (a, b) in enumerate(t.pairs) if a > t.n]

    def essentials(k):
        return tqft.essential_space(k, ring)

    total = tqft.identity_map(essentials(t.n))
    cur = []  # (strand, top position) per slot; None for a capped leg
    for p in range(1, t.n + 1):
        idx = next(i for i, pr in enumerate(t.pairs) if p in pr)
        a, b = t.pairs[idx]
        cur.append((idx, None if idx in bb else t.top_position(b)))

    def apply(m):
        nonlocal total
        total = tqft.compose(m, total)

    for slot, (idx, top) in enumerate(cur):
        if top is not None and t.dots[idx]:
            apply(tqft.dotted_identity_map(total.codomain, slot, t.dots[idx]))
    for idx in sorted(bb, key=lambda i: t.pairs[i][1] - t.pairs[i][0]):
        i = next(s for s, tok in enumerate(cur) if tok[0] == idx)
        if cur[i + 1][0] != idx:
            raise InvariantError(f"capped legs of strand {idx} are not adjacent")
        if t.dots[idx]:
            apply(tqft.dotted_identity_map(total.codomain, i, t.dots[idx]))
        k = len(cur)
        mid = tqft.make_space(
            ring, [(False, None)] + [(True, s + 1) for s in range(k - 2)]
        )
        pairs = [(s, 1 + (s if s < i else s - 2)) for s in range(k) if s not in (i, i + 1)]
        apply(tqft.merge_map(total.codomain, mid, (i, i + 1), 0, pairs))
        apply(tqft.death_map(mid, 0))
        del cur[i : i + 2]
    for idx in sorted(tt, key=lambda i: t.pairs[i][0] - t.pairs[i][1]):
        a, b = t.pairs[idx]
        t1, t2 = sorted((t.top_position(a), t.top_position(b)))
        pos = sum(1 for _, top in cur if top < t1)
        k = len(cur)
        apply(tqft.birth_map(total.codomain, 0))
        pairs = [(1 + s, s if s < pos else s + 2) for s in range(k)]
        apply(tqft.split_map(total.codomain, essentials(k + 2), 0, (pos, pos + 1), pairs))
        cur[pos:pos] = [(idx, t1), (idx, t2)]
        if t.dots[idx]:
            apply(tqft.dotted_identity_map(total.codomain, pos, t.dots[idx]))
    tops = [top for _, top in cur]
    if tops != sorted(tops) or len(tops) != t.m:
        raise InvariantError(f"spun top positions {tops} are not {t.m} in order")
    return total


def compose_tangles_oracle(f, g):
    """Stacking f then g as a strand graph walked in two passes, open
    paths from the outer points first, then closed loops: the oracle for
    ``tl._compose_tangles``."""
    # nodes: ("b", i) bottom of f, ("m", p) glued level, ("t", p) top of g
    def f_node(label):
        return ("b", label) if label <= f.n else ("m", f.top_position(label))

    def g_node(label):
        return ("m", label) if label <= g.n else ("t", g.top_position(label))

    strands = [(f_node(a), f_node(b), d) for (a, b), d in zip(f.pairs, f.dots)]
    strands += [(g_node(a), g_node(b), d) for (a, b), d in zip(g.pairs, g.dots)]
    incident = {}
    for sid, (u, v, d) in enumerate(strands):
        incident.setdefault(u, []).append(sid)
        incident.setdefault(v, []).append(sid)

    def other_end(sid, node):
        u, v, _ = strands[sid]
        return v if node == u else u

    seen = [False] * len(strands)
    open_paths, loops = [], []
    for start in sorted(n for n in incident if n[0] != "m"):
        sid = incident[start][0]
        if seen[sid]:
            continue
        node, total = start, 0
        while True:
            seen[sid] = True
            total += strands[sid][2]
            node = other_end(sid, node)
            if node[0] != "m":
                open_paths.append((start, node, total))
                break
            a, b = incident[node]
            sid = b if a == sid else a
    for sid0 in range(len(strands)):
        if seen[sid0]:
            continue
        total, sid, node = 0, sid0, strands[sid0][0]
        while True:
            seen[sid] = True
            total += strands[sid][2]
            node = other_end(sid, node)
            a, b = incident[node]
            nxt = b if a == sid else a
            if nxt == sid0 and node == strands[sid0][0]:
                break
            sid = nxt
        loops.append(total)

    def out_label(node):
        kind, p = node
        return p if kind == "b" else f.n + g.m + 1 - p

    pairs = [(out_label(u), out_label(v)) for u, v, _ in open_paths]
    dots = [d for _, _, d in open_paths]
    return tl.DottedTangle.make(f.n, g.m, pairs, dots, tuple(loops))
