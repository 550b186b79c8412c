from itertools import product

import pytest

from annkh import corpus, tl, tqft
from annkh.complexes import ChainComplexData
from annkh.errors import InvariantError, UnsupportedRingError
from annkh.homology import BigradedHomology, SNFResult
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
    slices = {i: slice_positions(c, i) for i in c.degrees}
    ranks, tors = {}, {}
    for i in c.degrees[:-1]:
        for key, cols in slices[i].items():
            rows = slices[i + 1].get(key)
            if rows:
                res = dense_snf_oracle(c.diff[i].submatrix(rows, cols))
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


def spin_tangle_oracle(t, ring):
    """The spin of a reduced tangle step by step on the whole space: the
    oracle for ``tl.spin_tangle``, which places one piece per strand.

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
