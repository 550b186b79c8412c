import pytest

from annkh import corpus, tqft


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
