import math
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from annkh import diagram
from annkh.corpus import braid_closure
from annkh.diagram import (
    AnnularDiagram,
    all_orientations,
    cube_edge_pairs,
    load_diagram,
    loads_diagram,
    dumps_diagram,
    nudged,
)
from annkh.errors import (
    ENDPOINT_MISMATCH,
    ORIGIN_ON_CURVE,
    RAY_TANGENCY,
    SELF_INTERSECTION,
    EmbeddingViolationError,
    Violation,
)
from annkh.homology import lee_rank

from conftest import (
    circle_facts,
    disk_facts,
    eager_walk,
    edge_ids,
    fraction_crossings,
    on_segment,
    pd_circle_count,
    reference_point_winding,
    reference_ray_stations,
    reference_seg_intersection,
    reference_signed_area_twice,
)


def all_smoothings(n):
    return product((0, 1), repeat=n)


def winding_number(circle):
    """Signed station sum; embedded circles satisfy |w| <= 1."""
    if abs(circle.winding) > 1:
        raise EmbeddingViolationError(
            f"circle winds {circle.winding} times around the puncture"
        )
    return circle.winding


def square(cx, cy, r):
    return [
        (cx + r, cy - r),
        (cx + r, cy + r),
        (cx - r, cy + r),
        (cx - r, cy - r),
        (cx + r, cy - r),
    ]


def test_circle_crossing_ray_is_fine():
    d = AnnularDiagram([], {"e0": square(3, 0, 1)}, [["e0"]], [False])
    assert d.is_valid()
    rd = d.resolve(())
    c = rd.circles[0]
    assert not c.essential and c.winding == 0
    assert len(reference_ray_stations(circle_points(d, rd)[0])) == 2


def test_vertex_on_ray_rejected():
    pts = [(3, 0), (4, 1), (2, 1), (3, 0)]
    d = AnnularDiagram([], {"e0": pts}, [["e0"]], [False])
    kinds = {v.kind for v in d.validate()}
    assert RAY_TANGENCY in kinds


def test_unknown_edge_rejected():
    d = AnnularDiagram(
        [("a", "b", "a", "b")], {"a": square(0, 5, 1)}, [["a"]], [False]
    )
    kinds = {v.kind for v in d.validate()}
    assert ENDPOINT_MISMATCH in kinds


def test_winding_signs():
    ccw = AnnularDiagram([], {"e0": square(0, 0, 2)}, [["e0"]], [False])
    c = ccw.resolve(()).circles[0]
    assert winding_number(c) == 1 and c.essential
    cw = AnnularDiagram(
        [], {"e0": square(0, 0, 2)[::-1]}, [["e0"]], [False]
    )
    assert winding_number(cw.resolve(()).circles[0]) == -1
    trivial = AnnularDiagram([], {"e0": square(0, 5, 1)}, [["e0"]], [False])
    assert winding_number(trivial.resolve(()).circles[0]) == 0


def test_embedding_violation_guard():
    from annkh.diagram import Circle

    bad = Circle(edges=0, winding=2, essential=True)
    with pytest.raises(EmbeddingViolationError):
        winding_number(bad)


def test_circle_counts_match_pd_oracle(diagrams):
    for name, d in diagrams.items():
        for u in all_smoothings(d.n_crossings):
            got = len(d.resolve(u).circles)
            assert got == pd_circle_count(d, u), (name, u)


def test_saddle_changes_circle_count_by_one(diagrams):
    for d in diagrams.values():
        for u in all_smoothings(d.n_crossings):
            for _, v in cube_edge_pairs(d, u):
                a = len(d.resolve(u).circles)
                b = len(d.resolve(v).circles)
                assert abs(a - b) == 1


def test_no_trivial_circle_contains_essential(diagrams):
    for d in diagrams.values():
        for u in all_smoothings(d.n_crossings):
            rd = d.resolve(u)
            pts = circle_points(d, rd)
            for j, c in enumerate(rd.circles):
                if c.essential:
                    continue
                for i, other in enumerate(rd.circles):
                    if i != j and other.essential:
                        assert reference_point_winding(pts[j], midpoint(pts[i])) == 0


def midpoint(points):
    """The midpoint of a circle's first segment: on no other circle."""
    (ax, ay), (bx, by) = points[:2]
    return ((ax + bx) // 2, (ay + by) // 2)


def circle_points(d, rd, choice=None):
    """The points of each circle of ``rd``, in slot order, from the
    eager walk: along its least edge's stored direction, reversed where
    the orientation ``choice`` runs against that edge."""
    eager = eager_walk(d, rd.smoothing)
    out = []
    for c in rd.circles:
        ids = edge_ids(rd, c)
        comp = d.comp_of_edge(min(ids))
        against = choice is not None and d.orientations[comp] != choice[comp]
        out.append(eager[ids][::-1] if against else eager[ids])
    return out


def test_essential_ordering_strict(diagrams):
    for d in diagrams.values():
        for u in all_smoothings(d.n_crossings):
            rd = d.resolve(u)
            ess = [c for c in rd.circles if c.essential]
            radii = [
                min(x for x, _ in reference_ray_stations(pts))
                for c, pts in zip(rd.circles, circle_points(d, rd))
                if c.essential
            ]
            assert radii == sorted(set(radii))
            assert [c.essential_index for c in ess] == list(
                range(1, len(ess) + 1)
            )


def test_saddle_preserves_essential_parity(diagrams):
    for d in diagrams.values():
        for u in all_smoothings(d.n_crossings):
            rd_u = d.resolve(u)
            for _, v in cube_edge_pairs(d, u):
                rd_v = d.resolve(v)
                by_key = {c.edges: c for c in rd_v.circles}
                for c in rd_u.circles:
                    other = by_key.get(c.edges)
                    if other is None or not c.essential:
                        continue
                    assert other.essential
                    assert (
                        c.essential_index % 2 == other.essential_index % 2
                    )


def oriented_labels(d, choice):
    """The canonical labels of the oriented resolution of ``choice``."""
    _, rd = d.oriented_resolution(choice)
    return d.canonical_labels(rd, choice)


def test_nesting_depths():
    # every square runs counterclockwise, adding 1 to its depth
    single = AnnularDiagram([], {"e0": square(0, 0, 2)}, [["e0"]], [False])
    assert oriented_labels(single, (False,)) == (1,)

    # the trivial circle e1 comes first, at depth 1 inside e0
    inside = AnnularDiagram(
        [],
        {"e0": square(0, 0, 4), "e1": square(2, 0, 1)},
        [["e0"], ["e1"]],
        [False, False],
    )
    assert oriented_labels(inside, (False, False)) == (0, 1)
    assert oriented_labels(inside, (True, False)) == (0, 0)
    assert oriented_labels(inside, (False, True)) == (1, 1)

    # the inner circle e0 comes first, at depth 1 inside e1
    nested = AnnularDiagram(
        [],
        {"e0": square(0, 0, 2), "e1": square(0, 0, 4)},
        [["e0"], ["e1"]],
        [False, False],
    )
    assert oriented_labels(nested, (False, False)) == (0, 1)
    assert oriented_labels(nested, (True, True)) == (1, 0)


def test_clasp_oriented_resolution(diagrams):
    d = diagrams["unknot_clasp"]
    u, rd = d.oriented_resolution()
    assert u == (0,)
    assert [c.essential_index for c in rd.circles] == [1, 2]
    assert all(c.winding == 1 for c in rd.circles)


def test_trefoil_signs(diagrams):
    d = diagrams["trefoil_right"]
    assert d.signs() == [1, 1, 1]
    assert d.n_plus_minus() == (3, 0)
    # global reversal preserves all signs
    assert d.signs((True,)) == [1, 1, 1]
    left = diagrams["trefoil_left"]
    assert left.signs() == [-1, -1, -1]


def test_hopf_orientation_dependence(diagrams):
    d = diagrams["hopf_null"]
    assert d.signs((False, False)) == [-1, -1]
    assert d.signs((False, True)) == [1, 1]
    assert d.signs((True, True)) == [-1, -1]


def test_positive_crossing_takes_zero_smoothing(diagrams):
    d = diagrams["trefoil_right"]
    u, rd = d.oriented_resolution()
    assert u == (0, 0, 0)
    assert all(c.winding == 1 for c in rd.circles)
    # reversing the single component flips every circle's direction
    u2, rd2 = d.oriented_resolution((True,))
    assert u2 == (0, 0, 0)
    assert all(c.winding == -1 for c in rd2.circles)


def test_counterclockwise_detection():
    # a trivial circle at depth 0: its label is 1 when it runs
    # counterclockwise along the orientation
    ccw = AnnularDiagram([], {"e0": square(0, 5, 1)}, [["e0"]], [False])
    assert oriented_labels(ccw, (False,)) == (1,) and oriented_labels(ccw, (True,)) == (0,)
    cw = AnnularDiagram([], {"e0": square(0, 5, 1)[::-1]}, [["e0"]], [False])
    assert oriented_labels(cw, (False,)) == (0,) and oriented_labels(cw, (True,)) == (1,)
    flagged = AnnularDiagram([], {"e0": square(0, 5, 1)}, [["e0"]], [True])
    assert oriented_labels(flagged, (False,)) == (0,)


def test_orientation_choices_enumeration(diagrams):
    d = diagrams["hopf_null"]
    assert len(list(all_orientations(d))) == 4


def test_json_round_trip(diagrams, tmp_path):
    for name, d in diagrams.items():
        text = dumps_diagram(d)
        back = loads_diagram(text)
        assert dumps_diagram(back) == text
        assert back.is_valid()
        assert back.n_crossings == d.n_crossings
    path = tmp_path / "x.json"
    path.write_text(dumps_diagram(diagrams["hopf_null"]))
    assert load_diagram(path).is_valid()


def test_nudge_fixes_ray_tangency():
    diamond = [(3, 0), (0, 3), (-3, 0), (0, -3), (3, 0)]
    d = AnnularDiagram([], {"e0": diamond}, [["e0"]], [False])
    assert not d.is_valid()
    fixed = nudged(d)
    assert fixed.is_valid()
    assert fixed.resolve(()).circles[0].essential


def test_braid_closure_rejects_bad_letters():
    with pytest.raises(ValueError):
        braid_closure([2], 2)


def test_circles_meet_only_at_crossing_points(diagrams):
    # each circle runs along its edges through the crossing points; two
    # of its segments, or two circles, meet only there or where
    # consecutive segments share an end
    for name, d in diagrams.items():
        crossings = {(x * d.scale, y * d.scale) for x, y in fraction_crossings(d)}
        through = 0
        for u in all_smoothings(d.n_crossings):
            segs = []
            for ci, pts in enumerate(circle_points(d, d.resolve(u))):
                n = len(pts)
                through += len(set(pts) & crossings)
                for i in range(n):
                    segs.append((ci, i, n, pts[i], pts[(i + 1) % n]))
            for x in range(len(segs)):
                ci, i, n, a1, b1 = segs[x]
                for y in range(x + 1, len(segs)):
                    cj, j, _, a2, b2 = segs[y]
                    hit = reference_seg_intersection(a1, b1, a2, b2)
                    if hit is None:
                        continue
                    kind, pt = hit
                    adjacent = ci == cj and (abs(i - j) == 1 or {i, j} == {0, n - 1})
                    shared = {a1, b1} & {a2, b2}
                    assert kind == "point" and pt in shared, (name, u, ci, cj, i, j)
                    assert adjacent or pt in crossings, (name, u, ci, cj, i, j, pt)
        assert through or not d.crossings, name


# ---------------------------------------------------------------------------
# oracles for the scaled-integer box sweep and the per-arc resolver


def all_pairs_validate(d):
    """The validator before the box sweep: every pair of segments goes
    through the exact test, in Fraction arithmetic."""
    out = d._validate_structure()
    if out:
        return out
    out = d._match_all_crossings()
    if out:
        return out
    out = d._validate_components()
    origin = (Fraction(0), Fraction(0))
    crossings = fraction_crossings(d)
    cross_pts = set(crossings)
    adj_lookup = {}
    for k, combo in enumerate(d._ends):
        for e in combo:
            idx = 0 if e.end == 0 else len(d.edges[e.edge]) - 2
            adj_lookup.setdefault((e.edge, idx), set()).add(crossings[k])
    for eid, pts in d.edges.items():
        for p in pts:
            if p[1] == 0 and p[0] > 0:
                out.append(Violation(RAY_TANGENCY, f"edge {eid}", f"vertex {p}"))
    for k, p in enumerate(crossings):
        if p[1] == 0 and p[0] > 0:
            out.append(Violation(RAY_TANGENCY, f"crossing {k}", str(p)))
    segs = [
        (eid, i, pts[i], pts[i + 1])
        for eid, pts in d.edges.items()
        for i in range(len(pts) - 1)
    ]
    for a in range(len(segs)):
        e1, i1, a1, b1 = segs[a]
        if on_segment(a1, b1, origin):
            out.append(Violation(ORIGIN_ON_CURVE, f"edge {e1} segment {i1}"))
        for b in range(a + 1, len(segs)):
            e2, i2, a2, b2 = segs[b]
            hit = reference_seg_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            kind, pt = hit
            if kind == "overlap":
                out.append(
                    Violation(
                        SELF_INTERSECTION, f"edges {e1}/{e2}", "collinear overlap"
                    )
                )
                continue
            ok = False
            if (
                pt in cross_pts
                and pt in adj_lookup.get((e1, i1), ())
                and pt in adj_lookup.get((e2, i2), ())
            ):
                ok = True
            elif e1 == e2:
                last = len(d.edges[e1]) - 2
                consecutive = abs(i1 - i2) == 1 or (
                    d._edge_is_closed(e1) and {i1, i2} == {0, last}
                )
                if consecutive:
                    ok = pt in {a1, b1} & {a2, b2}
            if not ok:
                out.append(
                    Violation(SELF_INTERSECTION, f"edges {e1}/{e2}", f"meet at {pt}")
                )
    return out


def rebuilt(d, move=lambda eid, i, p: p):
    """A fresh, unvalidated copy of d with every point p of edge eid at
    index i replaced by move(eid, i, p)."""
    return AnnularDiagram(
        d.crossings,
        {
            eid: [move(eid, i, p) for i, p in enumerate(pts)]
            for eid, pts in d.edges.items()
        },
        d.components,
        d.orientations,
    )


def random_braids(seed, count, max_len):
    """``count`` closures of distinct seeded braid words, keyed by word."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, max_len))]
        out[f"braid {n} {word}"] = braid_closure(word, n)
    return out


def mutants(d, rng):
    """Broken copies of d: each family aims at one violation kind."""
    out = []
    some_eid = sorted(d.edges)[0]
    a, b = d.edges[some_eid][:2]
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    # the whole diagram moved so one segment runs through the puncture
    out.append(rebuilt(d, lambda eid, i, p: (p[0] - mid[0], p[1] - mid[1])))
    # ... or so one vertex sits on the reference ray
    out.append(rebuilt(d, lambda eid, i, p: (p[0] - a[0] + 1, p[1] - a[1])))
    for eid, pts in sorted(d.edges.items()):
        if len(pts) >= 4:
            # the third point on the first segment: segment 1 doubles back
            back = ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)
            out.append(rebuilt(d, lambda e, i, p: back if (e, i) == (eid, 2) else p))
    for _ in range(4):
        eid = rng.choice(sorted(d.edges))
        j = rng.randrange(1, len(d.edges[eid]) - 1)
        dx, dy = (Fraction(rng.randint(-12, 12), 2) for _ in range(2))
        out.append(
            rebuilt(
                d, lambda e, i, p: (p[0] + dx, p[1] + dy) if (e, i) == (eid, j) else p
            )
        )
    return out


def crossing_on_the_ray(d):
    """d rotated about the puncture so that crossing 0 sits just above
    the reference ray, which then crosses that crossing's disk."""
    x, y = (float(c) for c in d.edges[d.crossings[0][0]][-1])
    half = (1e-3 - math.atan2(y, x)) / 2
    return nudged(d, Fraction(math.tan(half)).limit_denominator(1000))


@pytest.fixture(scope="module")
def oracle_cases():
    root = Path(__file__).resolve().parent.parent / "corpus"
    cases = {p.stem: load_diagram(p) for p in sorted(root.glob("*.json"))}
    assert len(cases) == 13
    cases.update(random_braids(41, 12, 3))
    for name in list(cases):
        cases[f"{name} nudged"] = nudged(cases[name], Fraction(3, 29))
        if cases[name].crossings and " " not in name:
            cases[f"{name} on the ray"] = crossing_on_the_ray(cases[name])
    return cases


def test_box_sweep_matches_the_all_pairs_validator(oracle_cases):
    rng = random.Random(43)
    seen = set()
    for name, d in oracle_cases.items():
        # mutating the corpus files alone is enough to reach every kind
        tried = [rebuilt(d)]
        if " " not in name:
            tried += mutants(d, rng)
        for m in tried:
            want = all_pairs_validate(rebuilt(m))
            assert m.validate() == want, name
            seen |= {(v.kind, v.detail.split(" ")[0]) for v in want}
    # every kind of geometric violation was exercised
    assert {
        (SELF_INTERSECTION, "meet"),
        (SELF_INTERSECTION, "collinear"),
        (ORIGIN_ON_CURVE, ""),
        (RAY_TANGENCY, "vertex"),
    } <= seen


def assert_matches_the_disk_model(cases):
    """Every valid case's circles, for every smoothing and orientation,
    against :func:`reference_resolve`: edge ids, winding and essential
    index of each circle, in order, and on each oriented resolution the
    circle's canonical label against the disk's (depth + ccw) % 2.
    Returns how many circles an orientation reverses."""
    reversed_circles = 0
    for name, d in cases.items():
        if not d.is_valid():
            continue
        for u in all_smoothings(d.n_crossings):
            assert circle_facts(d.resolve(u)) == disk_facts(d, u), (name, u)
        for o in all_orientations(d):
            u, rd = d.oriented_resolution(o)
            assert circle_facts(rd, o) == disk_facts(d, u, o), (name, o)
            plain = d.resolve(u).circles
            reversed_circles += sum(a.winding != b.winding for a, b in zip(rd.circles, plain))
    return reversed_circles


def test_per_arc_resolver_matches_whole_circle_geometry(oracle_cases):
    twice_through_a_crossing = 0
    for name, d in oracle_cases.items():
        if not d.is_valid():
            assert not name.endswith("on the ray"), name
            continue
        rds = [(d.resolve(u), None) for u in all_smoothings(d.n_crossings)]
        rds += [(d.oriented_resolution(o)[1], o) for o in all_orientations(d)]
        for rd, o in rds:
            radii = []
            for c, pts in zip(rd.circles, circle_points(d, rd, o)):
                stations = reference_ray_stations(pts)
                assert c.winding == sum(s for _, s in stations), (name, rd.smoothing)
                if c.essential:
                    radii.append(min(x for x, _ in stations))
                twice_through_a_crossing += len(pts) - len(set(pts))
            assert radii == sorted(set(radii)), (name, rd.smoothing)
            lows = [
                min(p) for c, p in zip(rd.circles, circle_points(d, rd))
                if not c.essential
            ]
            assert lows == sorted(lows), (name, rd.smoothing)
    assert twice_through_a_crossing > 0
    assert_matches_the_disk_model(oracle_cases)


@pytest.fixture(scope="module")
def traced_cases(diagrams):
    """The corpus and 20 seeded 2- to 4-strand braid closures, each also
    turned so that the reference ray passes just below crossing 0."""
    cases = {**diagrams, **random_braids(53, 20, 6)}
    for name, d in list(cases.items()):
        if d.crossings and (turned := crossing_on_the_ray(d)).is_valid():
            cases[f"{name} on the ray"] = turned
    return cases


def test_resolve_matches_the_disk_model(traced_cases):
    """Tracing through the crossing points gives the circles of the
    smoothed diagram, for every smoothing and orientation."""
    assert assert_matches_the_disk_model(traced_cases) > 20


def wedge_direction(a, b, mix):
    """A direction strictly inside the counterclockwise wedge from the
    direction a to the direction b, for a Fraction mix strictly between
    0 and 1."""
    if a[0] * b[1] - a[1] * b[0] <= 0:
        # a wedge of at least a half turn holds a's quarter turn
        b = (-a[1], a[0])
    na, nb = abs(a[0]) + abs(a[1]), abs(b[0]) + abs(b[1])
    return tuple(mix * x / na + (1 - mix) * y / nb for x, y in zip(a, b))


@pytest.fixture(scope="module")
def puncture_sweep(diagrams):
    """The corpus and 25 seeded braid closures, each moved so that the
    puncture sits near one crossing, inside one of its four wedges, for
    every crossing and wedge; the valid ones."""
    rng = random.Random(71)
    cases = {}
    for name, d in {**diagrams, **random_braids(71, 25, 4)}.items():
        d.ensure_valid()
        for k, p in enumerate(fraction_crossings(d)):
            dirs = [e.direction for e in d._ends[k]]
            for q in range(4):
                mix = Fraction(rng.randint(1, 15), 16)
                w = wedge_direction(dirs[q], dirs[(q + 1) % 4], mix)
                t = Fraction(rng.randint(1, 8), 64)
                c = (p[0] + t * w[0], p[1] + t * w[1])
                moved = rebuilt(d, lambda eid, i, pt: (pt[0] - c[0], pt[1] - c[1]))
                if moved.is_valid():
                    cases[f"{name} crossing {k} wedge {q}"] = moved
    return cases


def test_a_puncture_near_a_crossing_keeps_the_lee_rank(puncture_sweep):
    assert len(puncture_sweep) > 200
    for name, d in puncture_sweep.items():
        assert lee_rank(d) == 2 ** d.n_components, name


def test_a_puncture_near_a_crossing_matches_the_disk_model(puncture_sweep):
    assert_matches_the_disk_model(puncture_sweep)


def test_validation_makes_linearly_many_exact_pair_tests(monkeypatch):
    d = rebuilt(braid_closure([1] * 40, 2))
    nsegs = sum(len(pts) - 1 for pts in d.edges.values())
    pairs = []
    sweep = diagram._box_pairs

    def counting(boxes):
        found = sweep(boxes)
        pairs.append(len(found))
        return found

    # the sweep hands every pair that is tested exactly to the pair loop
    monkeypatch.setattr(diagram, "_box_pairs", counting)
    assert d.is_valid()
    assert len(pairs) == 1 and 0 < pairs[0] <= 3 * nsegs


# ---------------------------------------------------------------------------
# oracles for the int working coordinates: the Fraction predicates as they
# were before the geometry after parsing moved to ints


def reference_nesting_depth(polylines, index):
    (ax, ay), (bx, by) = polylines[index][:2]
    probe = ((ax + bx) / 2, (ay + by) / 2)
    return sum(
        1
        for j, other in enumerate(polylines)
        if j != index and reference_point_winding(other, probe) != 0
    )


def test_int_geometry_matches_the_fraction_predicates(oracle_cases):
    essential_seen = 0
    for name, d in oracle_cases.items():
        if not d.is_valid():
            continue
        scale = d.scale
        assert type(scale) is int and scale > 0
        rds = [(d.resolve(u), None) for u in all_smoothings(d.n_crossings)]
        rds += [(d.oriented_resolution(o)[1], o) for o in all_orientations(d)]
        for rd, o in rds:
            where = (name, rd.smoothing, o)
            points = circle_points(d, rd, o)
            # the circles back in the diagram's own coordinates
            plain = [
                tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in pts)
                for pts in points
            ]
            labels = None if o is None else d.canonical_labels(rd, o)
            innermost = []
            for idx, c in enumerate(rd.circles):
                assert all(type(v) is int for p in points[idx] for v in p), where
                stations = reference_ray_stations(plain[idx])
                assert c.winding == sum(s for _, s in stations), where
                if o is not None:
                    depth = reference_nesting_depth(plain, idx)
                    ccw = reference_signed_area_twice(plain[idx]) > 0
                    assert labels[idx] == (depth + ccw) % 2, where
                if c.essential:
                    innermost.append(min(x for x, _ in stations))
            # essential circles come innermost first, at distinct radii
            assert innermost == sorted(set(innermost)), where
            essential_seen += len(innermost)
    assert essential_seen > 0


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_loading_builds_one_fraction_per_edge_meeting_the_ray(monkeypatch):
    from annkh import cli, homology

    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    d = cli.load(CORPUS / "braid3_r3_a.json")
    built = len(made)
    # coordinates are read as ints, and the Fraction view is not built;
    # the Fractions are each edge's least ray radius
    assert "edges" not in vars(d)
    stations = [reference_ray_stations(p, closed=False) for p in d._int_edges.values()]
    meets = sum(map(bool, stations))
    stations = sum(map(len, stations))
    assert 0 < meets <= stations
    assert built == meets
    made.clear()
    for o in all_orientations(d):
        homology.canonical_generator(d, o)
    assert made == []


def test_the_label_tables_are_built_once_on_first_use():
    from annkh import cli, homology

    d = cli.load(CORPUS / "hopf_null.json")
    c = homology.lee_complex(d)
    # loading, validating and resolving every smoothing build no table
    assert "_label_tables" not in vars(d)
    built = []
    for o in all_orientations(d):
        homology.verify_canonical(d, o, c)
        built.append(vars(d)["_label_tables"])
    assert all(t is built[0] for t in built)


def test_comp_of_edge_is_a_lookup(diagrams):
    d = diagrams["hopf_null"]
    assert d.n_components == 2
    for i, comp in enumerate(d.components):
        assert {d.comp_of_edge(e) for e in comp} == {i}
    with pytest.raises(KeyError):
        d.comp_of_edge("no such edge")


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_a_corpus_file_is_written_back_byte_for_byte(path):
    # the Fraction view built from the int points names every coordinate
    # as the file does
    assert dumps_diagram(load_diagram(path)) + "\n" == path.read_text()


# ---------------------------------------------------------------------------
# the int parser against the bounded Fraction parser


def fraction_path(c):
    """A coordinate read by the bounded Fraction parser alone, as every
    coordinate was read before the int fast path."""
    f = diagram.bounded_fraction(c, "a coordinate")
    return f.numerator, f.denominator


def parsed_point(xy, read):
    """A point's coordinate pairs, or the text of its refusal."""
    try:
        return diagram._pt("e0", xy, read)
    except ValueError as e:
        return str(e)


def takes_the_int_path(v):
    """Whether the parser reads v without the Fraction parser: a short
    ASCII string ``-?\\d+(/\\d+)?`` with a nonzero denominator, or an
    int or a Fraction within the cap."""
    if type(v) is str:
        m = re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", v)
        return bool(m) and len(v) <= 40 and int(m.group(1) or 1) != 0
    if type(v) in (int, Fraction):
        cap = 10 ** (diagram.MAX_EXPONENT + 1)
        return abs(v.numerator) < cap and v.denominator < cap
    return False


def test_the_int_parser_reads_what_fraction_reads(monkeypatch):
    rng = random.Random(89)
    values = [
        "+5", " 5 ", "1_000", "\u0663", "1/0", "-0", "007/014", "1e3", "0.5", "", "/2",
        "-", "5/", "-5/-3", "5/+3", "--5", "0/7", "-0/3", "3/6", "0" * 39 + "7",
        "1" + "0" * 40, "-" + "9" * 39, "9" * 4001, "1" + "0" * 4001,
        10**60 + 7, -(10**60), 10**4001, -(10**4001), 0,
        Fraction(10**4001, 3), Fraction(1, 10**4001), Fraction(-7, 2),
        True, False, 0.5, -0.0, 1e300, 2.5e-8, float("nan"), float("inf"), -1.0,
        None, [1], {"x": 1},
    ]
    values += [rng.randint(-(10**6), 10**6) for _ in range(20)]
    values += [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(20)]
    values += [rng.uniform(-100, 100) for _ in range(10)]
    for _ in range(80):
        # a coordinate as ``save_diagram`` writes it, and a spelling one
        # character away from it
        text = str(Fraction(rng.randint(-(10**8), 10**8), rng.randint(1, 10**4)))
        k = rng.randrange(len(text) + 1)
        values += [text, text[:k] + rng.choice("+- _/.e0x\u0663") + text[k:]]
    points = [[v, "3"] for v in values] + [["-7/2", v] for v in values]
    reached = []
    bounded = diagram.bounded_fraction

    def spy(c, what="a value"):
        reached.append(c)
        return bounded(c, what)

    monkeypatch.setattr(diagram, "bounded_fraction", spy)
    # one diagram's strings are parsed once, however often they repeat
    read = {}
    fast = [parsed_point(xy, read) for xy in points]
    through_fraction = list(reached)
    monkeypatch.setattr(diagram, "_coordinate", fraction_path)
    slow = [parsed_point(xy, {}) for xy in points]
    assert fast == slow
    # every spelling but the plain ones, and every float, went through
    # the Fraction parser; booleans are refused before either
    for v in values:
        if type(v) is not bool:
            reads = any(r is v or type(r) is str and r == v for r in through_fraction)
            assert reads != takes_the_int_path(v), repr(v)[:80]
    refusals = {r.partition("(")[2] for r in fast if isinstance(r, str)}
    assert {
        "a coordinate of over 4001 digits)",
        "Fraction(1, 0))",
        "a coordinate is a number or a string, not a boolean)",
    } <= refusals
    assert sum(not isinstance(r, str) for r in fast) > len(points) // 2


# ---------------------------------------------------------------------------
# geometry against the pairwise loop


def halfway(a, b):
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def moved(d, eid, j, p):
    """A fresh copy of d with point j of edge eid at p."""
    return rebuilt(d, lambda e, i, q: p if (e, i) == (eid, j) else q)


def geometry_cases():
    """The corpus and seeded perturbations of it, each aimed at one kind
    of geometric violation."""
    rng = random.Random(131)
    cases = {}
    for path in sorted(CORPUS.glob("*.json")):
        d = load_diagram(path)
        name = path.stem
        cases[name] = d
        first = sorted(d.edges)[0]
        a, b = d.edges[first][:2]
        cases[f"{name} vertex on the ray"] = rebuilt(
            d, lambda e, i, p: (p[0] - a[0] + 1, p[1] - a[1])
        )
        mid = halfway(a, b)
        cases[f"{name} through the puncture"] = rebuilt(
            d, lambda e, i, p: (p[0] - mid[0], p[1] - mid[1])
        )
        for eid, pts in sorted(d.edges.items()):
            closed = d._edge_is_closed(eid)
            # point 2 on segment 0, so that segment 1 runs back along it;
            # on an open edge, not the point that sets its end's direction
            if len(pts) >= 5 or closed and len(pts) >= 4:
                cases[f"{name} {eid} folds back"] = moved(d, eid, 2, halfway(*pts[:2]))
            if closed and len(pts) >= 4:
                # the last segment runs back along the first, over the close
                cases[f"{name} {eid} folds back over its close"] = moved(
                    d, eid, len(pts) - 2, halfway(*pts[:2])
                )
        for n in range(3):
            eid = rng.choice(sorted(d.edges))
            j = rng.randrange(1, len(d.edges[eid]) - 1)
            x, y = d.edges[eid][j]
            dx, dy = (Fraction(rng.randint(-12, 12), 2) for _ in range(2))
            cases[f"{name} moved {n}"] = moved(d, eid, j, (x + dx, y + dy))
    bow_tie = [["1", "5"], ["-1", "7"], ["-1", "5"], ["1", "7"], ["1", "5"]]
    cases["bow tie"] = AnnularDiagram([], {"e0": bow_tie}, [["e0"]], [False])
    return cases


def test_geometry_matches_the_pairwise_loop():
    from conftest import reference_validate_geometry

    seen = set()
    compared = 0
    for name, d in geometry_cases().items():
        if d._validate_structure() or d._match_all_crossings():
            assert " moved " in name, name
            continue
        want = reference_validate_geometry(d)
        assert d._validate_geometry() == want, name
        compared += 1
        for v in want:
            e1, _, e2 = v.where.partition(" ")[2].partition("/")
            same = "one edge" if e1 == e2 else "two edges"
            seen.add((v.kind, v.detail.split(" ")[0], same if e2 else ""))
            if name.endswith("folds back over its close"):
                seen.add(("wrap", v.detail))
        if name == "bow tie":
            meet = "meet at (Fraction(0, 1), Fraction(6, 1))"
            assert [v.detail for v in want] == [meet]
    assert compared > 60
    assert {
        (RAY_TANGENCY, "vertex", ""),
        (ORIGIN_ON_CURVE, "", ""),
        (SELF_INTERSECTION, "collinear", "one edge"),
        (SELF_INTERSECTION, "meet", "one edge"),
        (SELF_INTERSECTION, "meet", "two edges"),
        ("wrap", "collinear overlap"),
    } <= seen
