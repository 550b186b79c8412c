"""Annular link diagrams with exact integer geometry.

A diagram lives in the plane punctured at the origin; the reference ray
is the positive x-axis.  Crossings are PD records: four edge identifiers
in counterclockwise order starting from the incoming under-strand.
Edges are polylines whose open ends meet at crossing points.

Smoothing convention (ends numbered 1..4 as in the PD record): the
0-smoothing joins ends 1-2 and 3-4, the 1-smoothing joins 1-4 and 2-3.
Resolved circles are classified as trivial or essential by their winding
around the puncture, computed from signed crossings of the reference
ray, and essential circles are ordered innermost to outermost by the
radius of their innermost ray crossing.

Coordinates are parsed once, straight to lowest-terms (numerator,
denominator) pairs of ints: the plain strings ``save_diagram`` writes,
ints and Fractions directly, any other spelling through the bounded
``Fraction`` parser.  All geometry after parsing runs on ints, at one
working scale ``AnnularDiagram.scale``: every coordinate times twice the
LCM of the denominators, so that every segment's midpoint is an int
point too.  ``AnnularDiagram.edges``, the coordinates as Fractions, is
built from the int points when it is first read, which only violation
texts, ``nudged`` and ``diagram_to_dict`` do.  A positive scale keeps
the sign of every orientation test and comparison, so validation's
predicates are exact on ints.  A sweep over segment bounding boxes
sends only the pairs whose boxes meet to an exact test, written out on
ints: two consecutive segments of one edge need one cross and one dot
product.  A resolved circle runs along its edges through the
crossing points, which validation keeps off the reference ray and the
puncture; it differs from the smoothed circle only in arbitrarily small
disks around them, so its winding, ray radii and signed area sign, and
the winding around it of any point off the crossings, are the smoothed
circle's.  Validation keeps each edge's winding around the puncture,
and the ranks of its least point and least ray radius among all edges'.
``resolve`` has one mode and keeps nothing: it walks each circle from
its least edge id along that edge's stored direction over edge numbers
only, adding up those sums and noting the slot of each edge's circle,
and traces no point; ``oriented_resolution`` negates the winding of
the circles the orientation runs against.  The canonical labels
(``canonical_labels``) are per-edge sums too, from two tables built on
their first use: each edge's twice-area, which gives a circle's
direction, and the edges that a ray from the midpoint of each edge's
first segment crosses an odd number of times, which give the parity of
its depth.  A station's radius cross(a, b) / (b_y - a_y) is the one
Fraction left; circles have few.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from typing import NamedTuple

from .errors import (
    ENDPOINT_MISMATCH,
    ORIGIN_ON_CURVE,
    RAY_TANGENCY,
    SELF_INTERSECTION,
    EmbeddingViolationError,
    InvalidDiagramError,
    InvariantError,
    Violation,
)

# ---------------------------------------------------------------------------
# parsing


def _parse_edges(edges):
    """Each edge's points, each coordinate a lowest-terms (numerator,
    denominator) pair of ints.  A malformed edge list or coordinate
    raises ValueError naming the edge.  Each distinct coordinate string
    is parsed once: a diagram names each crossing point on four edges."""
    try:
        items = list(edges.items())
    except AttributeError:
        raise ValueError("edges must map edge ids to point lists") from None
    out = {}
    read = {}
    for eid, pts in items:
        if not isinstance(pts, (list, tuple)):
            raise ValueError(f"edge {eid}: points must be a list, not {pts!r}")
        out[str(eid)] = [_pt(eid, p, read) for p in pts]
    return out


def _listed(name, value, entry):
    """A list field, each entry through ``entry``; a field or an entry
    of the wrong shape raises ValueError naming the field."""
    try:
        return [entry(x) for x in value]
    except TypeError as e:
        raise ValueError(f"{name}: malformed field ({e})") from None


def _array(x):
    """A JSON array entry as a tuple; anything else raises TypeError."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{x!r} is not a list")
    return tuple(x)


def _string(x):
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a string")
    return x


def _boolean(x):
    if not isinstance(x, bool):
        raise TypeError(f"{x!r} is not a boolean")
    return x


# A string coordinate's exponent is refused beyond this: parsing 1e10000000
# takes seconds, and Python will not print an int of over 4,300 digits.  A
# coordinate's numerator and denominator stay below 10**(MAX_EXPONENT + 1),
# so a long mantissa is refused too.
MAX_EXPONENT = 4000
_MAX_COORDINATE = 10 ** (MAX_EXPONENT + 1)
# A string coordinate of at most this many characters is far below the cap.
_SHORT = 40


def _meet_text(at):
    """Where two segments meet: within the cap, a point of more digits
    than Python prints."""
    try:
        return f"meet at {at}"
    except ValueError:
        return "meet at a point whose coordinates are too long to print"


def bounded_fraction(c, what="a value"):
    """A number or numeric string as a Fraction, refused with
    ``ValueError`` when its exponent passes ``MAX_EXPONENT`` (checked
    before parsing, which would take that long) or its numerator or
    denominator has more than ``MAX_EXPONENT + 1`` digits, where the
    message calls it ``what``."""
    exponent = c.lower().partition("e")[2] if isinstance(c, str) else ""
    if abs(int(exponent or 0)) > MAX_EXPONENT:
        raise ValueError(f"an exponent beyond {MAX_EXPONENT}")
    f = Fraction(c)
    if abs(f.numerator) >= _MAX_COORDINATE or f.denominator >= _MAX_COORDINATE:
        raise ValueError(f"{what} of over {MAX_EXPONENT + 1} digits")
    return f


def _coordinate(c):
    """A coordinate as its lowest-terms (numerator, denominator) ints.

    Short ASCII strings of the form ``save_diagram`` writes,
    ``-?\\d+(/\\d+)?`` with a nonzero denominator, are split and read
    with ``int``, and ints and Fractions within the cap are taken as
    they are.  Every other value, and every refusal, goes through
    ``bounded_fraction``, so each gives what ``Fraction`` gives."""
    t = type(c)
    if t is str:
        if len(c) <= _SHORT and c.isascii():
            num, slash, den = c.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdigit():
                if not slash:
                    return int(num), 1
                if den.isdigit() and (d := int(den)):
                    n = int(num)
                    g = gcd(n, d)
                    return n // g, d // g
    elif t is int:
        if -_MAX_COORDINATE < c < _MAX_COORDINATE:
            return c, 1
    elif t is Fraction:
        n, d = c.numerator, c.denominator
        if -_MAX_COORDINATE < n < _MAX_COORDINATE and d < _MAX_COORDINATE:
            return n, d
    f = bounded_fraction(c, "a coordinate")
    return f.numerator, f.denominator


def _read_once(c, read):
    """``_coordinate`` of c, kept in ``read`` for a string."""
    if type(c) is not str:
        return _coordinate(c)
    pair = read.get(c)
    if pair is None:
        pair = read[c] = _coordinate(c)
    return pair


def _pt(eid, xy, read):
    """A point as its two coordinates' (numerator, denominator) pairs;
    ``read`` holds the pairs of the strings parsed before."""
    try:
        if not isinstance(xy, (list, tuple)):
            raise TypeError("a point is a list of two coordinates")
        x, y = xy
        if isinstance(x, bool) or isinstance(y, bool):
            raise TypeError("a coordinate is a number or a string, not a boolean")
        return _read_once(x, read), _read_once(y, read)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise ValueError(f"edge {eid}: bad point {xy!r} ({e})") from None


def _scaled(edges):
    """The working scale S, twice the LCM of all denominators, and every
    point of the parsed edges times S as ints."""
    scale = 2 * lcm(*{c[1] for pts in edges.values() for p in pts for c in p})
    return scale, {
        eid: [
            (xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in pts
        ]
        for eid, pts in edges.items()
    }


# ---------------------------------------------------------------------------
# exact planar predicates (on ints; the tests also run them on Fractions)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _orient(a, b, c):
    return _cross(_sub(b, a), _sub(c, a))


def _crossing_point(a, d, c, f):
    """Where the segments from a along d and from c along f cross,
    given that they cross properly: at a + t d, t = cross(c - a, f) /
    cross(d, f), a Fraction."""
    t = Fraction(_cross(_sub(c, a), f), _cross(d, f))
    return (a[0] + t * d[0], a[1] + t * d[1])


def _box_pairs(boxes):
    """The pairs (a, b), a < b, of closed boxes that meet, found by a
    sweep in order of smallest x: the boxes after a box in that order
    whose smallest x is at most its largest x are the ones that meet it
    along x."""
    pairs = []
    starts = [box[0] for box in boxes]
    order = sorted(range(len(boxes)), key=starts.__getitem__)
    starts.sort()
    for n, i in enumerate(order):
        _, x1, y0, y1 = boxes[i]
        for j in order[n + 1 : bisect_right(starts, x1, n + 1)]:
            box = boxes[j]
            if box[2] <= y1 and y0 <= box[3]:
                pairs.append((i, j) if i < j else (j, i))
    return pairs


def _counterclockwise(a, b, c, d):
    """Whether four directions point four different ways, in
    counterclockwise order around their common start.

    Directions compare by angle from the positive x-axis: the upper
    half-plane (the positive axis included) first, then within a half
    by the sign of their cross product.  Distinct angles are in
    counterclockwise order exactly when the cyclic sequence of them
    descends once."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    ha = 0 if ay > 0 or (ay == 0 and ax > 0) else 1
    hb = 0 if by > 0 or (by == 0 and bx > 0) else 1
    hc = 0 if cy > 0 or (cy == 0 and cx > 0) else 1
    hd = 0 if dy > 0 or (dy == 0 and dx > 0) else 1
    # each is positive when its first direction comes later, zero when equal
    ab = ha - hb or ay * bx - ax * by
    bc = hb - hc or by * cx - bx * cy
    cd = hc - hd or cy * dx - cx * dy
    da = hd - ha or dy * ax - dx * ay
    if not (ab and bc and cd and da):
        return False
    if not (ha - hc or ay * cx - ax * cy) or not (hb - hd or by * dx - bx * dy):
        return False
    return (ab > 0) + (bc > 0) + (cd > 0) + (da > 0) == 1


# ---------------------------------------------------------------------------
# circles and resolved diagrams


class Circle(NamedTuple):
    """One closed curve of a resolved diagram, kept as the edges it runs
    along and no points.

    Bit j of ``edges`` is set when the circle runs along the j-th edge
    id in sorted order (``AnnularDiagram.edge_ids`` names them); its
    lowest bit is the circle's least edge id, where its walk starts.
    The circle runs along its edges through the crossing points, so it
    may pass one crossing point twice and share it with another circle;
    off the crossing points it is embedded and disjoint from the other
    circles.  ``winding`` is the signed count of its crossings of the
    reference ray, +1 upward, along its least edge's stored direction
    (along the orientation in ``oriented_resolution``).
    """

    edges: int
    winding: int
    essential: bool
    essential_index: object = None  # 1-based, innermost first; None if trivial


def first_edge(edges):
    """The number of the least edge id in an ``edges`` mask."""
    return (edges & -edges).bit_length() - 1


@dataclass(frozen=True)
class ResolvedDiagram:
    """A smoothing with classified, canonically ordered circles.

    Circles are listed trivial-first (sorted by smallest vertex, a
    crossing point included), then essential circles ordered innermost
    to outermost by their least radius on the reference ray.  A circle's
    index in this list is its slot, and ``slot_of_edge`` holds the slot
    of the circle through each edge, edges numbered as in
    ``Circle.edges``.  It holds no points: the canonical labels of an
    oriented resolution are sums over its circles' edges
    (``AnnularDiagram.canonical_labels``).
    """

    smoothing: tuple
    circles: tuple
    slot_of_edge: tuple
    diagram: object = field(repr=False, compare=False)

    @property
    def n_essential(self):
        return sum(1 for c in self.circles if c.essential)


# ---------------------------------------------------------------------------
# the diagram proper


class _End(NamedTuple):
    """One end of an open edge at a crossing point."""

    edge: str
    end: int  # 0 = tail (polyline start), 1 = head (polyline end)
    direction: tuple  # the edge's next point - crossing point


# per smoothing bit, the PD position paired with each position
_PAIRING = ((1, 0, 3, 2), (3, 2, 1, 0))


class AnnularDiagram:
    """An annular link diagram with exact geometric realization."""

    def __init__(self, crossings, edges, components, orientations):
        self.crossings = _listed(
            "crossings", crossings, lambda rec: tuple(map(_string, _array(rec)))
        )
        # all geometry runs on the int points, the coordinates times ``scale``
        self.scale, self._int_edges = _scaled(_parse_edges(edges))
        self.components = _listed(
            "components", components, lambda comp: tuple(map(_string, _array(comp)))
        )
        self.orientations = _listed("orientations", orientations, _boolean)
        # each edge id's component, which ``comp_of_edge`` looks up
        self._component = {e: i for i, comp in enumerate(self.components) for e in comp}
        self._violations = None
        self._ends = None
        self._cross_pts = None
        self._arcs = None
        self._crossing_edges = {e for rec in self.crossings for e in rec}

    @cached_property
    def edges(self):
        """Each edge's points as Fraction pairs, the diagram's own
        coordinates, built on first read: only violation texts,
        ``nudged`` and ``diagram_to_dict`` read them."""
        s = self.scale
        return {
            eid: [(Fraction(x, s), Fraction(y, s)) for x, y in pts]
            for eid, pts in self._int_edges.items()
        }

    @property
    def n_crossings(self):
        return len(self.crossings)

    @property
    def n_components(self):
        return len(self.components)

    def comp_of_edge(self, eid):
        return self._component[eid]

    # -- validation --------------------------------------------------------

    def validate(self):
        if self._violations is None:
            self._violations = self._run_validation()
        return self._violations

    def is_valid(self):
        return not self.validate()

    def ensure_valid(self):
        v = self.validate()
        if v:
            raise InvalidDiagramError(v)

    def _run_validation(self):
        out = self._validate_structure()
        if out:
            return out
        out = self._match_all_crossings()
        if out:
            return out
        out = self._validate_components() + self._validate_geometry()
        if not out:
            self._prepare_arcs()
        return out

    def _validate_structure(self):
        out = []
        for eid, pts in self._int_edges.items():
            if len(pts) < 2:
                out.append(
                    Violation(ENDPOINT_MISMATCH, f"edge {eid}", "too few points")
                )
                continue
            for i in range(len(pts) - 1):
                if pts[i] == pts[i + 1]:
                    out.append(
                        Violation(
                            ENDPOINT_MISMATCH,
                            f"edge {eid}",
                            f"zero-length segment at index {i}",
                        )
                    )
        for k, rec in enumerate(self.crossings):
            if len(rec) != 4:
                out.append(
                    Violation(ENDPOINT_MISMATCH, f"crossing {k}", "needs 4 ends")
                )
                continue
            for eid in rec:
                if eid not in self._int_edges:
                    out.append(
                        Violation(
                            ENDPOINT_MISMATCH,
                            f"crossing {k}",
                            f"unknown edge {eid}",
                        )
                    )
        for eid, pts in self._int_edges.items():
            if len(pts) >= 2 and self._edge_is_closed(eid) and pts[0] != pts[-1]:
                out.append(
                    Violation(
                        ENDPOINT_MISMATCH,
                        f"edge {eid}",
                        "free edge must close up (first point = last point)",
                    )
                )
        declared = [e for comp in self.components for e in comp]
        if sorted(declared) != sorted(self._int_edges):
            out.append(
                Violation(
                    ENDPOINT_MISMATCH,
                    "components",
                    "components must partition the edge set",
                )
            )
        if len(self.orientations) != len(self.components):
            out.append(
                Violation(
                    ENDPOINT_MISMATCH,
                    "orientations",
                    "one flag per component required",
                )
            )
        return out

    def _edge_is_closed(self, eid):
        # closed edges are free loops: referenced by no crossing record
        # (an open loop edge can also have equal endpoints, both at one
        # crossing, so point equality alone does not decide)
        return eid not in self._crossing_edges

    def _match_crossing(self, k):
        """Crossing k's four ends in PD order and its point, or the
        violation that keeps them from fitting.  Each edge of the record
        names the crossing, so none is closed."""
        rec = self.crossings[k]
        int_edges = self._int_edges
        point = int_edges[rec[0]][-1]  # position 1 is the incoming under-strand
        px, py = point
        cands = []
        for q, eid in enumerate(rec):
            # position 1 is a head, position 3 a tail, and 2 and 4 either
            pts = int_edges[eid]
            ends = []
            if q != 0 and pts[0] == point:
                x, y = pts[1]
                ends.append((eid, 0, (x - px, y - py)))
            if q != 2 and pts[-1] == point:
                x, y = pts[-2]
                ends.append((eid, 1, (x - px, y - py)))
            if not ends:
                return None, None, Violation(
                    ENDPOINT_MISMATCH,
                    f"crossing {k}",
                    "an end is missing at the crossing point",
                )
            cands.append(ends)
        valid = []
        for combo in product(*cands):
            (e0, n0, d0), (e1, n1, d1), (e2, n2, d2), (e3, n3, d3) = combo
            if len({(e0, n0), (e1, n1), (e2, n2), (e3, n3)}) != 4:
                continue
            # over-strand passes through: one incoming, one outgoing
            if n1 == n3:
                continue
            if _counterclockwise(d0, d1, d2, d3):
                valid.append(combo)
        if not valid:
            return None, None, Violation(
                ENDPOINT_MISMATCH,
                f"crossing {k}",
                "no end assignment matches the counterclockwise order",
            )
        # two combinations differ in the end taken at some position
        if len(valid) > 1:
            return None, None, Violation(
                ENDPOINT_MISMATCH, f"crossing {k}", "ambiguous end assignment"
            )
        return tuple(_End(*e) for e in valid[0]), point, None

    def _match_all_crossings(self):
        out = []
        ends = []
        pts = []
        for k in range(len(self.crossings)):
            combo, point, err = self._match_crossing(k)
            if err:
                out.append(err)
                continue
            ends.append(combo)
            pts.append(point)
        if out:
            return out
        # every open end used exactly once
        usage = {}
        for combo in ends:
            for e in combo:
                usage[(e.edge, e.end)] = usage.get((e.edge, e.end), 0) + 1
        for eid in self._int_edges:
            if self._edge_is_closed(eid):
                continue
            for end in (0, 1):
                n = usage.get((eid, end), 0)
                if n != 1:
                    out.append(
                        Violation(
                            ENDPOINT_MISMATCH,
                            f"edge {eid}",
                            f"end {end} used {n} times",
                        )
                    )
        if not out:
            self._ends = ends
            self._cross_pts = pts
        return out

    def _validate_components(self):
        # strand continuity: positions 1-3 and 2-4 belong to one component
        out = []
        parent = {e: e for e in self._int_edges}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        for rec in self.crossings:
            union(rec[0], rec[2])
            union(rec[1], rec[3])
        classes = {}
        for e in self._int_edges:
            classes.setdefault(find(e), set()).add(e)
        declared = {frozenset(comp) for comp in self.components}
        computed = {frozenset(c) for c in classes.values()}
        if declared != computed:
            out.append(
                Violation(
                    ENDPOINT_MISMATCH,
                    "components",
                    "declared components disagree with strand continuity",
                )
            )
        return out

    def _validate_geometry(self):
        """Ray tangencies, the puncture on a segment, and segments that
        meet away from their shared ends, on the scaled segments.

        Only pairs whose bounding boxes meet are tested.  Two consecutive
        segments of one edge share a point, so they meet elsewhere
        exactly when they are collinear and fold back: one cross and one
        dot product of their directions decide them.  Any other pair is
        dropped when one segment lies strictly on one side of the other's
        line.  Of the rest, collinear segments overlap or share an end,
        segments that touch meet at the end that lies on the other one's
        line, and only a proper crossing goes to ``_crossing_point``
        for its point.  Segment violations come in segment order, each
        segment's puncture first and then its pairs in partner order."""
        tangent, found = [], []
        int_edges = self._int_edges
        # per segment: edge, index, ends, direction; box; the segment
        # consecutive after it (-1 past an open edge's last one)
        segs, boxes, follow, first = [], [], [], {}
        for eid, pts in int_edges.items():
            first[eid] = start = len(segs)
            ax, ay = pts[0]
            if ay == 0 and ax > 0:
                tangent.append((eid, 0))
            for i in range(1, len(pts)):
                bx, by = pts[i]
                if by == 0 and bx > 0:
                    tangent.append((eid, i))
                x0, x1 = (ax, bx) if ax < bx else (bx, ax)
                y0, y1 = (ay, by) if ay < by else (by, ay)
                if x0 <= 0 <= x1 and y0 <= 0 <= y1 and ax * by == ay * bx:
                    where = f"edge {eid} segment {i - 1}"
                    found.append((len(segs), -1, Violation(ORIGIN_ON_CURVE, where)))
                segs.append((eid, i - 1, ax, ay, bx, by, bx - ax, by - ay))
                boxes.append((x0, x1, y0, y1))
                ax, ay = bx, by
            follow.extend(range(start + 1, len(segs)))
            follow.append(start if self._edge_is_closed(eid) else -1)
        out = [
            Violation(RAY_TANGENCY, f"edge {eid}", f"vertex {self.edges[eid][i]}")
            for eid, i in tangent
        ]
        cross = self._cross_pts
        for k, (x, y) in enumerate(cross):
            if y == 0 and x > 0:
                at = self.edges[self.crossings[k][0]][-1]
                out.append(Violation(RAY_TANGENCY, f"crossing {k}", str(at)))
        # the crossing points at the ends of each end segment of an edge
        adj = {}
        for k, combo in enumerate(self._ends):
            for e in combo:
                s = first[e.edge] + (0 if e.end == 0 else len(int_edges[e.edge]) - 2)
                adj.setdefault(s, set()).add(cross[k])
        for a, b in _box_pairs(boxes):
            e1, i1, ax, ay, bx, by, dx, dy = segs[a]
            e2, i2, cx, cy, ex, ey, fx, fy = segs[b]
            if follow[a] == b or follow[b] == a:
                if not (dx * fy == dy * fx and dx * fx + dy * fy < 0):
                    continue
                pt = None  # they fold back
            else:
                o1 = dx * (cy - ay) - dy * (cx - ax)
                o2 = dx * (ey - ay) - dy * (ex - ax)
                if o1 > 0 and o2 > 0 or o1 < 0 and o2 < 0:
                    continue
                o3 = fx * (ay - cy) - fy * (ax - cx)
                o4 = fx * (by - cy) - fy * (bx - cx)
                if o3 > 0 and o4 > 0 or o3 < 0 and o4 < 0:
                    continue
                if not (o1 or o2 or o3 or o4):
                    # collinear, and their boxes meet: along a's axis they
                    # share one end or overlap
                    k = 0 if dx else 2
                    lo = max(boxes[a][k], boxes[b][k])
                    if lo != min(boxes[a][k + 1], boxes[b][k + 1]):
                        pt = None
                    else:
                        pt = (ax, ay) if (ax, ay)[k // 2] == lo else (bx, by)
                elif o1 and o2 and o3 and o4:
                    # a proper crossing
                    pt = _crossing_point((ax, ay), (dx, dy), (cx, cy), (fx, fy))
                else:
                    # the lines meet at one point, the end on the other line
                    pt = (
                        (cx, cy) if not o1
                        else (ex, ey) if not o2
                        else (ax, ay) if not o3
                        else (bx, by)
                    )
            if pt is None:
                detail = "collinear overlap"
            elif pt in adj.get(a, ()) and pt in adj.get(b, ()):
                # end segments touching at their shared crossing point
                continue
            else:
                at = (Fraction(pt[0], self.scale), Fraction(pt[1], self.scale))
                detail = _meet_text(at)
            where = f"edges {e1}/{e2}"
            found.append((a, b, Violation(SELF_INTERSECTION, where, detail)))
        found.sort()  # no two share (segment, partner)
        out += [v for _, _, v in found]
        return out

    def _prepare_arcs(self):
        """The walk tables of ``resolve``, at the working scale.  Edges
        are numbered in the order of their sorted ids, and the arc of
        edge j is 2j + 1 along its stored direction and 2j against it.
        Per arc: the edge's number and bit, the arc's winding, the ranks
        of the edge's least point and least ray radius among all edges'
        (one past the last rank if it meets no ray), and the crossing
        it runs into (None for a free loop) with the arc the walk leaves
        by there for each smoothing bit.  Per crossing: the numbers of
        its four edges, in PD order."""
        int_edges = self._int_edges
        order = sorted(int_edges)
        index = {eid: j for j, eid in enumerate(order)}
        # per crossing position, the arc leaving there along its edge from
        # a tail; per arc, the (crossing, position) it runs into: an
        # edge's arc along it runs into its head (end 1), the one against
        # it into its tail
        exits, into = [], {}
        for k, combo in enumerate(self._ends):
            exits.append(tuple(2 * index[e.edge] + (e.end == 0) for e in combo))
            for q, e in enumerate(combo):
                into[2 * index[e.edge] + e.end] = (k, q)
        # each edge's winding and least ray radius, from its stations: a
        # segment from a to b meets the ray when the rule, half-open at
        # y = 0, puts its ends on two sides and cross(a, b) has the sign
        # of b_y - a_y; upward counts +1, at radius num / den, den > 0
        sums = []
        for eid in order:
            pts = int_edges[eid]
            w, least = 0, None
            ys = [y for _, y in pts]
            if min(ys) <= 0 < max(ys):
                for (ax, ay), (bx, by) in zip(pts, pts[1:]):
                    if (ay <= 0) == (by <= 0):
                        continue
                    num, den = ax * by - ay * bx, by - ay
                    if num * den <= 0:
                        continue
                    if den > 0:
                        w += 1
                    else:
                        w -= 1
                        num, den = -num, -den
                    if least is None or num * least[1] < least[0] * den:
                        least = (num, den)
            sums.append((w, least and Fraction(*least)))
        lows = [min(int_edges[eid]) for eid in order]
        radii = sorted({r for _, r in sums if r is not None})
        low_rank = {p: n for n, p in enumerate(sorted(set(lows)))}
        radius_rank = {r: n for n, r in enumerate(radii)}
        arcs = []
        for j in range(len(order)):
            w, radius = sums[j]
            low, rank = low_rank[lows[j]], radius_rank.get(radius, len(radii))
            for arc, wind in ((2 * j, -w), (2 * j + 1, w)):
                end = into.get(arc)
                if end is None:
                    arcs.append((j, 1 << j, wind, low, rank, None, None))
                    continue
                k, q = end
                # the walk leaves by the paired end
                ex = exits[k]
                leave = (ex[_PAIRING[0][q]], ex[_PAIRING[1][q]])
                arcs.append((j, 1 << j, wind, low, rank, k, leave))
        self._edge_order = order
        self._arcs, self._radii = arcs, radii
        self._incident = [tuple(index[e] for e in rec) for rec in self.crossings]

    def edge_ids(self, edges):
        """The edge ids whose bits are set in an ``edges`` mask."""
        self.ensure_valid()
        return frozenset(e for j, e in enumerate(self._edge_order) if edges >> j & 1)

    def incident_edges(self, k):
        """The numbers of crossing k's four edges, in PD order."""
        self.ensure_valid()
        return self._incident[k]

    # -- resolution ----------------------------------------------------------

    def resolve(self, u):
        """Smooth every crossing and classify the resulting circles.

        Each circle is walked from its least edge id along that edge's
        stored direction, edge by edge through the crossing points,
        adding up the edges' windings, bits and least points and ray
        radii (by their ranks), and noting each edge's circle in
        ``slot_of_edge``.  No point is traced.
        """
        u = tuple(map(int, u))
        if len(u) != len(self.crossings) or not {*u} <= {0, 1}:
            raise ValueError(f"bad smoothing {u}")
        self.ensure_valid()
        arcs = self._arcs
        far = len(arcs)  # beyond every rank
        walked = [None] * (far // 2)  # each edge's circle, in walk order
        trivial, essential = [], []
        for j, seen in enumerate(walked):
            if seen is not None:
                continue
            n = len(trivial) + len(essential)
            start = at = 2 * j + 1
            edges, w, low, radius = 0, 0, far, far
            while True:
                e, bit, run_w, run_low, run_radius, k, leave = arcs[at]
                walked[e] = n
                edges |= bit
                w += run_w
                if run_low < low:
                    low = run_low
                if run_radius < radius:
                    radius = run_radius
                if k is None:
                    break
                at = leave[u[k]]
                if at == start:
                    break
            if w == 0:
                trivial.append((low, n, edges))
            elif w in (1, -1):
                essential.append((radius, n, edges, w))
            else:
                ids = sorted(self.edge_ids(edges))
                raise EmbeddingViolationError(f"circle through {ids} winds {w} times")
        trivial.sort()
        essential.sort()
        ranks = [e[0] for e in essential]
        if ranks != sorted(set(ranks)):
            radii = [self._radii[r] for r in ranks]
            raise InvariantError(f"essential circles share a radius: {radii}")
        slot = [0] * (len(trivial) + len(essential))
        circles = []
        for _, n, edges in trivial:
            slot[n] = len(circles)
            circles.append(Circle(edges, 0, False))
        for i, (_, n, edges, w) in enumerate(essential):
            slot[n] = len(circles)
            circles.append(Circle(edges, w, True, i + 1))
        slot_of_edge = tuple(map(slot.__getitem__, walked))
        return ResolvedDiagram(u, tuple(circles), slot_of_edge, self)

    # -- signs and orientations ----------------------------------------------

    def base_crossing_sign(self, k):
        """Sign with respect to the polyline directions: the crossing is
        positive exactly when the over-strand leaves at position 2."""
        self.ensure_valid()
        return 1 if self._ends[k][1].end == 0 else -1

    def _against(self, choice):
        """The components that the orientation choice (one reversal flag
        per component, or None) runs against their edges' direction."""
        choice = choice or (False,) * len(self.components)
        return {i for i, o in enumerate(self.orientations) if o != bool(choice[i])}

    def crossing_sign(self, k, choice=None):
        self.ensure_valid()
        against = self._against(choice)
        under, over = (self._component[e.edge] in against for e in self._ends[k][:2])
        base = self.base_crossing_sign(k)
        return -base if under != over else base

    def signs(self, choice=None):
        return [self.crossing_sign(k, choice) for k in range(self.n_crossings)]

    def n_plus_minus(self, choice=None):
        ss = self.signs(choice)
        return sum(1 for s in ss if s > 0), sum(1 for s in ss if s < 0)

    def oriented_resolution(self, choice=None):
        """The smoothing compatible with the orientation and its
        resolution, each circle running along the orientation: a circle
        whose least edge the orientation runs against has its winding
        negated."""
        u = tuple(
            0 if self.crossing_sign(k, choice) > 0 else 1
            for k in range(self.n_crossings)
        )
        rd = self.resolve(u)
        against = self._against(choice)
        order = self._edge_order

        def along(c):
            if self._component[order[first_edge(c.edges)]] not in against:
                return c
            return c._replace(winding=-c.winding)

        return u, replace(rd, circles=tuple(map(along, rd.circles)))

    @cached_property
    def _label_tables(self):
        """Per edge number: twice its signed area along its stored
        direction, and the mask of the edges that cross the rightward ray
        from the midpoint p of its first segment, an int point, an odd
        number of times, under the half-open rule at p's height.  Built
        on first use; only ``canonical_labels`` reads them."""
        runs = [self._int_edges[eid] for eid in self._edge_order]
        areas = [sum(_cross(a, b) for a, b in zip(pts, pts[1:])) for pts in runs]
        odd = []
        for (ax, ay), (bx, by), *_ in runs:
            p = (ax + bx) // 2, (ay + by) // 2
            odd.append(0)
            for i, pts in enumerate(runs):
                for a, b in zip(pts, pts[1:]):
                    # a and b on two sides, and the crossing right of p
                    if (a[1] <= p[1]) != (b[1] <= p[1]):
                        if _orient(a, b, p) * (b[1] - a[1]) > 0:
                            odd[-1] ^= 1 << i
        return areas, odd

    def canonical_labels(self, rd, choice):
        """Each circle's canonical label in ``rd``, the oriented
        resolution of the orientation choice: its nesting depth, plus one
        if it runs counterclockwise, mod 2.

        Every circle runs along the orientation, so twice its signed area
        is the sum of its edges' areas, each negated where the
        orientation runs against the edge.  Circles are disjoint off the
        crossing points and do not cross there, so a ray from a circle's
        least edge crosses the other circles, which hold every other
        edge, an odd number of times exactly when its depth is odd."""
        areas, odd = self._label_tables
        against = self._against(choice)
        twice = [0] * len(rd.circles)
        for slot, a, eid in zip(rd.slot_of_edge, areas, self._edge_order):
            twice[slot] += -a if self._component[eid] in against else a
        return tuple(
            ((odd[first_edge(c.edges)] & ~c.edges).bit_count() + (t > 0)) % 2
            for c, t in zip(rd.circles, twice)
        )


def all_orientations(diagram):
    return product((False, True), repeat=diagram.n_components)


def cube_edge_pairs(diagram, u):
    """Smoothings one step above u, with the changed coordinate."""
    out = []
    for i, x in enumerate(u):
        if x == 0:
            v = list(u)
            v[i] = 1
            out.append((i, tuple(v)))
    return out


# ---------------------------------------------------------------------------
# serialization


def diagram_to_dict(d):
    return {
        "crossings": [list(c) for c in d.crossings],
        "edges": {
            eid: [[str(p[0]), str(p[1])] for p in pts]
            for eid, pts in d.edges.items()
        },
        "components": [list(c) for c in d.components],
        "orientations": [bool(b) for b in d.orientations],
    }


def diagram_from_dict(data):
    if not isinstance(data, dict):
        raise ValueError(f"a diagram is a JSON object, not {type(data).__name__}")
    return AnnularDiagram(
        crossings=data["crossings"],
        edges=data["edges"],  # AnnularDiagram parses the coordinates
        components=data["components"],
        orientations=data["orientations"],
    )


def dumps_diagram(d):
    return json.dumps(diagram_to_dict(d), indent=1, sort_keys=True)


def loads_diagram(text):
    return diagram_from_dict(json.loads(text))


def load_diagram(path):
    with open(path) as f:
        return loads_diagram(f.read())


def save_diagram(d, path):
    with open(path, "w") as f:
        f.write(dumps_diagram(d))
        f.write("\n")


def nudged(d, t=Fraction(1, 8)):
    """Rotate the whole diagram by the rational rotation with tangent
    half-angle t, so the reference ray meets it transversally."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)

    def rot(p):
        return (c * p[0] - s * p[1], s * p[0] + c * p[1])

    return AnnularDiagram(
        crossings=d.crossings,
        edges={eid: [rot(p) for p in pts] for eid, pts in d.edges.items()},
        components=d.components,
        orientations=d.orientations,
    )
