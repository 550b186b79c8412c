"""State spaces and cobordism maps.

The planar TQFT assigns the rank-2 algebra to every circle and
multiplication/comultiplication to saddles.  Over the annulus, trivial
circles keep the {1, X} basis while the i-th essential circle (counted
from the puncture outward) carries {1, X - a0} for odd i and
{1, X - a1} for even i; words in these bases carry an annular degree.
A basis word of a space is an int whose bits pick one basis vector per
slot, the first slot most significant, and ``StateSpace.bidegrees``
holds every word's (qdeg, adeg), summed from the convention table
:data:`annkh.frobenius.CONVENTIONS`.  A space is planar or annular, and
that is the one choice: the ring picks the slot bases
(:func:`make_space`) and the grading, so the annular theory over each
ring is the annular-degree-preserving part of the planar one.

Every elementary cobordism (merge, split, dot, birth, death) is a
connected genus-0 cobordism, and the algebra is its local tables:
:func:`annkh.frobenius.cobordism` reads each off the structure maps on
{1, X} coordinates (multiply the inputs, multiply by X once per dot,
comultiply into the outputs, and expand in the involved slots'
conventions), and :func:`local_table` only truncates it, memoizes it
and hands it on to be placed on the caller's spaces with the identity
on the other slots.  The spaces decide the
truncation: a builder returns the planar map between planar spaces and
its annular-degree-0 part between annular ones.  The table is
truncated before it is placed: an uninvolved slot keeps its bit and its
essential flag, so it adds the same annular degree to both sides, and
a term's shift is fixed by the involved slots' conventions alone.  A
table depends only on the ring, the theory, the involved slots'
conventions and the dots, so :func:`local_table`, the one memo of
every elementary cobordism, builds it once per process.

A placement is a tensor product of tables, each on its own involved
slots, with the identity on the uninvolved pairs: a cube edge places
one table, and a spun tangle (:func:`annkh.tl.spin_tangle`) one per
strand.  A placed map depends only on its shape: the table's key, the
slot counts of the two spaces and which slots are involved and which
pairs are not.  A cube of T(2,7) has 128 vertices of 8 slot tuples and
448 edges of 27 shapes, so ``complexes.build_complex`` keeps memos for
that call: vertices of equal slots share one space, edges of equal
spaces and slots one map, and edges of one shape one entry dict.  A
single map is placed from an empty memo, by the same code.  An edge is
classified by :func:`_saddle`, the one classifier, from the two
resolutions' ``slot_of_edge`` tables at the crossing's four edges;
:func:`classify_saddle` checks its arguments and calls it.

A :class:`LinearMap` is its two spaces and its entry dict, and nothing
else: :func:`compose` hands the two dicts to ``ring.matmul``, and the
bidegree an entry shifts by is read off the two spaces' ``bidegrees``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

from . import frobenius as fb
from .errors import (
    InvariantError,
    NotACubeEdgeError,
    ShapeMismatchError,
    VariantRingMismatchError,
)
from .frobenius import basis_bidegree
from .ring import AlphaEval

MERGE_TT = "MERGE_TT"
SPLIT_T = "SPLIT_T"
TYPE_I = "TYPE_I"
TYPE_II = "TYPE_II"
TYPE_III = "TYPE_III"
TYPE_IV = "TYPE_IV"


class Slot(NamedTuple):
    essential: bool
    convention: str
    essential_index: object  # int for essential slots, None otherwise


def _slot(ring, planar, essential, essential_index):
    """A slot in the basis its ring and theory pick: annular slots over
    evaluated parameters take the localized bases D_V/D_V'/E, every
    other slot V/V' (odd/even essential) or ONE_X (trivial)."""
    if not planar and isinstance(ring, AlphaEval):
        if essential:
            conv = fb.D_V if essential_index % 2 == 1 else fb.D_V_PRIME
        else:
            conv = fb.E
    elif essential:
        conv = fb.V if essential_index % 2 == 1 else fb.V_PRIME
    else:
        conv = fb.ONE_X
    return Slot(essential, conv, essential_index)


@dataclass(frozen=True)
class StateSpace:
    """Tensor product of one rank-2 module per circle.

    A basis word is an int below ``rank``: bit ``k - 1 - j`` of it picks
    the basis vector of slot j (0 = the first vector of the slot's
    convention), so the first slot is the most significant bit and
    words in index order run lexicographically.
    """

    ring: object
    planar: bool
    slots: tuple

    @property
    def rank(self):
        return 1 << len(self.slots)

    @cached_property
    def bidegrees(self):
        """(qdeg, adeg) of every basis word, indexed by the word;
        computed once per space."""
        out = [(0, 0)]
        for slot in self.slots:
            steps = [basis_bidegree(slot.convention, b) for b in (0, 1)]
            out = [(q + dq, a + da) for q, a in out for dq, da in steps]
        return tuple(out)


def state_space(rd, ring, planar=False, memo=None):
    """State space of a resolved diagram: slots parallel rd.circles.
    Calls over one ring and theory with one ``memo`` share equal spaces."""
    flags = tuple((c.essential, c.essential_index) for c in rd.circles)
    memo = {} if memo is None else memo
    if flags not in memo:
        memo[flags] = make_space(ring, flags, planar)
    return memo[flags]


def make_space(ring, flags, planar=False):
    """Explicit state space from (essential, essential_index) pairs.

    Equal evaluated parameters leave the annular theory no idempotent
    basis, so annular spaces over them raise."""
    if not planar and isinstance(ring, AlphaEval) and not ring.distinct:
        raise VariantRingMismatchError(
            f"annular spaces over {ring} need distinct parameters"
        )
    slots = tuple(_slot(ring, planar, ess, idx) for ess, idx in flags)
    return StateSpace(ring, planar, slots)


@lru_cache(maxsize=None)
def essential_space(n, ring):
    """n concentric essential circles, innermost first, annular; one
    space per (n, ring), so spins between the same spaces share them."""
    return make_space(ring, [(True, i + 1) for i in range(n)])


# ---------------------------------------------------------------------------
# linear maps between state spaces


@dataclass
class LinearMap:
    """A map between state spaces as its entry dict ``(row, col) ->
    value``, no value zero: rows are indexed by codomain words and
    columns by domain words.  Its grading is read off the two spaces'
    ``bidegrees``, one (qdeg, adeg) shift per entry."""

    domain: StateSpace
    codomain: StateSpace
    entries: dict


def identity_map(space):
    one = space.ring.one()
    return LinearMap(space, space, {(w, w): one for w in range(space.rank)})


def compose(f, g):
    """f after g (matrix product f.g)."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: inner spaces disagree")
    return LinearMap(g.domain, f.codomain, f.domain.ring.matmul(f.entries, g.entries))


# ---------------------------------------------------------------------------
# saddle classification


@dataclass(frozen=True)
class SaddleDescriptor:
    """A cube edge: which circles merge or split, and how the untouched
    circles correspond across the saddle."""

    kind: str
    dom_involved: tuple  # slot indices, ordered (essential first, inner first)
    cod_involved: tuple
    uninvolved: tuple  # (domain slot, codomain slot) pairs


# (involved domain circles, essential among them, essential among the
# involved codomain circles) -> kind
_SADDLE_KINDS = {
    (2, 0, 0): MERGE_TT,
    (2, 1, 1): TYPE_I,
    (2, 2, 0): TYPE_II,
    (1, 0, 0): SPLIT_T,
    (1, 1, 1): TYPE_III,
    (1, 0, 2): TYPE_IV,
}


def classify_saddle(d, rd_from, rd_to, crossing):
    """Identify the elementary saddle between two resolutions of d that
    differ exactly at the given crossing."""
    if rd_from.diagram is not d or rd_to.diagram is not d:
        raise NotACubeEdgeError("a resolution of another diagram")
    uf, ut = rd_from.smoothing, rd_to.smoothing
    diff = [i for i, (a, b) in enumerate(zip(uf, ut)) if a != b]
    if diff != [crossing] or uf[crossing] != 0:
        raise NotACubeEdgeError(f"{uf} -> {ut} not an edge at {crossing}")
    incident = d.incident_edges(crossing)
    return SaddleDescriptor(*_saddle(rd_from, rd_to, crossing, incident))


def _saddle(rd_from, rd_to, crossing, incident):
    """The descriptor's fields, (kind, dom_involved, cod_involved,
    uninvolved), of the saddle at the crossing whose four edges have the
    numbers ``incident``, between two resolutions known to differ only
    there: the involved circles are the slots of those edges in each
    ``slot_of_edge`` table, and each untouched circle is matched through
    its least edge and must run along the same edges on both sides."""
    of_from, of_to = rd_from.slot_of_edge, rd_to.slot_of_edge
    a, b, c, e = incident
    dom_inv = sorted({of_from[a], of_from[b], of_from[c], of_from[e]})
    cod_inv = sorted({of_to[a], of_to[b], of_to[c], of_to[e]})
    if not ((len(dom_inv), len(cod_inv)) in ((2, 1), (1, 2))):
        raise NotACubeEdgeError(
            f"saddle at {crossing} involves {len(dom_inv)} -> {len(cod_inv)} circles"
        )
    circles_from, circles_to = rd_from.circles, rd_to.circles
    pairs = []
    for i, circle in enumerate(circles_from):
        if i in dom_inv:
            continue
        edges = circle.edges
        j = of_to[(edges & -edges).bit_length() - 1]  # through its least edge
        if circles_to[j].edges != edges:
            raise NotACubeEdgeError("untouched circles do not match")
        pairs.append((i, j))

    # circles are in slot order, so essential ones come innermost first
    dess = [i for i in dom_inv if circles_from[i].essential]
    cess = [i for i in cod_inv if circles_to[i].essential]
    kind = _SADDLE_KINDS.get((len(dom_inv), len(dess), len(cess)))
    if kind is None:
        shape = "merge" if len(dom_inv) == 2 else "split"
        raise NotACubeEdgeError(f"impossible {shape} pattern")
    dom = tuple(dess + [i for i in dom_inv if i not in dess])
    cod = tuple(cess + [i for i in cod_inv if i not in cess])
    return kind, dom, cod, tuple(pairs)


# ---------------------------------------------------------------------------
# map construction


def _adeg(convs, bits):
    """Annular degree of a word of involved slots."""
    return sum(basis_bidegree(c, b)[1] for c, b in zip(convs, bits))


def _freeze(local, dom_convs, cod_convs, planar):
    """A local map as a table: one tuple of (output bits, value) terms
    per word of the involved input slots, in word order.  An annular
    table keeps only the terms that preserve annular degree.  A term
    shifting it by anything but 0 or +2 raises ``InvariantError``.
    Tables are shared between maps, so nothing in them is mutable."""
    rows, bad = [], set()
    for bits in product((0, 1), repeat=len(dom_convs)):
        row, a = [], _adeg(dom_convs, bits)
        for out, v in local.get(bits, ()):
            shift = _adeg(cod_convs, out) - a
            if shift not in (0, 2):
                bad.add(shift)
            elif planar or shift == 0:
                row.append((out, v))
        rows.append(tuple(row))
    if bad:
        raise InvariantError(f"saddle map shifts adeg by {sorted(bad)}")
    return tuple(rows)


@lru_cache(maxsize=None)
def local_table(ring, dom_convs, cod_convs, planar, dots=0):
    """The frozen local table of an elementary cobordism whose involved
    slots carry the given conventions, in the planar or the annular
    theory: a merge when ``dom_convs`` names two slots and
    ``cod_convs`` one, a split for one and two, a birth for none and
    one, a death for one and none, and for one and one the identity
    with ``dots`` dots.

    Memoized per process, keyed by the ring, both convention tuples, the
    theory and the dots: a cube has hundreds of edges but only a few
    such keys.  ``local_table.cache_clear()`` empties the memo.
    """
    local = fb.cobordism(ring, dom_convs, cod_convs, dots)
    return _freeze(local, dom_convs, cod_convs, planar)


def _placement(ring, factors, k_dom, k_cod, pairs):
    """The entries of the tensor product of local tables placed on a
    ``k_dom``-slot domain and ``k_cod``-slot codomain, identity on the
    uninvolved ``pairs``.  Each factor is ``(table, dom_inv, cod_inv)``,
    a table with the slots it acts on.

    The factors multiply out into one table, keyed by their involved
    domain bits in turn, the first factor's most significant; a single
    factor is placed as it is.  Each (row, col) arises once: a column is
    one domain word, and its rows differ in the involved codomain bits,
    which are distinct outputs of one table row.  So entries are placed,
    never summed.
    """
    # The factors' tensor product as (key, mask, value) terms, each
    # output a mask on the involved codomain bits, then grouped by key.
    terms, dom_inv = [(0, 0, ring.one())], ()
    for i, (table, f_dom, f_cod) in enumerate(factors):
        shifts = [k_cod - 1 - s for s in f_cod]
        flat = [
            (key, sum(bit << sh for bit, sh in zip(out, shifts)), v)
            for key, row in enumerate(table)
            for out, v in row
        ]
        w = len(f_dom)
        terms = flat if i == 0 else [
            (k1 << w | k2, m1 | m2, ring.mul(v1, v2))
            for k1, m1, v1 in terms
            for k2, m2, v2 in flat
        ]
        dom_inv += f_dom
    placed = [[] for _ in range(1 << len(dom_inv))]
    for key, mask, v in terms:
        placed[key].append((mask, v))
    # What a set bit of each domain slot adds to the column's table key
    # and to its rows' uninvolved codomain bits.
    step = [(0, 0)] * k_dom
    for pos, s in enumerate(dom_inv):
        step[s] = (1 << (len(dom_inv) - 1 - pos), 0)
    for ds, cs in pairs:
        step[ds] = (0, 1 << (k_cod - 1 - cs))
    # The key and row base of every column, first slot most significant.
    keys, bases = [0], [0]
    for dk, db in step:
        keys = [k | x for k in keys for x in (0, dk)]
        bases = [b | x for b in bases for x in (0, db)]
    entries = {}
    for col, (key, base) in enumerate(zip(keys, bases)):
        for mask, v in placed[key]:
            entries[(base | mask, col)] = v
    return entries


def _embed(dom_space, cod_space, dom_inv, cod_inv, pairs, dots=0, memo=None):
    """The memoized local table of the involved slots' conventions,
    placed on them, identity on the others.

    An uninvolved pair must agree in essentiality, or the table's
    truncation would not be the placed map's; the arguments decide that,
    so it is checked on every memo miss.  ``memo`` maps arguments to
    maps, the spaces by identity (the map keeps them alive), and
    placement shapes to placed entries, so maps built with one memo
    share one entry dict per shape, which nothing mutates.
    """
    pairs = tuple(pairs)
    memo = {} if memo is None else memo
    args = (id(dom_space), id(cod_space), dom_inv, cod_inv, pairs, dots)
    m = memo.get(args)
    if m is not None:
        return m
    for ds, cs in pairs:
        if dom_space.slots[ds].essential != cod_space.slots[cs].essential:
            raise InvariantError(f"uninvolved slots {ds} -> {cs} differ in kind")
    key = (
        dom_space.ring,
        tuple(dom_space.slots[s].convention for s in dom_inv),
        tuple(cod_space.slots[s].convention for s in cod_inv),
        dom_space.planar,
        dots,
    )
    k_dom, k_cod = len(dom_space.slots), len(cod_space.slots)
    shape = (key, k_dom, k_cod, dom_inv, cod_inv, pairs)
    entries = memo.get(shape)
    if entries is None:
        factors = [(local_table(*key), dom_inv, cod_inv)]
        entries = _placement(dom_space.ring, factors, k_dom, k_cod, pairs)
        memo[shape] = entries
    m = memo[args] = LinearMap(dom_space, cod_space, entries)
    return m


def merge_map(dom_space, cod_space, dom_pair, cod_slot, uninvolved):
    """Multiplication of two slots into one, between explicit spaces."""
    return _embed(dom_space, cod_space, tuple(dom_pair), (cod_slot,), uninvolved)


def split_map(dom_space, cod_space, dom_slot, cod_pair, uninvolved):
    """Comultiplication of one slot into two, between explicit spaces."""
    return _embed(dom_space, cod_space, (dom_slot,), tuple(cod_pair), uninvolved)


def annular_saddle_map(sd, dom_space, cod_space, memo=None):
    """The map of a classified saddle between the state spaces of its
    two resolutions, in their theory: the planar map between planar
    spaces, its adeg-preserving part between annular ones.  Maps built
    with one ``memo`` share the placement of each shape (see
    :func:`_embed`)."""
    return _embed(
        dom_space, cod_space, sd.dom_involved, sd.cod_involved, sd.uninvolved,
        memo=memo,
    )


def dotted_identity_map(space, slot, dots):
    """Multiplication by the dotted identity cobordism on one circle."""
    if dots < 1:
        raise ValueError("dots must be positive")
    pairs = tuple((j, j) for j in range(len(space.slots)) if j != slot)
    return _embed(space, space, (slot,), (slot,), pairs, dots)


def birth_map(space, position):
    """Insert a trivial circle at the given slot position (the unit)."""
    new = _slot(space.ring, space.planar, False, None)
    slots = space.slots
    new_slots = slots[:position] + (new,) + slots[position:]
    cod = StateSpace(space.ring, space.planar, new_slots)
    pairs = tuple((j, j + (j >= position)) for j in range(len(slots)))
    return _embed(space, cod, (), (position,), pairs)


def death_map(space, slot):
    """Cap off a trivial circle (the counit on that slot)."""
    if space.slots[slot].essential:
        raise ValueError("death caps a trivial circle")
    new_slots = space.slots[:slot] + space.slots[slot + 1 :]
    cod = StateSpace(space.ring, space.planar, new_slots)
    pairs = tuple((j, j - (j > slot)) for j in range(len(space.slots)) if j != slot)
    return _embed(space, cod, (slot,), (), pairs)
