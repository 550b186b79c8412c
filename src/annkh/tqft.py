"""State spaces and cobordism maps.

The planar TQFT assigns the rank-2 algebra to every circle and
multiplication/comultiplication to saddles.  Over the annulus, trivial
circles keep the {1, X} basis while the i-th essential circle (counted
from the puncture outward) carries {1, X - a0} for odd i and
{1, X - a1} for even i; words in these bases carry an annular degree.
Cobordism maps are computed from the Frobenius structure in the slot
bases.  A space is planar or annular, and that is the one choice: the
ring picks the slot bases (:func:`make_space`) and the grading, so the
annular theory over each ring is the annular-degree-preserving part of
the planar one.  :func:`annular_parts` splits a planar map into that
part and the part raising annular degree by 2.

Every elementary cobordism (merge, split, dot, birth, death) is a local
table on its involved slots, placed on the caller's spaces with the
identity on the other slots.  The spaces decide the truncation: a
builder returns the planar map between planar spaces and its
annular-degree-0 part between annular ones.  A saddle's table depends
only on the ring and the involved slots' conventions, so
:func:`local_table` builds it once per process.

A :class:`LinearMap` is a ``linalg.SparseMatrix`` between state spaces;
its sums and products are the matrix ones.
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
from .frobenius import Frobenius, basis_bidegree
from .linalg import SparseMatrix, accumulate
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

    Basis words are tuples of bits, one per slot (0 = first basis vector
    of the slot convention), enumerated lexicographically.
    """

    ring: object
    planar: bool
    slots: tuple

    @property
    def rank(self):
        return 1 << len(self.slots)

    def words(self):
        return product((0, 1), repeat=len(self.slots))

    def word_index(self, word):
        idx = 0
        for b in word:
            idx = (idx << 1) | b
        return idx

    def index_word(self, idx):
        k = len(self.slots)
        return tuple((idx >> (k - 1 - j)) & 1 for j in range(k))

    def word_bidegree(self, word):
        q = a = 0
        for slot, bit in zip(self.slots, word):
            dq, da = basis_bidegree(slot.convention, bit, slot.essential)
            q += dq
            a += da
        return q, a

    @cached_property
    def adegs(self):
        """Annular degree of every basis word, indexed like the words;
        computed once per space."""
        out = [0]
        for slot in self.slots:
            steps = [
                basis_bidegree(slot.convention, b, slot.essential)[1] for b in (0, 1)
            ]
            out = [a + step for a in out for step in steps]
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, StateSpace):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.planar == other.planar
            and self.slots == other.slots
        )

    def __hash__(self):
        return hash((self.planar, self.slots))


def state_space(rd, ring, planar=False):
    """State space of a resolved diagram: slots parallel rd.circles."""
    return make_space(
        ring, [(c.essential, c.essential_index) for c in rd.circles], planar
    )


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


def essential_space(n, ring):
    """n concentric essential circles, innermost first, annular."""
    return make_space(ring, [(True, i + 1) for i in range(n)])


# ---------------------------------------------------------------------------
# linear maps between state spaces


@dataclass
class LinearMap:
    """A :class:`~annkh.linalg.SparseMatrix` between state spaces: rows
    are indexed by codomain words and columns by domain words."""

    domain: StateSpace
    codomain: StateSpace
    matrix: SparseMatrix
    declared_bidegree: tuple = (None, None)

    @classmethod
    def wrap(cls, domain, codomain, entries, declared_bidegree=(None, None)):
        """A map holding ``entries`` as given (see ``SparseMatrix.wrap``)."""
        m = SparseMatrix.wrap(domain.ring, codomain.rank, domain.rank, entries)
        return cls(domain, codomain, m, declared_bidegree)

    @property
    def entries(self):
        return self.matrix.entries

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.entries == other.entries
        )

    def add(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ShapeMismatchError("sum of maps with different spaces")
        m = self.matrix + other.matrix
        return LinearMap(self.domain, self.codomain, m, self.declared_bidegree)

    def scale(self, s):
        m = self.matrix.scale(s)
        return LinearMap(self.domain, self.codomain, m, self.declared_bidegree)

    def adeg_split(self):
        """Split entries by annular-degree shift; returns {shift: map}."""
        cod, dom = self.codomain.adegs, self.domain.adegs
        parts = {}
        for (row, col), v in self.entries.items():
            parts.setdefault(cod[row] - dom[col], {})[(row, col)] = v
        q = self.declared_bidegree[0]
        return {
            da: LinearMap.wrap(self.domain, self.codomain, ent, (q, da))
            for da, ent in parts.items()
        }

    def qdeg_shift_of_entry(self, row, col):
        """q(target) + q(entry) - q(source); None if entry inhomogeneous."""
        v = self.entries[(row, col)]
        sq = self.domain.ring.scalar_qdeg(v)
        if sq is None:
            return None
        qt, _ = self.codomain.word_bidegree(self.codomain.index_word(row))
        qs, _ = self.domain.word_bidegree(self.domain.index_word(col))
        return qt + sq - qs

    def check_bidegree(self, expect_q, expect_a):
        """Verify every entry realizes the given bidegree (q check is
        skipped over rings that do not preserve the quantum grading)."""
        graded = self.domain.ring.preserves_qdeg
        cod, dom = self.codomain.adegs, self.domain.adegs
        for (row, col) in self.entries:
            if expect_a is not None and cod[row] - dom[col] != expect_a:
                return False
            if expect_q is not None and graded:
                if self.qdeg_shift_of_entry(row, col) != expect_q:
                    return False
        return True


def identity_map(space):
    m = SparseMatrix.identity(space.ring, space.rank)
    return LinearMap(space, space, m, (0, 0))


def compose(f, g):
    """f after g (matrix product f.g)."""
    if g.codomain != f.domain:
        raise ShapeMismatchError("compose: inner spaces disagree")
    dq1, da1 = f.declared_bidegree
    dq2, da2 = g.declared_bidegree
    dq = dq1 + dq2 if (dq1 is not None and dq2 is not None) else None
    da = da1 + da2 if (da1 is not None and da2 is not None) else None
    return LinearMap(g.domain, f.codomain, f.matrix @ g.matrix, (dq, da))


# ---------------------------------------------------------------------------
# saddle classification


@dataclass(frozen=True)
class SaddleDescriptor:
    """A cube edge: which circles merge or split, and how the untouched
    circles correspond across the saddle."""

    kind: str
    crossing: int
    rd_from: object
    rd_to: object
    dom_involved: tuple  # slot indices, ordered (essential first, inner first)
    cod_involved: tuple
    uninvolved: tuple  # (domain slot, codomain slot) pairs


def classify_saddle(d, rd_from, rd_to, crossing):
    """Identify the elementary saddle between two resolutions that differ
    exactly at the given crossing."""
    uf, ut = rd_from.smoothing, rd_to.smoothing
    diff = [i for i, (a, b) in enumerate(zip(uf, ut)) if a != b]
    if diff != [crossing] or uf[crossing] != 0:
        raise NotACubeEdgeError(f"{uf} -> {ut} not an edge at {crossing}")
    incident = set(d.crossings[crossing])
    dom_inv = [
        i for i, c in enumerate(rd_from.circles) if c.edge_ids & incident
    ]
    cod_inv = [
        i for i, c in enumerate(rd_to.circles) if c.edge_ids & incident
    ]
    if not ((len(dom_inv), len(cod_inv)) in ((2, 1), (1, 2))):
        raise NotACubeEdgeError(
            f"saddle at {crossing} involves {len(dom_inv)} -> {len(cod_inv)} circles"
        )
    by_key = {c.edge_ids: j for j, c in enumerate(rd_to.circles)}
    pairs = []
    for i, c in enumerate(rd_from.circles):
        if i in dom_inv:
            continue
        j = by_key.get(c.edge_ids)
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
            kind = MERGE_TT
        elif len(dess) == 1 and len(cess) == 1:
            kind = TYPE_I
        elif len(dess) == 2 and len(cess) == 0:
            kind = TYPE_II
        else:
            raise NotACubeEdgeError("impossible merge pattern")
        dom = tuple(dess + dtriv)
        cod = tuple(cess + ctriv)
    else:
        if len(dess) == 0 and len(cess) == 0:
            kind = SPLIT_T
        elif len(dess) == 1 and len(cess) == 1:
            kind = TYPE_III
        elif len(dess) == 0 and len(cess) == 2:
            kind = TYPE_IV
        else:
            raise NotACubeEdgeError("impossible split pattern")
        dom = tuple(dess + dtriv)
        cod = tuple(cess + ctriv)
    return SaddleDescriptor(
        kind, crossing, rd_from, rd_to, dom, cod, tuple(pairs)
    )


# ---------------------------------------------------------------------------
# map construction


def _basis_elt(fr, conv, bit):
    r = fr.ring
    if bit == 0:
        return fr.element(conv, r.one(), r.zero())
    return fr.element(conv, r.zero(), r.one())


def _terms(r, coords):
    """One slot's coordinates as (output bits, value) terms, zeros dropped."""
    return [((bit,), c) for bit, c in enumerate(coords) if not r.is_zero(c)]


def _local_merge(fr, conv_a, conv_b, conv_out):
    local = {}
    for ba, bb in product((0, 1), repeat=2):
        prod = fr.mult(_basis_elt(fr, conv_a, ba), _basis_elt(fr, conv_b, bb))
        local[(ba, bb)] = _terms(fr.ring, fr.convert(prod, conv_out).coords)
    return local


def _local_split(fr, conv_in, conv_out1, conv_out2):
    r = fr.ring
    one, zero = r.one(), r.zero()
    local = {}
    for b in (0, 1):
        tens = fr.comult_tensor(_basis_elt(fr, conv_in, b))
        terms = []
        for (i, j), v in tens.items():
            f1 = fr.from_one_x(
                conv_out1, one if i == 0 else zero, one if i == 1 else zero
            )
            f2 = fr.from_one_x(
                conv_out2, one if j == 0 else zero, one if j == 1 else zero
            )
            for o1, c1 in enumerate(f1.coords):
                if r.is_zero(c1):
                    continue
                for o2, c2 in enumerate(f2.coords):
                    if r.is_zero(c2):
                        continue
                    terms.append(((o1, o2), r.mul(v, r.mul(c1, c2))))
        local[(b,)] = sorted(accumulate(r, {}, terms).items())
    return local


def _local_power_of_x(fr, conv, dots):
    local = {}
    for b in (0, 1):
        elt = _basis_elt(fr, conv, b)
        for _ in range(dots):
            elt = fr.x_action(elt)
        local[(b,)] = _terms(fr.ring, elt.coords)
    return local


def _freeze(local, n_in):
    """A local map as a table: one tuple of (output bits, value) terms
    per word of the ``n_in`` involved input slots, in word order.
    Tables are shared between maps, so nothing in them is mutable."""
    return tuple(
        tuple(local.get(bits, ())) for bits in product((0, 1), repeat=n_in)
    )


@lru_cache(maxsize=None)
def local_table(ring, dom_convs, cod_convs):
    """The frozen local table of a saddle whose involved slots carry the
    given conventions: a merge when ``dom_convs`` names two slots, a
    split when it names one.

    Memoized per process, keyed by the ring and both convention tuples:
    a cube has hundreds of edges but only a few such keys.
    ``local_table.cache_clear()`` empties the memo.
    """
    fr = Frobenius(ring)
    if len(dom_convs) == 2:
        return _freeze(_local_merge(fr, *dom_convs, *cod_convs), 2)
    return _freeze(_local_split(fr, *dom_convs, *cod_convs), 1)


def _embed(dom_space, cod_space, dom_inv, cod_inv, pairs, table, bidegree):
    """Place a local table on the involved slots, identity on the others.

    Each (row, col) arises once: a column is one domain word, and its
    rows differ in the involved codomain bits, which are distinct
    outputs of one table row.  So entries are placed, never summed.
    """
    entries = {}
    k_cod = len(cod_space.slots)
    for col, word in enumerate(dom_space.words()):
        key = 0
        for s in dom_inv:
            key = (key << 1) | word[s]
        for loc_out, v in table[key]:
            bits = [0] * k_cod
            for pos, s in enumerate(cod_inv):
                bits[s] = loc_out[pos]
            for ds, cs in pairs:
                bits[cs] = word[ds]
            entries[(cod_space.word_index(tuple(bits)), col)] = v
    return LinearMap.wrap(dom_space, cod_space, entries, bidegree)


def _saddle(dom_space, cod_space, dom_inv, cod_inv, pairs):
    """The planar merge (two involved domain slots) or split (one)
    between explicit spaces, from the memoized local table."""
    table = local_table(
        dom_space.ring,
        tuple(dom_space.slots[s].convention for s in dom_inv),
        tuple(cod_space.slots[s].convention for s in cod_inv),
    )
    return _embed(dom_space, cod_space, dom_inv, cod_inv, pairs, table, (1, None))


def merge_map(dom_space, cod_space, dom_pair, cod_slot, uninvolved):
    """Multiplication of two slots into one, between explicit spaces."""
    full = _saddle(dom_space, cod_space, tuple(dom_pair), (cod_slot,), uninvolved)
    return _in_theory(full)


def split_map(dom_space, cod_space, dom_slot, cod_pair, uninvolved):
    """Comultiplication of one slot into two, between explicit spaces."""
    full = _saddle(dom_space, cod_space, (dom_slot,), tuple(cod_pair), uninvolved)
    return _in_theory(full)


def truncate_adeg(m, keep=0):
    """The part of a map shifting annular degree by exactly ``keep``."""
    cod, dom = m.codomain.adegs, m.domain.adegs
    kept = {
        (row, col): v
        for (row, col), v in m.entries.items()
        if cod[row] - dom[col] == keep
    }
    bidegree = (m.declared_bidegree[0], keep)
    return LinearMap.wrap(m.domain, m.codomain, kept, bidegree)


def annular_parts(full):
    """The annular-degree 0 and +2 parts of a planar map.

    By the splitting lemma no other shift occurs; one that does raises
    ``InvariantError``.
    """
    parts = full.adeg_split()
    bad = sorted(set(parts) - {0, 2})
    if bad:
        raise InvariantError(f"saddle map shifts adeg by {bad}")
    q = full.declared_bidegree[0]
    for da in (0, 2):
        parts.setdefault(da, LinearMap.wrap(full.domain, full.codomain, {}, (q, da)))
    return parts[0], parts[2]


def _in_theory(full):
    """A planar map as a map of its spaces' theory: itself between
    planar spaces, its annular-degree-0 part between annular ones."""
    if full.domain.planar:
        return full
    return annular_parts(full)[0]


def annular_saddle_map(sd, dom_space, cod_space):
    """The map of a classified saddle between the state spaces of its
    two resolutions, in their theory: the planar map between planar
    spaces, its adeg-preserving part between annular ones."""
    full = _saddle(
        dom_space, cod_space, sd.dom_involved, sd.cod_involved, sd.uninvolved
    )
    return _in_theory(full)


def dotted_identity_map(space, slot, dots):
    """Multiplication by the dotted identity cobordism on one circle."""
    if dots < 1:
        raise ValueError("dots must be positive")
    fr = Frobenius(space.ring)
    table = _freeze(_local_power_of_x(fr, space.slots[slot].convention, dots), 1)
    pairs = tuple((j, j) for j in range(len(space.slots)) if j != slot)
    bidegree = (2 * dots, None)
    return _in_theory(_embed(space, space, (slot,), (slot,), pairs, table, bidegree))


def birth_map(space, position):
    """Insert a trivial circle at the given slot position (the unit)."""
    new = _slot(space.ring, space.planar, False, None)
    slots = space.slots
    new_slots = slots[:position] + (new,) + slots[position:]
    cod = StateSpace(space.ring, space.planar, new_slots)
    fr = Frobenius(space.ring)
    table = (tuple(_terms(space.ring, fr.convert(fr.unit(), new.convention).coords)),)
    pairs = tuple((j, j + (j >= position)) for j in range(len(slots)))
    return _embed(space, cod, (), (position,), pairs, table, (-1, 0))


def death_map(space, slot):
    """Cap off a trivial circle (the counit on that slot)."""
    if space.slots[slot].essential:
        raise ValueError("death caps a trivial circle")
    new_slots = space.slots[:slot] + space.slots[slot + 1 :]
    cod = StateSpace(space.ring, space.planar, new_slots)
    fr = Frobenius(space.ring)
    conv = space.slots[slot].convention
    eps = (fr.counit(_basis_elt(fr, conv, b)) for b in (0, 1))
    table = tuple(() if space.ring.is_zero(c) else (((), c),) for c in eps)
    pairs = tuple((j, j - (j > slot)) for j in range(len(space.slots)) if j != slot)
    return _embed(space, cod, (slot,), (), pairs, table, (-1, 0))
