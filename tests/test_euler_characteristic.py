"""The Euler characteristic of the homology table against the trace of
the braid, an oracle that never touches the plane geometry.

By the decategorification of annular Khovanov homology, the graded
Euler characteristic of a braid closure is the weighted trace of the
braid on V^{(x) n}, where V has basis v+, v- of weights +1, -1.  A
positive letter j acts as I - q E_j and a negative one as E_j - q I,
with E_j = cup o cap on strands j, j+1: cap(v+ v-) = q,
cap(v- v+) = 1 and cup(1) = v+ v- + q^-1 v- v+.  A basis word w of
weight wt contributes q^wt a^wt <w|P|w>, and the sum is normalized by
(-1)^{n-} q^{n+ - 2 n-}.  This code's bigrading is the mirror
(q, a) -> (q^-1, a^-1) of that formula.

The trace costs O(letters * 4^strands) and reads only the word, so it
checks winding, the essential/trivial split, the slot conventions, the
grading shifts and the rank bookkeeping of the whole pipeline at once.
"""

import random
from collections import Counter
from itertools import product

import pytest

from annkh import complexes, homology
from annkh.corpus import braid_closure
from annkh.ring import GF, INT, alpha_eval

# q-exponent of cap on a strand pair; cup(1) as (pair, q-exponent) terms
CAP = {(1, -1): 1, (-1, 1): 0}
CUP = (((1, -1), 0), ((-1, 1), -1))


def braid_trace(word, strands):
    """{(q, a): coefficient} of the normalized trace, in this code's
    bigrading; zero coefficients are dropped."""
    n_minus = sum(x < 0 for x in word)
    shift = len(word) - n_minus - 2 * n_minus
    sign = -1 if n_minus % 2 else 1
    out = Counter()
    for w in product((1, -1), repeat=strands):
        vec = Counter({(w, 0): 1})  # (basis word, q-exponent) -> coefficient
        for x in word:
            j = abs(x) - 1
            # (coefficient, q-exponent) of I and of E_j in the letter
            ident, cupcap = ((1, 0), (-1, 1)) if x > 0 else ((-1, 1), (1, 0))
            nxt = Counter()
            for (v, e), c in vec.items():
                nxt[(v, e + ident[1])] += ident[0] * c
                cap = CAP.get(v[j : j + 2])
                if cap is None:
                    continue
                for pair, cup in CUP:
                    key = (v[:j] + pair + v[j + 2 :], e + cupcap[1] + cap + cup)
                    nxt[key] += cupcap[0] * c
            vec = nxt
        wt = sum(w)
        for (v, e), c in vec.items():
            if v == w:
                out[(-(e + wt + shift), -wt)] += sign * c
    return Counter({k: v for k, v in out.items() if v})


def table_chi(word, strands, ring):
    """{(q, a): sum of (-1)^i rank} of the homology table; q is None
    over rings that do not preserve it."""
    h = homology.homology(complexes.build_complex(braid_closure(word, strands), ring))
    out = Counter()
    for (i, q, a), (rank, _) in h.entries.items():
        out[(q, a)] += -rank if i % 2 else rank
    return Counter({k: v for k, v in out.items() if v})


def per_a(chi):
    out = Counter()
    for (_, a), v in chi.items():
        out[a] += v
    return Counter({k: v for k, v in out.items() if v})


def seeded_words(count=30, seed=7):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        k = rng.randint(1, 8)
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(k))
        out.append((word, n))
    return out


CASES = [((1,) * k, 2) for k in range(1, 9)] + seeded_words()
IDS = [f"{n}:{','.join(map(str, w))}" for w, n in CASES]


def test_the_trace_of_the_trefoil():
    # the right trefoil's table: a = -2 and a = 2 at i = 0, the rest at a = 0
    assert braid_trace((1, 1, 1), 2) == {
        (-5, -2): 1, (-1, 2): 1, (-3, 0): 1, (-9, 0): -1,
    }


def test_the_seeded_words_reach_every_strand_count_and_sign():
    words = seeded_words()
    assert {n for _, n in words} == {2, 3, 4}
    assert any(x < 0 for w, _ in words for x in w)
    assert max(len(w) for w, _ in words) == 8


@pytest.mark.parametrize("word, strands", CASES, ids=IDS)
def test_chi_of_the_table_is_the_braid_trace(word, strands):
    want = braid_trace(word, strands)
    for ring in (INT, GF(2)):
        assert table_chi(word, strands, ring) == want, ring
    got = table_chi(word, strands, alpha_eval(1, 3))
    assert {q for q, _ in got} <= {None}
    assert per_a(got) == per_a(want)
