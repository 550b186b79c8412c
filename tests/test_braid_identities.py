"""Identities of the annular homology of closed braids, checked on
seeded braid words with 2 to 4 strands and at most 6 letters.

* Mirror duality: over a field, rank H^{i,q,a}(L) equals
  rank H^{-i,-q,-a}(m(L)), where m negates every letter of the word.
* Extremal annular degree: for a closed n-braid of writhe w, H at
  a = n is one free summand at (0, n - w), and H at a = -n is one at
  (0, -n - w) (Grigsby-Ni prove the rank-one statement for sutured
  Khovanov homology, arXiv:1305.2183).  Over alpha:1,3, which keeps no
  quantum grading, each of a = n and a = -n holds one free summand in
  degree 0.
"""

import random

import pytest

from annkh import complexes, homology
from annkh.corpus import braid_closure
from annkh.ring import GF, INT, RAT, alpha_eval


def seeded_words(seed, count, max_len=6):
    """``count`` distinct (strands, word) pairs, each word nonempty."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                for _ in range(rng.randint(1, max_len))]
        if (n, word) not in out:
            out.append((n, word))
    return out


WORDS = seeded_words(7, 12)
EXTREMAL_WORDS = WORDS + [(n, []) for n in (2, 3, 4)]


def entries(word, n, ring):
    d = braid_closure(word, n)
    return homology.homology(complexes.build_complex(d, ring)).entries


@pytest.mark.parametrize("ring", [RAT, GF(2)], ids=repr)
@pytest.mark.parametrize("n, word", WORDS, ids=str)
def test_mirror_negates_every_degree(n, word, ring):
    h = entries(word, n, ring)
    mirror = entries([-x for x in word], n, ring)
    assert not any(tors for _, tors in h.values())  # a field
    assert {(-i, -q, -a): rank for (i, q, a), (rank, _) in mirror.items()} == {
        key: rank for key, (rank, _) in h.items()
    }


@pytest.mark.parametrize("ring", [INT, GF(2), alpha_eval(1, 3)], ids=repr)
@pytest.mark.parametrize("n, word", EXTREMAL_WORDS, ids=str)
def test_extremal_annular_degrees_hold_one_free_summand(n, word, ring):
    d = braid_closure(word, n)
    n_plus, n_minus = d.n_plus_minus()
    w = n_plus - n_minus
    h = homology.homology(complexes.build_complex(d, ring)).entries
    for a in (n, -n):
        q = a - w if ring.preserves_qdeg else None
        assert {k: v for k, v in h.items() if k[2] == a} == {(0, q, a): (1, ())}
    # no annular degree lies beyond the number of strands
    assert all(abs(k[2]) <= n for k in h)
