"""Property tests on seeded closed braids: one annular isotopy leaves
the homology unchanged, and the Lee rank counts the components.

Braid words have 2 to 4 strands and at most 6 letters.  The isotopy is
a braid relation, a far commutation, a free cancellation or a
conjugation: moves of braids in the solid torus, so the annular
homology is an invariant of them.  Markov stabilization changes the
number of strands, hence the annular link, and is never used.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from annkh import complexes, homology
from annkh.corpus import braid_closure
from annkh.ring import GF, INT, alpha_eval

RINGS = (INT, GF(2), alpha_eval(1, 3))
MAX_LETTERS = 6
# each move, with the fewest strands it needs
MOVES = {"braid relation": 3, "far commutation": 4, "cancellation": 2, "conjugation": 2}


def letters(n):
    """Braid generators on n strands and their inverses."""
    return st.integers(1, n - 1).flatmap(lambda j: st.sampled_from((j, -j)))


@st.composite
def isotopic_braids(draw):
    """(strands, word, isotoped word, move name)."""
    move = draw(st.sampled_from(list(MOVES)))
    n = draw(st.integers(MOVES[move], 4))

    def rest(used, min_size=0):
        size = {"min_size": min_size, "max_size": MAX_LETTERS - used}
        return draw(st.lists(letters(n), **size))

    if move == "conjugation":  # by a proper prefix: a cyclic rotation
        word = rest(0, min_size=2)
        k = draw(st.integers(1, len(word) - 1))
        return n, word, word[k:] + word[:k], move
    if move == "cancellation":
        word = rest(2)
        k = draw(st.integers(0, len(word)))
        g = draw(letters(n))
        return n, word, word[:k] + [g, -g] + word[k:], move
    if move == "braid relation":
        i = draw(st.integers(1, n - 2))
        sign = draw(st.sampled_from((1, -1)))
        a, b = sign * i, sign * (i + 1)
        left, right = [a, b, a], [b, a, b]
    else:  # far commutation
        a = draw(letters(n))
        b = draw(letters(n).filter(lambda b: abs(abs(b) - abs(a)) >= 2))
        left, right = [a, b], [b, a]
    word = rest(len(left))
    k = draw(st.integers(0, len(word)))
    return n, word[:k] + left + word[k:], word[:k] + right + word[k:], move


def components(word, n):
    """Cycles of the braid's strand permutation."""
    perm = list(range(n))
    for w in word:
        j = abs(w) - 1
        perm[j], perm[j + 1] = perm[j + 1], perm[j]
    seen, cycles = set(), 0
    for s in range(n):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return cycles


def rank_tables(d):
    return [
        homology.homology(complexes.build_complex(d, ring)).rank_table()
        for ring in RINGS
    ]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(isotopic_braids())
def test_an_annular_isotopy_keeps_the_homology(case):
    n, word, moved, move = case
    d, e = braid_closure(word, n), braid_closure(moved, n)
    assert rank_tables(d) == rank_tables(e), (n, word, moved, move)
    assert homology.lee_rank(e) == 2 ** components(moved, n), (n, moved)
