"""Pinned entries of every birth and death on small state spaces.

Each case is a space of 0-3 slots, trivial and essential mixed, a ring,
planar or annular, and a birth at every insertion position or a
death on every trivial slot.  The codomain slots and every entry are
compared with ``tests/data/birth_death.json``, and every entry must
shift the bidegree (qdeg, adeg) by (-1, 0), read off the two spaces.
Regenerate that file, only when the maps change on purpose, with::

    PYTHONPATH=src python tests/test_birth_death.py
"""

import functools
import json
from itertools import product
from pathlib import Path

import pytest

from annkh import tqft
from annkh.ring import GENERIC, INT, alpha_eval

from conftest import check_bidegree

DATA = Path(__file__).resolve().parent / "data" / "birth_death.json"

# The third column labels the theory in the pinned keys; only the
# label GENERIC means planar, the others name an annular theory.
RINGS = (
    ("generic", GENERIC, "GENERIC"),
    ("generic", GENERIC, "ANNULAR_ALPHA"),
    ("int", INT, "ANNULAR_ZERO"),
    ("alpha:1,3", alpha_eval(1, 3), "ANNULAR_D"),
)


def space(ring, variant, flags):
    return tqft.make_space(ring, flags, planar=variant == "GENERIC")


def flag_lists():
    """Every trivial/essential pattern of 0-3 slots; essential slots are
    numbered 1, 2, ... from the first."""
    out = []
    for k in range(4):
        for pattern in product((False, True), repeat=k):
            flags, n_ess = [], 0
            for ess in pattern:
                n_ess += ess
                flags.append((ess, n_ess if ess else None))
            out.append(flags)
    return out


def cases():
    for label, ring, variant in RINGS:
        for flags in flag_lists():
            for pos in range(len(flags) + 1):
                yield label, ring, variant, flags, "birth", pos
            for pos, (ess, _) in enumerate(flags):
                if not ess:
                    yield label, ring, variant, flags, "death", pos


def key(label, variant, flags, op, pos):
    pattern = "".join("E" if ess else "T" for ess, _ in flags) or "-"
    return f"{op} {pos} {pattern} {label} {variant}"


def build(ring, variant, flags, op, pos):
    sp = space(ring, variant, flags)
    return tqft.birth_map(sp, pos) if op == "birth" else tqft.death_map(sp, pos)


def record(m):
    ring = m.domain.ring
    return {
        "codomain": [list(s) for s in m.codomain.slots],
        "entries": [
            [r, c, ring.to_str(v)] for (r, c), v in sorted(m.entries.items())
        ],
    }


@functools.cache
def load():
    return json.loads(DATA.read_text())


def test_cases_cover_every_position():
    # per ring: 49 births and 17 deaths on the 15 spaces
    all_cases = list(cases())
    assert len(all_cases) == 4 * (49 + 17)
    assert set(load()) == {key(c[0], *c[2:]) for c in all_cases}


@pytest.mark.parametrize(
    "label,ring,variant,flags,op,pos",
    list(cases()),
    ids=lambda x: x if isinstance(x, (str, int)) else None,
)
def test_birth_and_death_entries_are_pinned(label, ring, variant, flags, op, pos):
    m = build(ring, variant, flags, op, pos)
    assert record(m) == load()[key(label, variant, flags, op, pos)]
    assert check_bidegree(m, -1, 0)


@pytest.mark.parametrize("label,ring,variant", RINGS)
def test_death_refuses_an_essential_slot(label, ring, variant):
    sp = space(ring, variant, [(False, None), (True, 1)])
    with pytest.raises(ValueError):
        tqft.death_map(sp, 1)


if __name__ == "__main__":
    rows = {
        key(label, variant, flags, op, pos): record(build(ring, variant, flags, op, pos))
        for label, ring, variant, flags, op, pos in cases()
    }
    DATA.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} maps to {DATA}")
