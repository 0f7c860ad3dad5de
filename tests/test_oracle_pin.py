"""The brute-force oracle's exact answers on a seeded corpus, pinned.

The oracle is the reference every backend is checked against, and
``predict --algo bruteforce`` reports its first witness, so a refactor of its
searches must keep every answer and every search order.  Sixty seeded random
traces are asked everything the oracle answers: ``oracle_witness`` and
``min_distance`` on every cross-thread conflicting pair, ``has_any_race`` on
each trace, and the full ``enumerate_correct_reorderings`` list in yield
order.  One line per answer is hashed and compared with the digest pinned in
``oracle_pins.json`` next to this file.

Run as a script from the root of a checkout to print the counts and the
digest:

    PYTHONPATH=src python tests/test_oracle_pin.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from racepred.generators import gen_random_trace
from racepred.oracle import (
    enumerate_correct_reorderings,
    has_any_race,
    min_distance,
    oracle_witness,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from helpers import conflicting_pairs

PINS = HERE / "oracle_pins.json"
SEEDS = range(60)


def answers() -> tuple[str, int, int, int]:
    """The digest of one line per oracle answer, the answer count, the
    cross-thread conflicting pair count, and how many of those pairs have
    no witness."""
    h = hashlib.sha256()
    count = pairs = non_racy = 0

    def add(line: str) -> None:
        nonlocal count
        h.update(line.encode() + b"\n")
        count += 1

    for s in SEEDS:
        t = gen_random_trace(
            s, n=9, k=2 + s % 3, d_globals=2, d_locks=2, read_ratio=0.4,
            lock_ratio=0.3, nesting_max=2,
        )
        for e1, e2 in conflicting_pairs(t):
            w = oracle_witness(t, e1, e2)
            pairs += 1
            non_racy += w is None
            add(f"{s} pair {e1} {e2} {w} {min_distance(t, e1, e2)}")
        add(f"{s} any {has_any_race(t)}")
        for w in enumerate_correct_reorderings(t):
            add(f"{s} enum {w}")
    return h.hexdigest(), count, pairs, non_racy


def test_oracle_answers_match_the_pinned_digest():
    got, count, pairs, non_racy = answers()
    pins = json.loads(PINS.read_text())
    # floors: the corpus still asks racy and non-racy pairs alike
    assert pairs >= 377 and non_racy >= 41
    assert (count, pairs, non_racy) == (pins["answers"], pins["pairs"], pins["non_racy"])
    assert got == pins["digest"]


if __name__ == "__main__":
    got, count, pairs, non_racy = answers()
    print(f"answers {count}, pairs {pairs}, non-racy {non_racy}")
    print(f"digest {got}")
