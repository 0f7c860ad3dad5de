"""Metamorphic gates: relations between the answers on two traces, which
need no reference answer and so hold at any size.

Relation 1: appending events after the end of a trace keeps the race bit
of every pair of old events.  Delete the new events from a witness of the
longer trace: no old read observes a new write, a new write between an old
read and its writer would already break that witness, deleting lock events
only frees locks, and the query events keep their predecessors.
Conversely, a witness of the old trace is one of the longer trace.  Both
traces are built with ``synthesize_init=False``, so the old events keep
their ids.  On ``auto`` the longer trace's topology can lose the forest
shape, so some old pairs switch from the tree route to ``general``.

Relation 2: a bijective renaming of threads, globals and locks changes no
race bit.  Events keep their ids and threads their order of first
appearance, but names sort anew, so the down-set table numbers the
channels in another order.

``bounded`` is left out: its promise is one-sided.
"""

import functools
import random

import pytest

from racepred import Trace, from_events, serialize
from racepred.cli import predict, scan_pairs
from racepred.generators import gen_random_trace

ALGOS = ("auto", "general")


def _shape(rng: random.Random) -> dict:
    return dict(
        d_globals=rng.randint(1, 3),
        d_locks=rng.randint(1, 3),
        read_ratio=rng.random(),
        lock_ratio=rng.uniform(0.2, 0.8),
        nesting_max=rng.randint(1, 3),
    )


def _items(trace: Trace) -> list[tuple[str, str, str]]:
    return [(ev.thread, ev.kind, ev.loc) for ev in trace.events]


@functools.cache
def corpus() -> list[tuple[Trace, Trace, Trace]]:
    """Seeded ``(trace, longer, renamed)`` triples: ``longer`` appends
    4–30 events over 2–6 threads, some of them old and some new, on the
    same globals and locks; ``renamed`` renames every thread, global and
    lock of ``trace`` bijectively."""
    rng = random.Random(24)
    out = []
    for seed in range(150):
        k = rng.randint(2, 5)
        trace = gen_random_trace(seed, n=rng.randint(12, 40), k=k, **_shape(rng))
        tail = gen_random_trace(seed + 1000, n=rng.randint(4, 30), k=rng.randint(2, 6), **_shape(rng))
        shift = rng.randint(0, k)  # tail thread t1 becomes t(1 + shift)
        longer = from_events(
            _items(trace) + [(f"t{int(t[1:]) + shift}", kind, loc) for t, kind, loc in _items(tail)],
            synthesize_init=False,
        )
        threads = rng.sample(range(1, 30), len(trace.threads))
        names = {t: f"t{i}" for t, i in zip(trace.threads, threads)}
        for pool, prefix in ((sorted(trace.globals_), "g_"), (sorted(trace.locks), "m_")):
            fresh = rng.sample(range(100), len(pool))
            names.update((x, f"{prefix}{i}") for x, i in zip(pool, fresh))
        renamed = from_events(
            [(names[t], kind, names[loc]) for t, kind, loc in _items(trace)],
            synthesize_init=False,
        )
        out.append((trace, longer, renamed))
    return out


@functools.cache
def verdicts(algo: str) -> list[tuple[Trace, Trace, Trace, list]]:
    """Each corpus triple with the verdicts on every conflicting pair of
    ``trace``."""
    return [
        (trace, longer, renamed, [predict(trace, a, b, algo=algo) for a, b in scan_pairs(trace)])
        for trace, longer, renamed in corpus()
    ]


@pytest.mark.parametrize("algo", ALGOS)
def test_appending_events_keeps_every_old_race_bit(algo):
    pairs = races = switched = 0
    for trace, longer, _, old in verdicts(algo):
        for v in old:
            new = predict(longer, *v.query, algo=algo)
            assert new.race == v.race, (serialize(trace), v.query)
            pairs += 1
            races += v.race
            switched += (v.algorithm, new.algorithm) == ("tree", "general")
    # both bits well represented; on auto, many pairs change route
    assert pairs >= 9000 and 4500 <= races <= pairs - 4000, (pairs, races)
    assert switched >= (1000 if algo == "auto" else 0), switched


@pytest.mark.parametrize("algo", ALGOS)
def test_renaming_threads_and_locations_keeps_every_race_bit(algo):
    pairs = 0
    for trace, _, renamed, old in verdicts(algo):
        for v in old:
            new = predict(renamed, *v.query, algo=algo)
            assert (new.race, new.algorithm) == (v.race, v.algorithm), (serialize(trace), v.query)
            pairs += 1
    assert pairs >= 9000, pairs

