"""Seeded inputs for the benchmark workloads, each with an answer the engine does not supply.

A workload is one *pass*: a list of instances, each a trace text (what the
program receives) plus the queries to decide on it.  The run seed fixes every
random choice, so the same seed gives the same pass.

* ``ov``: orthogonal-vectors reduction traces, alternating yes (one planted
  orthogonal pair) and no (every vector has a shared coordinate set to 1).
  Answer: ``OvInstance.has_orthogonal_pair``, a brute-force check.
* ``scan``: whole-trace ``scan`` over pinned ``gen_random_trace`` traces,
  renamed by the seed.  Answer: each trace's racy-pair count, pinned in
  ``scan_pins.json`` from an earlier run of the engine.  That is a regression
  guard, not an independent check.
* ``indset``: independent-set reduction traces for fixed graph families under
  a seeded vertex relabelling.  Answer: ``IsInstance.has_independent_set``, a
  brute-force check.
* ``long``: the 2 000-event chain and star traces, renamed by the seed, each
  queried once per route.  Answer: every query races.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from racepred.generators import (
    IsInstance,
    OvInstance,
    gen_indset_trace,
    gen_ov_trace,
    gen_random_trace,
)
from racepred.trace_model import Trace, serialize

PINS = Path(__file__).with_name("scan_pins.json")

OV_VECTORS = 4  # vectors per side
OV_DIM = 3
OV_INSTANCES = 160  # per pass, half yes and half no

# gen_random_trace shape for ``scan``; the pinned seeds live in scan_pins.json
SCAN_SHAPE = dict(
    n=60, k=4, d_globals=3, d_locks=2, read_ratio=0.4, lock_ratio=0.2, nesting_max=2
)

LONG_ROUTES = (
    ("auto", None),
    ("general", None),
    ("bounded", 0),
    ("bounded", 1),
    ("bounded", 2),
)


@dataclass(frozen=True)
class Query:
    """One ``predict`` call and the verdict it must return."""

    e1: int
    e2: int
    algo: str
    distance: int | None
    expect_race: bool


@dataclass(frozen=True)
class Instance:
    """One trace text and what to decide on it.

    ``queries`` is set for ``predict`` workloads.  ``scan_races`` is set for
    the ``scan`` workload: the pinned number of racy pairs in the trace.
    """

    label: str
    text: str
    queries: tuple[Query, ...] = ()
    scan_races: int | None = None


Items = list[tuple[str, str, str]]


def _items(trace: Trace) -> Items:
    return [(ev.thread, ev.kind, ev.loc) for ev in trace.events]


def _text(items: Items) -> str:
    return "".join(f"{t} {k} {loc}\n" for t, k, loc in items)


def _rename(items: Items, rng: random.Random) -> Items:
    """Consistently rename threads, globals and locks.

    Event ids are positions, so queries keep their ids, and every race
    verdict is unchanged.
    """
    threads = sorted({t for t, _, _ in items})
    locks = sorted({loc for _, k, loc in items if k in ("acq", "rel")})
    globals_ = sorted({loc for _, k, loc in items if k in ("w", "r")})
    new_threads = rng.sample(range(1, 100), len(threads))  # t0 is reserved
    new_locks = rng.sample(range(1000), len(locks))
    new_globals = rng.sample(range(1000), len(globals_))
    names = {t: f"t{n}" for t, n in zip(threads, new_threads)}
    names.update((loc, f"m{n}") for loc, n in zip(locks, new_locks))
    names.update((loc, f"v{n}") for loc, n in zip(globals_, new_globals))
    return [(names[t], k, names[loc]) for t, k, loc in items]


# ----------------------------------------------------------------------
# ov
# ----------------------------------------------------------------------


def _ov_instance(rng: random.Random, shared: int, yes: bool) -> OvInstance:
    """Vectors meeting on coordinate ``shared``; ``yes`` plants one orthogonal pair."""
    m, dim = OV_VECTORS, OV_DIM
    others = [d for d in range(dim) if d != shared]

    def vector() -> list[int]:
        v = [rng.randint(0, 1) for _ in range(dim)]
        v[shared] = 1
        return v

    a = [vector() for _ in range(m)]
    b = [vector() for _ in range(m)]
    if yes:
        i, j = rng.randrange(m), rng.randrange(m)
        a[i] = [0 if d == shared else 1 for d in range(dim)]
        b[j] = [1 if d == shared else 0 for d in range(dim)]
        # every other b vector must meet a[i] off the shared coordinate
        for x, v in enumerate(b):
            if x != j and not any(v[d] for d in others):
                v[rng.choice(others)] = 1
    return OvInstance(a, b, dim)


def ov(seed: int) -> list[Instance]:
    rng = random.Random(f"ov:{seed}")
    out = []
    for i in range(OV_INSTANCES):
        yes = i % 2 == 0
        inst = _ov_instance(rng, shared=(i // 2) % OV_DIM, yes=yes)
        expect = inst.has_orthogonal_pair
        if expect != yes:
            raise AssertionError("OV generator planted the wrong answer")
        trace, (e1, e2) = gen_ov_trace(inst)
        out.append(
            Instance(
                "ov-yes" if yes else "ov-no",
                serialize(trace),
                (Query(e1, e2, "auto", None, expect),),
            )
        )
    return out


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


def load_pins() -> list[dict]:
    pins = json.loads(PINS.read_text())
    if pins["shape"] != SCAN_SHAPE:
        raise ValueError(f"{PINS.name} was pinned for another trace shape")
    return pins["traces"]


def scan(seed: int) -> list[Instance]:
    rng = random.Random(f"scan:{seed}")
    pins = load_pins()
    rng.shuffle(pins)
    out = []
    for pin in pins:
        trace = gen_random_trace(pin["seed"], **SCAN_SHAPE)
        text = _text(_rename(_items(trace), rng))
        out.append(Instance(f"random-{pin['seed']}", text, scan_races=pin["races"]))
    return out


# ----------------------------------------------------------------------
# indset
# ----------------------------------------------------------------------


def _cycle(n: int) -> list[tuple[int, int]]:
    return [(i, i % n + 1) for i in range(1, n + 1)]


def _complete(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _complement(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [e for e in _complete(n) if e not in present]


# (label, nodes, edges, target size c)
INDSET_FAMILIES = (
    ("C6-c3", 6, _cycle(6), 3),
    ("C7-c3", 7, _cycle(7), 3),
    ("C8-c3", 8, _cycle(8), 3),
    ("C5-c3", 5, _cycle(5), 3),
    ("K5-c2", 5, _complete(5), 2),
    ("coC6-c3", 6, _complement(6, _cycle(6)), 3),
)


def indset(seed: int) -> list[Instance]:
    rng = random.Random(f"indset:{seed}")
    out = []
    for label, n, edges, c in INDSET_FAMILIES:
        relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
        inst = IsInstance(n, frozenset((relabel[u], relabel[v]) for u, v in edges), c)
        trace, (e1, e2) = gen_indset_trace(inst)
        out.append(
            Instance(
                label,
                serialize(trace),
                (Query(e1, e2, "auto", None, inst.has_independent_set),),
            )
        )
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------------
# long
# ----------------------------------------------------------------------


def chain_items() -> Items:
    """2 000 events on two threads: a produce/consume chain, then two racing writes."""
    items: Items = []
    for _ in range(999):
        items += [("t1", "w", "x"), ("t2", "r", "x")]
    return items + [("t1", "w", "y"), ("t2", "w", "y")]


def star_items() -> Items:
    """2 000 events: a hub thread feeding three arm threads in turn."""
    items: Items = []
    while len(items) < 2000:
        for arm in ("t2", "t3", "t4"):
            items += [("t1", "w", f"slot_{arm}"), (arm, "r", f"slot_{arm}")]
    return items[:2000]


def long(seed: int) -> list[Instance]:
    rng = random.Random(f"long:{seed}")
    out = []
    for label, items in (("chain-2000", chain_items()), ("star-2000", star_items())):
        text = _text(_rename(items, rng))
        for algo, distance in LONG_ROUTES:
            route = algo if distance is None else f"{algo}{distance}"
            query = Query(1999, 2000, algo, distance, True)
            out.append(Instance(f"{label}/{route}", text, (query,)))
    rng.shuffle(out)
    return out


WORKLOADS = {"ov": ov, "scan": scan, "indset": indset, "long": long}
