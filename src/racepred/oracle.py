"""Brute-force reference implementations for small traces.

Everything here explores the space of correct reorderings directly, with no
cleverness, so the main engine can be checked against an independent source
of truth.  A correct reordering keeps per-thread prefixes, preserves every
kept read's writer and every kept release's acquire, and obeys lock mutual
exclusion.

Every search takes one step, ``_Replay.steps``: it appends each next event
that a correct reordering allows, lets the search go deeper, and takes the
event back.  ``witness_error`` is kept apart from that step on purpose: it is
the independent checker that every enumerated reordering and every engine
witness is tested against, so it replays a witness with its own code.

All entry points guard against combinatorial blowup with an event-count cap
(default 14) that callers can raise explicitly when they know better.  The
walks recurse once per placed event, so a trace too deep for the
interpreter's recursion limit raises :class:`OracleCapError` as well; no cap
raises that limit.

Usage::

    trace = parse_trace(...)
    oracle_predict(trace, 3, 7)          # is (3, 7) a predictable race?
    min_distance(trace, 3, 7)            # fewest write/acquire reversals
    list(enumerate_correct_reorderings(trace))
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from .trace_model import Trace, _query_pair

__all__ = [
    "OracleCapError",
    "DEFAULT_CAP",
    "enumerate_correct_reorderings",
    "oracle_predict",
    "oracle_witness",
    "min_distance",
    "has_any_race",
    "verify_witness",
    "witness_error",
]

DEFAULT_CAP = 14


class OracleCapError(ValueError):
    """The trace is too long for brute-force exploration."""


def _check_cap(trace: Trace, cap: int) -> None:
    if len(trace) > cap:
        raise OracleCapError(
            f"trace has {len(trace)} events, above the brute-force cap {cap}; "
            "raise cap= explicitly to force the issue"
        )


@contextmanager
def _depth_guard(trace: Trace) -> Iterator[None]:
    """Report a walk that runs past the interpreter's recursion limit as
    :class:`OracleCapError`, not as a crash."""
    try:
        yield
    except RecursionError:
        raise OracleCapError(
            f"trace has {len(trace)} events, too deep for the brute-force walk, which "
            f"recurses once per placed event, under the recursion limit {sys.getrecursionlimit()}"
        ) from None


class _Replay:
    """Incremental validity checking while events are appended."""

    __slots__ = ("trace", "prefix", "last_writer", "holder", "placed", "prior")

    def __init__(self, trace: Trace):
        self.trace = trace
        self.prefix = [0] * len(trace.threads)
        self.last_writer: dict[str, int] = {}
        self.holder: dict[str, int] = {}  # lock -> holding thread
        self.placed: list[int] = []
        self.prior: list[int | None] = []  # each placed write's previous writer

    def candidates(self) -> list[int]:
        """Next event of each thread, in event-id order."""
        return sorted(row[m] for row, m in zip(self.trace.by_thread, self.prefix) if m < len(row))

    def can_append(self, eid: int) -> bool:
        kind, loc = self.trace.kind[eid - 1], self.trace.loc[eid - 1]
        if kind == "r":
            return self.last_writer.get(loc) == self.trace.rf[eid]
        if kind == "acq":
            return loc not in self.holder
        return True  # writes always, releases whenever program order allows

    def steps(self, skip: Sequence[int] = ()) -> Iterator[int]:
        """The one search step: each next event that can be appended and is
        not in ``skip``, in event-id order, is appended, yielded, and taken
        back when the caller resumes or closes the iterator."""
        for eid in self.candidates():
            if eid in skip or not self.can_append(eid):
                continue
            self.append(eid)
            try:
                yield eid
            finally:
                self.undo()

    def append(self, eid: int) -> None:
        b, kind, loc = self.trace.tid[eid - 1], self.trace.kind[eid - 1], self.trace.loc[eid - 1]
        self.prefix[b] += 1
        self.placed.append(eid)
        if kind == "w":
            self.prior.append(self.last_writer.get(loc))
            self.last_writer[loc] = eid
        elif kind == "acq":
            self.holder[loc] = b
        elif kind == "rel":
            del self.holder[loc]

    def undo(self) -> None:
        eid = self.placed.pop()
        b, kind, loc = self.trace.tid[eid - 1], self.trace.kind[eid - 1], self.trace.loc[eid - 1]
        self.prefix[b] -= 1
        if kind == "w":
            prior = self.prior.pop()
            if prior is None:
                del self.last_writer[loc]
            else:
                self.last_writer[loc] = prior
        elif kind == "acq":
            del self.holder[loc]
        elif kind == "rel":
            self.holder[loc] = b

    def key(self) -> tuple:
        """Search state: thread prefixes plus who wrote each location last.

        The last-writer map is part of the state on purpose — two
        interleavings with equal prefixes can disagree on it, and the
        disagreement changes which reads may still be appended.
        """
        return tuple(self.prefix), tuple(sorted(self.last_writer.items()))


def enumerate_correct_reorderings(
    trace: Trace, cap: int = DEFAULT_CAP
) -> Iterator[list[int]]:
    """Yield every correct reordering of the trace, as event-id lists.

    The empty reordering is included (and yielded first), as is the trace
    itself.  Order is depth-first by smallest extending event id.
    """
    _check_cap(trace, cap)
    replay = _Replay(trace)

    def walk() -> Iterator[list[int]]:
        yield list(replay.placed)
        for _ in replay.steps():
            yield from walk()

    def guarded() -> Iterator[list[int]]:
        with _depth_guard(trace):
            yield from walk()

    return guarded()


def _first_state(
    trace: Trace, done: Callable[[_Replay], bool], skip: Sequence[int] = ()
) -> list[int] | None:
    """The first correct reordering, depth-first by smallest extending event
    id and never past an event in ``skip``, whose replay meets ``done``; or
    None.  The goal is tested before the memo, which expands each state
    once."""
    replay = _Replay(trace)
    seen: set[tuple] = set()

    def walk() -> list[int] | None:
        if done(replay):
            return list(replay.placed)
        key = replay.key()
        if key in seen:
            return None
        seen.add(key)
        for _ in replay.steps(skip):
            hit = walk()
            if hit is not None:
                return hit
        return None

    with _depth_guard(trace):
        return walk()


def _enabled(
    trace: Trace, e1: int, e2: int, cap: int
) -> Callable[[_Replay], bool] | None:
    """The test that a replay has both query events enabled, or None for a
    same-thread pair, which is never a race."""
    _check_cap(trace, cap)
    b1, b2 = _query_pair(trace, e1, e2)
    if b1 == b2:
        return None
    p1, p2 = trace.by_thread[b1].index(e1), trace.by_thread[b2].index(e2)
    return lambda r: r.prefix[b1] == p1 and r.prefix[b2] == p2


def oracle_predict(trace: Trace, e1: int, e2: int, cap: int = DEFAULT_CAP) -> bool:
    """Whether (e1, e2) is a predictable race, by exhaustive search."""
    return oracle_witness(trace, e1, e2, cap) is not None


def oracle_witness(
    trace: Trace, e1: int, e2: int, cap: int = DEFAULT_CAP
) -> list[int] | None:
    """A correct reordering enabling both events, or None if none exists."""
    enabled = _enabled(trace, e1, e2, cap)
    return None if enabled is None else _first_state(trace, enabled, (e1, e2))


def min_distance(
    trace: Trace, e1: int, e2: int, cap: int = DEFAULT_CAP
) -> float:
    """Fewest write/acquire reversals over all race witnesses for (e1, e2).

    A reversal is a pair of conflicting writes-or-acquires whose order in the
    witness is flipped relative to the trace.  Returns ``math.inf`` when the
    pair is not a predictable race.
    """
    enabled = _enabled(trace, e1, e2, cap)
    if enabled is None:
        return math.inf

    replay = _Replay(trace)
    best = math.inf
    # memo: fewest reversals that reached a state; prune dominated revisits
    cheapest: dict[tuple, float] = {}

    kind, loc = trace.kind, trace.loc

    def reversals_added(eid: int) -> int:
        """Reversals the just-appended ``eid`` makes with earlier events:
        later writes or acquires on its location, when it is one."""
        if kind[eid - 1] not in ("w", "acq"):
            return 0
        return sum(
            eid < other and kind[other - 1] in ("w", "acq") and loc[other - 1] == loc[eid - 1]
            for other in replay.placed
        )

    def walk(cost: float) -> None:
        nonlocal best
        if cost >= best:
            return
        if enabled(replay):
            best = cost
            return
        key = replay.key()
        if cheapest.get(key, math.inf) <= cost:
            return
        cheapest[key] = cost
        for eid in replay.steps((e1, e2)):
            walk(cost + reversals_added(eid))

    with _depth_guard(trace):
        walk(0)
    return best


def has_any_race(trace: Trace, cap: int = DEFAULT_CAP) -> bool:
    """Whether any conflicting global read/write pair is a predictable race.

    Synthesized initial writes do not count as race endpoints.
    """
    _check_cap(trace, cap)

    kind, loc, skip = trace.kind, trace.loc, trace.num_synthesized

    def racy_frontier(replay: _Replay) -> bool:
        # the candidates are the next events of distinct threads
        cands = [e for e in replay.candidates() if e > skip and kind[e - 1] in ("w", "r")]
        return any(
            loc[a - 1] == loc[b - 1] and "w" in (kind[a - 1], kind[b - 1])
            for i, a in enumerate(cands)
            for b in cands[i + 1 :]
        )

    return _first_state(trace, racy_frontier) is not None


def witness_error(
    trace: Trace,
    witness: Sequence[int],
    e1: int | None = None,
    e2: int | None = None,
) -> str | None:
    """Why a witness is invalid, or None if it checks out.

    When ``e1``/``e2`` are given, additionally require that both are absent
    from the witness and enabled at its end.  Anything but an iterable of
    integer ids (``operator.index``, bools excluded) is invalid too.
    """
    try:
        items = list(witness)
        ids = [operator.index(e) for e in items if not isinstance(e, bool)]
    except TypeError:
        ids = items = None
    if ids is None or len(ids) != len(items):
        return "witness is not a sequence of integer event ids"
    if len(set(ids)) != len(ids):
        return "witness repeats an event id"
    if not all(1 <= e <= len(trace) for e in ids):
        return "witness contains an unknown event id"
    tid, kind, loc = trace.tid, trace.kind, trace.loc

    # per-thread prefix property
    expected = [0] * len(trace.threads)
    for e in ids:
        b = tid[e - 1]
        proj = trace.by_thread[b]
        want = proj[expected[b]] if expected[b] < len(proj) else None
        if want != e:
            return f"program order broken in {trace.threads[b]}: got event {e}, expected {want}"
        expected[b] += 1

    # lock semantics and observation preservation
    last_writer: dict[str, int] = {}
    holder: dict[str, int] = {}  # lock -> holding thread
    for e in ids:
        k, x = kind[e - 1], loc[e - 1]
        if k == "w":
            last_writer[x] = e
        elif k == "r":
            if last_writer.get(x) != trace.rf[e]:
                return f"read {e} observes a different writer than in the trace"
        elif k == "acq":
            if x in holder:
                return f"critical sections overlap on {x}"
            holder[x] = tid[e - 1]
        else:
            if holder.get(x) != tid[e - 1]:
                return f"release of unheld lock {x}"
            del holder[x]

    present = set(ids)
    for q in (e1, e2):
        if q is None:
            continue
        if q in present:
            return f"query event {q} must stay out of the witness"
        b = trace.thread_of(q)
        pos = trace.by_thread[b].index(q)
        if expected[b] != pos:
            return (
                f"query event {q} is not enabled: thread {trace.threads[b]} stopped "
                f"after {expected[b]} of the {pos} required events"
            )
    return None


def verify_witness(
    trace: Trace,
    witness: Sequence[int],
    e1: int | None = None,
    e2: int | None = None,
) -> bool:
    """Whether the witness is a correct reordering (with e1, e2 enabled, if given)."""
    return witness_error(trace, witness, e1, e2) is None
