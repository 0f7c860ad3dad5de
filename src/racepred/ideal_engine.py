"""Trace ideals, causal cones, feasibility, and the candidate ideal set.

A trace ideal is a set of events closed downward under the thread-reads-from
order: equivalently, it keeps a prefix of every thread and contains the
observed writer/acquire of every contained read/release.  Race prediction
reduces to realizability questions over a handful of such ideals:

* ``cone`` — the smallest ideal enabling each event of a set;
* ``candidate_ideal_set`` — the cone plus variants that close critical
  sections left open by it, enough to decide any race pair;
* ``lcone`` — the lock-feasible single ideal that suffices when the
  communication topology is a tree.

``feasibility`` classifies an ideal and, when possible, produces the
canonical rf-poset handed to the realizability backends.  Only a
lock-feasible ideal, one that leaves no lock open twice, can pass it, so
the candidate sweep grows an ideal that holds a lock open twice only through
the open acquires of that lock: every lock-feasible ideal above it must
close one of them (see ``_candidates``).

An ideal is fixed by its per-thread prefix lengths, so it is stored as that
vector: a union of ideals is a pointwise max, and membership is one
comparison.  The per-event facts this needs (the prefix vector of each
event's downward closure, the acquires open at each thread prefix) come from
the trace's one down-set table, ``trace_model._table``, which is also the
only stored form of the whole trace's TRF.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .orders import CycleError, RfPoset, compute_trf
from .trace_model import (
    Trace,
    TraceError,
    _forest_order,
    _is_closed,
    _join,
    _prefix_keys,
    _query_pair,
    _Table,
    _table,
)

__all__ = [
    "Ideal",
    "Feasibility",
    "FeasibilityResult",
    "is_ideal",
    "enabled_events",
    "open_acquires",
    "cone",
    "lcone",
    "feasibility",
    "candidate_ideal_set",
]


@dataclass(frozen=True)
class Ideal:
    """An event set closed downward under thread order and observation.

    Stored as its per-thread prefix lengths: the ideal holds the first
    ``prefix[b]`` events of thread ``trace.threads[b]``.  Membership and size
    read the prefix; the member set is built only when asked for.
    """

    trace: Trace
    prefix: tuple[int, ...]

    @classmethod
    def from_members(cls, trace: Trace, members: Iterable[int]) -> "Ideal":
        """The ideal with exactly these members; :class:`TraceError` if none."""
        prefix = _prefix_of(trace, frozenset(members))
        if prefix is None:
            raise TraceError("member set is not a trace ideal")
        return cls(trace, prefix)

    @property
    def members(self) -> frozenset[int]:
        """The member event ids, built on each access."""
        ids = _table(self.trace).ids
        return frozenset(
            chain.from_iterable(ids[b][:m] for b, m in enumerate(self.prefix))
        )

    def __contains__(self, eid: int) -> bool:
        trace = self.trace
        pos = trace.thread_pos.get(eid)
        if pos is None:
            return False
        return pos < self.prefix[trace.thread_index[trace.events[eid - 1].thread]]

    def __len__(self) -> int:
        return sum(self.prefix)

    def __or__(self, other: "Ideal") -> "Ideal":
        """The union of two ideals of one trace: the pointwise max of prefixes."""
        if other.trace is not self.trace:
            raise ValueError("cannot join ideals of different traces")
        return Ideal(self.trace, _join(self.prefix, other.prefix))


# ----------------------------------------------------------------------
# reading the per-trace table
# ----------------------------------------------------------------------


def _below(trace: Trace, table: _Table, eid: int) -> tuple[int, ...]:
    """Prefix vector of the downward closure of ``eid``'s thread predecessor."""
    b = trace.thread_index[trace.event(eid).thread]  # TraceError for an unknown id
    pos = trace.thread_pos[eid]
    return table.down[table.ids[b][pos - 1]] if pos else table.down[0]


def _prefix_of(trace: Trace, members: frozenset[int]) -> tuple[int, ...] | None:
    """Per-thread prefix lengths, or None if not an ideal."""
    counts = [0] * len(trace.threads)
    tops = [0] * len(trace.threads)
    for eid in members:
        b = trace.thread_index[trace.event(eid).thread]
        counts[b] += 1
        tops[b] = max(tops[b], trace.thread_pos[eid] + 1)
    if counts != tops:
        return None  # a gap in some thread's prefix
    return tuple(counts) if _is_closed(_table(trace), counts) else None


def is_ideal(trace: Trace, members: Iterable[int]) -> bool:
    """Whether the set is downward-closed under thread order and observation."""
    return _prefix_of(trace, frozenset(members)) is not None


def enabled_events(ideal: Ideal) -> frozenset[int]:
    """Events outside the ideal whose thread predecessors all lie inside."""
    out = []
    for b, proj in enumerate(ideal.trace.by_thread):
        if ideal.prefix[b] < len(proj):
            out.append(proj[ideal.prefix[b]].eid)
    return frozenset(out)


def open_acquires(ideal: Ideal) -> list[int]:
    """Acquires in the ideal whose matching release is outside, by event id."""
    return _open_in(_table(ideal.trace), ideal.prefix)


def _open_in(table: _Table, prefix: Sequence[int]) -> list[int]:
    """Acquires an ideal leaves open, by event id, read from the table."""
    return sorted(chain.from_iterable(map(tuple.__getitem__, table.opens, prefix)))


# ----------------------------------------------------------------------
# causal cones
# ----------------------------------------------------------------------


def cone(trace: Trace, events: Iterable[int]) -> Ideal:
    """The smallest ideal in which every given event is enabled.

    Union over the given events of the downward closure of each event's
    thread predecessor; an event opening its thread contributes nothing.
    """
    table = _table(trace)
    prefix = table.down[0]
    for eid in events:
        prefix = _join(prefix, _below(trace, table, eid))
    return Ideal(trace, prefix)


def lcone(trace: Trace, eid: int) -> Ideal:
    """The lock causal cone of an event over a tree communication topology.

    Grows per-thread prefixes top-down from the event's thread: first the
    event's own thread predecessors, then for each thread everything ordered
    below its parent's frontier, then whole critical sections whose acquire
    conflicts with one still open in the parent, until none remain.

    Every other thread the tree reaches is exactly one child in the forest
    order, which lists a parent before its children, so when a thread's
    turn comes its prefix is still 0 and its parent's is final: the prefix
    is set, not maxed, from the ``down`` row of the parent's last event.
    Closing the earliest clashing acquire closes those nested in it too.

    The grown prefixes always form an ideal, so nothing checks it here.
    Prefixes keep thread order, and a release observes an acquire of its
    own thread.  A read and the write it observes conflict, so when they
    lie in two threads, those threads share a tree edge.  So it suffices
    that on each edge, from parent p to child c, a read in one prefix that
    observes a write of the other thread finds it in that thread's prefix.
    Reads in p: c's prefix starts at the ``down`` row of p's last event,
    which holds their writers.  Reads in that first part of c: they lie
    below p's last event, and so do their writers.  Reads past it, up to
    the release r_c of a clashing acquire a_c: a_c is in the first part, so
    it precedes p's last event and with it the release of p's open acquire
    a_p on the same lock.  Two sections on one lock do not overlap, so r_c
    precedes a_p, and so does a writer in p of a read before r_c; a_p is in
    p's prefix.  After the first clash, the acquires left open enclose a_c,
    so a later clash is on the first part as well.
    :func:`~racepred.orders.compute_trf` still rejects a prefix that is not
    an ideal on every path from an ideal to a backend.
    """
    root = trace.event(eid).thread
    top = trace.thread_index[root]
    table = _table(trace)
    order = _forest_order(table.adj, [top])
    if order is None:
        raise TraceError(f"communication topology around {root} is not a tree")
    prefix = [0] * len(trace.threads)
    prefix[top] = trace.thread_pos[eid]
    for b1, b2 in order:
        m = prefix[b2]
        prefix[b1] = table.down[table.ids[b2][m - 1] if m else 0][b1]
        held = {trace.events[a - 1].loc for a in table.opens[b2][m]}  # the parent's open locks
        while clash := [a for a in table.opens[b1][prefix[b1]] if trace.events[a - 1].loc in held]:
            prefix[b1] = trace.thread_pos[trace.match[min(clash)]] + 1
    return Ideal(trace, tuple(prefix))


# ----------------------------------------------------------------------
# feasibility and the canonical rf-poset
# ----------------------------------------------------------------------


# an ideal with its open acquires, by event id, and the first lock two of
# them hold: ``None`` for both on a candidate that is never classified
_Candidate = tuple[Ideal, list[int] | None, str | None]


class Feasibility(enum.Enum):
    INFEASIBLE_LOCKS = "infeasible_locks"
    INFEASIBLE = "infeasible"
    FEASIBLE = "feasible"


@dataclass(frozen=True)
class FeasibilityResult:
    status: Feasibility
    poset: RfPoset | None = None

    def __bool__(self) -> bool:
        return self.status is Feasibility.FEASIBLE


def _clashing_lock(trace: Trace, opens: Sequence[int]) -> str | None:
    """The first lock, in the given order, that two open acquires both hold."""
    locks = [trace.events[eid - 1].loc for eid in opens]
    if len(set(locks)) == len(locks):
        return None
    return next(lock for i, lock in enumerate(locks) if lock in locks[:i])


def feasibility(ideal: Ideal) -> FeasibilityResult:
    """Classify an ideal and build its canonical rf-poset when feasible.

    Two conflicting acquires both left open make the ideal a dead end
    (``INFEASIBLE_LOCKS``).  Otherwise every closed critical section on a
    lock with an open acquire, read off the lock's run of writer keys in the
    channel index cut at the ideal's prefix, must be ordered before that
    open acquire; if those forced edges
    contradict the thread-reads-from order the ideal is ``INFEASIBLE``, else
    the forced edges, inserted by acquire id, define the canonical order.

    The open acquires and the clashing lock are read once, by
    :func:`_candidate`; the candidate sweep reads them as it grows an ideal
    and classifies it with :func:`_feasible`, without reading them again.
    """
    return _feasible(*_candidate(ideal))


def _candidate(ideal: Ideal) -> _Candidate:
    """The ideal with its open acquires, by event id, and the first lock two
    of them hold, or ``None``: a candidate as the sweep yields it."""
    opens = _open_in(_table(ideal.trace), ideal.prefix)
    return ideal, opens, _clashing_lock(ideal.trace, opens)


def _feasible(ideal: Ideal, opens: list[int], clash: str | None) -> FeasibilityResult:
    """:func:`feasibility` of an ideal whose open acquires and clashing lock
    are already read."""
    if clash is not None:
        return FeasibilityResult(Feasibility.INFEASIBLE_LOCKS)
    trace, prefix = ideal.trace, ideal.prefix
    table = _table(trace)
    k, span, writers = len(prefix), table.span, table.writers
    # the acquires of each open acquire's lock: its channel's run of writers
    base = table.chan[opens] * (k * span)
    lo, hi = writers.searchsorted(base).tolist(), writers.searchsorted(base + k * span).tolist()
    forced = sorted(
        (acq, open_acq)
        for open_acq, start, end in zip(opens, lo, hi)
        for key in _prefix_keys(table, writers[start:end], prefix).tolist()
        if (acq := table.ids[key // span % k][key % span]) != open_acq
    )
    order = compute_trf(trace, prefix)
    try:
        for acq, open_acq in forced:
            order.add_edge(trace.match[acq], open_acq)
    except CycleError:
        return FeasibilityResult(Feasibility.INFEASIBLE)
    return FeasibilityResult(Feasibility.FEASIBLE, RfPoset(trace, order))


# ----------------------------------------------------------------------
# candidate ideal set
# ----------------------------------------------------------------------


def candidate_ideal_set(trace: Trace, e1: int, e2: int) -> list[Ideal]:
    """Every ideal whose realizability can witness a race on the pair.

    Starts from the cone of the pair and repeatedly closes one open
    critical section (adding the matching release and whatever must come
    before it), keeping only variants that leave both query events out.
    An ideal that holds some lock open twice is grown only by closing an
    open acquire of the first such lock, its open acquires read in event-id
    order; the ideal itself is still kept.  Members are deduplicated by
    event set and returned in discovery order.  Each variant is the
    pointwise max of its parent's prefix vector and the release's downward
    closure, so no member set is built.
    """
    return [x for x, _, _ in _candidates(trace, e1, e2)]


def _candidates(trace: Trace, e1: int, e2: int) -> Iterator[_Candidate]:
    """The candidate ideal set, each ideal yielded as the sweep dequeues it.

    Each ideal is yielded with its open acquires, by event id, and the first
    lock two of them hold, or ``None``, as :func:`_candidate` would read
    them: the sweep reads them once, before yielding, both to grow the ideal
    and for the consumer to hand to :func:`_feasible`.  A consumer that
    stops at the first witness never builds the rest.  When the seed holds
    a query event every variant holds it too, so the seed is the only
    candidate; it is neither grown nor classified, so both come as ``None``.
    Otherwise every queued ideal leaves both query events out, and a variant
    holds one exactly when the release's downward closure does: that is
    read off the closure before joining.

    Pruning an ideal Y that holds a lock open twice loses no lock-feasible
    candidate.  Locks are not re-entrant, so each open acquire of that lock
    is in its own thread.  A lock-feasible Z that the full sweep reaches
    from Y leaves at most one of them open, so it closes one, a, and holds
    the child Y' that closes a.  Replayed from Y', each closing on the path
    from Y to Z is still legal or already done, and the path ends at Y'
    joined with Z, which is Z.  By induction on the size of Z minus Y, the
    pruned sweep reaches every lock-feasible candidate, and only those can
    pass :func:`feasibility`.
    """
    ev1, ev2 = _query_pair(trace, e1, e2)
    table = _table(trace)
    b1, pos1 = trace.thread_index[ev1.thread], trace.thread_pos[e1]
    b2, pos2 = trace.thread_index[ev2.thread], trace.thread_pos[e2]
    seed = _join(_below(trace, table, e1), _below(trace, table, e2))
    if seed[b1] > pos1 or seed[b2] > pos2:
        yield Ideal(trace, seed), None, None
        return
    queue = [seed]  # breadth-first: members are expanded in discovery order
    seen = {seed}
    for y in queue:
        opens = _open_in(table, y)
        clash = _clashing_lock(trace, opens)
        yield Ideal(trace, y), opens, clash
        if clash is not None:  # grown only through the clash it must resolve
            opens = [a for a in opens if trace.events[a - 1].loc == clash]
        for acq in opens:
            down = table.down[trace.match[acq]]
            if down[b1] > pos1 or down[b2] > pos2:
                continue
            grown = _join(y, down)
            if grown not in seen:
                seen.add(grown)
                queue.append(grown)
