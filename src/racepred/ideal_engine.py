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
canonical rf-poset handed to the realizability backends.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .orders import CycleError, RfPoset, _full_trf, compute_trf
from .trace_model import Trace, TraceError, conflicting, trace_params

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
    """An event set closed downward under thread order and observation."""

    trace: Trace
    members: frozenset[int]
    prefix: tuple[int, ...] = field(compare=False)

    @classmethod
    def from_members(cls, trace: Trace, members: Iterable[int]) -> "Ideal":
        mset = frozenset(members)
        prefix = _prefix_of(trace, mset)
        if prefix is None:
            raise TraceError("member set is not a trace ideal")
        return cls(trace, mset, prefix)

    def __contains__(self, eid: int) -> bool:
        return eid in self.members

    def __len__(self) -> int:
        return len(self.members)

    def dump(self) -> str:
        """Sorted member ids, one per line."""
        return "\n".join(str(e) for e in sorted(self.members))


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
    for eid in members:
        ev = trace.event(eid)
        if ev.observes and trace.rf[eid] not in members:
            return None
    return tuple(counts)


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


def open_acquires(trace: Trace, members: frozenset[int]) -> list[int]:
    """Acquires in the set whose matching release is outside, by event id."""
    return sorted(
        eid
        for eid in members
        if trace.event(eid).is_acquire and trace.match[eid] not in members
    )


# ----------------------------------------------------------------------
# causal cones
# ----------------------------------------------------------------------


def _down_close(trace: Trace, seeds: Iterable[int]) -> set[int]:
    """Downward closure under thread order and observation edges."""
    seen: set[int] = set()
    stack = [e for e in seeds]
    while stack:
        eid = stack.pop()
        if eid in seen:
            continue
        seen.add(eid)
        ev = trace.event(eid)
        pos = trace.thread_pos[eid]
        if pos > 0:
            stack.append(trace.projection(ev.thread)[pos - 1].eid)
        if ev.observes:
            stack.append(trace.rf[eid])
    return seen


def cone(trace: Trace, events: Iterable[int]) -> Ideal:
    """The smallest ideal in which every given event is enabled.

    Union over the given events of the downward closure of each event's
    thread predecessor; an event opening its thread contributes nothing.
    """
    seeds = []
    for eid in events:
        pos = trace.thread_pos[eid]
        if pos > 0:
            seeds.append(trace.projection(trace.event(eid).thread)[pos - 1].eid)
    members = frozenset(_down_close(trace, seeds))
    prefix = _prefix_of(trace, members)
    assert prefix is not None  # closure of a downward-closed generator set
    return Ideal(trace, members, prefix)


def _topology_children(
    trace: Trace, root: str
) -> list[tuple[str, str]] | None:
    """(thread, parent) pairs in top-down order over root's component.

    Returns None when the component containing ``root`` has a cycle.
    """
    adj: dict[str, set[str]] = {root: set()}
    for a, b in trace_params(trace).topology:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    order: list[tuple[str, str]] = []
    seen = {root}
    queue = [root]
    edges_seen = 0
    while queue:
        cur = queue.pop(0)
        for nxt in sorted(adj.get(cur, ())):
            edges_seen += 1
            if nxt in seen:
                continue
            seen.add(nxt)
            order.append((nxt, cur))
            queue.append(nxt)
    # a connected component is a tree iff every edge was a discovery edge
    if edges_seen != 2 * len(order):
        return None
    return order


def lcone(trace: Trace, eid: int) -> Ideal:
    """The lock causal cone of an event over a tree communication topology.

    Grows per-thread prefixes top-down from the event's thread: first the
    event's own thread predecessors, then for each thread everything ordered
    below its parent's frontier, then whole critical sections whose acquire
    conflicts with one still open in the parent, until none remain.
    """
    root = trace.event(eid).thread
    order = _topology_children(trace, root)
    if order is None:
        raise TraceError(
            f"communication topology around {root} is not a tree"
        )
    trf = _full_trf(trace)
    prefix: dict[str, int] = {p: 0 for p in trace.threads}
    prefix[root] = trace.thread_pos[eid]

    def open_locks(thread: str) -> dict[str, int]:
        """lock -> acquire id for open criticals in the thread's prefix."""
        out: dict[str, int] = {}
        for ev in trace.projection(thread)[: prefix[thread]]:
            if ev.is_acquire:
                out[ev.loc] = ev.eid
            elif ev.is_release:
                del out[ev.loc]
        return out

    for p1, p2 in order:
        # pull everything ordered below the parent's last event
        if prefix[p2] > 0:
            e2 = trace.projection(p2)[prefix[p2] - 1].eid
            b1 = trace.thread_index[p1]
            prefix[p1] = max(prefix[p1], int(trf.pred[trf.index_of(e2), b1]) + 1)
        # close child criticals conflicting with open parent criticals
        parent_open = set(open_locks(p2))
        while True:
            mine = open_locks(p1)
            clashing = sorted(mine[l] for l in mine.keys() & parent_open)
            if not clashing:
                break
            rel = trace.match[clashing[0]]
            prefix[p1] = max(prefix[p1], trace.thread_pos[rel] + 1)

    members = frozenset(
        ev.eid
        for p in trace.threads
        for ev in trace.projection(p)[: prefix[p]]
    )
    pref = _prefix_of(trace, members)
    assert pref is not None  # guaranteed by the construction
    return Ideal(trace, members, pref)


# ----------------------------------------------------------------------
# feasibility and the canonical rf-poset
# ----------------------------------------------------------------------


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


def feasibility(ideal: Ideal) -> FeasibilityResult:
    """Classify an ideal and build its canonical rf-poset when feasible.

    Two conflicting acquires both left open make the ideal a dead end
    (``INFEASIBLE_LOCKS``).  Otherwise every closed critical section on a
    lock with an open acquire must be ordered before that open acquire; if
    those forced edges contradict the thread-reads-from order the ideal is
    ``INFEASIBLE``, else the forced edges define the canonical order.
    """
    trace = ideal.trace
    opens = open_acquires(trace, ideal.members)
    by_lock: dict[str, list[int]] = {}
    for eid in opens:
        lock = trace.event(eid).loc
        if lock in by_lock:
            return FeasibilityResult(Feasibility.INFEASIBLE_LOCKS)
        by_lock[lock] = [eid]

    order = compute_trf(trace, ideal.members)
    open_set = set(opens)
    try:
        for eid in sorted(ideal.members):
            ev = trace.event(eid)
            if not ev.is_acquire or eid in open_set:
                continue
            open_acq = by_lock.get(ev.loc)
            if open_acq:
                order.add_edge(trace.match[eid], open_acq[0])
    except CycleError:
        return FeasibilityResult(Feasibility.INFEASIBLE)

    rf = {
        eid: trace.rf[eid]
        for eid in ideal.members
        if trace.event(eid).observes
    }
    return FeasibilityResult(Feasibility.FEASIBLE, RfPoset(trace, order, rf))


# ----------------------------------------------------------------------
# candidate ideal set
# ----------------------------------------------------------------------


def candidate_ideal_set(trace: Trace, e1: int, e2: int) -> list[Ideal]:
    """Every ideal whose realizability can witness a race on the pair.

    Starts from the cone of the pair and repeatedly closes one open
    critical section (adding the matching release and whatever must come
    before it), keeping only variants that leave both query events out.
    Members are deduplicated by event set and returned in discovery order.
    """
    ev1, ev2 = trace.event(e1), trace.event(e2)
    if not (ev1.is_global_access and ev2.is_global_access):
        raise TraceError("race queries take two global reads/writes")
    if not conflicting(ev1, ev2):
        raise TraceError(f"events {e1} and {e2} do not conflict")

    seed = cone(trace, (e1, e2))
    out: list[Ideal] = [seed]
    seen = {seed.members}
    queue = [seed]
    while queue:
        y = queue.pop(0)
        for acq in open_acquires(trace, y.members):
            rel = trace.match[acq]
            grown = y.members | {rel} | cone(trace, (rel,)).members
            if e1 in grown or e2 in grown or grown in seen:
                continue
            seen.add(grown)
            prefix = _prefix_of(trace, grown)
            assert prefix is not None  # union of ideals plus a closure step
            nxt = Ideal(trace, grown, prefix)
            out.append(nxt)
            queue.append(nxt)
    return out
