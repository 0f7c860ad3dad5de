"""Shared test utilities.

Random valid traces (hypothesis strategies) and slow independent
recomputations of quantities the library derives, used as cross-checks.
"""

from __future__ import annotations

import itertools

import networkx as nx
from hypothesis import strategies as st

from racepred import CycleError, PartialOrder, RfPoset, Trace, conflicting
from racepred.oracle import _Replay
from racepred.trace_model import from_events


@st.composite
def trace_events(
    draw,
    max_events: int = 10,
    max_threads: int = 3,
    max_globals: int = 3,
    max_locks: int = 2,
    lock_bias: float = 0.3,
    max_nesting: int | None = None,
):
    """(thread, kind, loc) triples forming a valid trace.

    Events are drawn one at a time against replayed lock state, so mutual
    exclusion, non-reentrancy, and nesting hold by construction.  Open
    critical sections are closed at the end.  Reads of never-written globals
    are allowed (the parser's init synthesis covers them).  ``max_nesting``
    caps how many locks one thread holds at once (default: no cap beyond
    ``max_locks``).
    """
    k = draw(st.integers(1, max_threads))
    threads = [f"t{i}" for i in range(1, k + 1)]
    globals_ = [f"x{i}" for i in range(1, max_globals + 1)]
    locks = [f"l{i}" for i in range(1, max_locks + 1)]
    n = draw(st.integers(0, max_events))

    held: dict[str, str] = {}  # lock -> thread
    stacks: dict[str, list[str]] = {p: [] for p in threads}
    items: list[tuple[str, str, str]] = []
    for _ in range(n):
        p = draw(st.sampled_from(threads))
        choices = ["w", "r"]
        free = [l for l in locks if l not in held]
        if max_nesting is not None and len(stacks[p]) >= max_nesting:
            free = []
        if free and draw(st.floats(0, 1)) < lock_bias:
            choices = ["acq"]
        elif stacks[p] and draw(st.floats(0, 1)) < lock_bias:
            choices = ["rel"]
        kind = draw(st.sampled_from(choices))
        if kind in ("w", "r"):
            items.append((p, kind, draw(st.sampled_from(globals_))))
        elif kind == "acq":
            lock = draw(st.sampled_from(free))
            held[lock] = p
            stacks[p].append(lock)
            items.append((p, "acq", lock))
        else:
            lock = stacks[p].pop()
            del held[lock]
            items.append((p, "rel", lock))
    for p in threads:
        while stacks[p]:
            lock = stacks[p].pop()
            del held[lock]
            items.append((p, "rel", lock))
    return items


@st.composite
def traces(draw, **kwargs) -> Trace:
    return from_events(draw(trace_events(**kwargs)))


def trf_digraph(trace: Trace) -> nx.DiGraph:
    """TRF recomputed independently: networkx transitive closure of TO ∪ rf."""
    g = nx.DiGraph()
    g.add_nodes_from(ev.eid for ev in trace)
    for proj in trace.by_thread:
        for a, b in itertools.pairwise(proj):
            g.add_edge(a.eid, b.eid)
    for reader, writer in trace.rf.items():
        g.add_edge(writer, reader)
    return nx.transitive_closure_dag(g)


def realizable_sets(trace: Trace) -> set[frozenset[int]]:
    """Event sets of every correct reordering, by a memoised replay walk.

    Two interleavings that reach the same ``_Replay.key()`` (thread prefixes
    plus the last writer of each location) hold the same events and have the
    same continuations, so each key is expanded once.  The result equals
    ``{frozenset(w) for w in enumerate_correct_reorderings(trace)}``, which
    visits every interleaving instead.
    """
    replay = _Replay(trace)
    seen: set[tuple] = set()
    out: set[frozenset[int]] = set()

    def walk() -> None:
        key = replay.key()
        if key in seen:
            return
        seen.add(key)
        out.add(frozenset(replay.placed))
        for eid in replay.candidates():
            if not replay.can_append(eid):
                continue
            ev = trace.event(eid)
            prior = replay.last_writer.get(ev.loc) if ev.is_write else None
            replay.append(eid)
            walk()
            replay.undo(eid, prior)

    walk()
    return out


def closure_by_triplets(poset: RfPoset) -> PartialOrder | None:
    """The rf-poset closure recomputed one triplet at a time.

    Sweeps every (writer, observer, interferer) triplet of
    ``RfPoset.triplets()``, inserting each edge the closure conditions demand,
    until a sweep adds nothing.  Returns None when an edge closes a cycle.
    """
    order = poset.order.copy()
    triplets = list(poset.triplets())
    changed = True
    try:
        while changed:
            changed = False
            for w, r, x in triplets:
                if order.ordered(x, r) and not order.ordered(x, w):
                    changed |= order.add_edge(x, w)
                if order.ordered(w, x) and not order.ordered(r, x):
                    changed |= order.add_edge(r, x)
    except CycleError:
        return None
    return order


def down_close(trace: Trace, seeds) -> set[int]:
    """Downward closure under thread order and observation, event by event."""
    seen: set[int] = set()
    stack = list(seeds)
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


def cone_by_members(trace: Trace, events) -> frozenset[int]:
    """The cone of an event set as a member set: the closure of the events'
    thread predecessors."""
    seeds = []
    for eid in events:
        pos = trace.thread_pos[eid]
        if pos > 0:
            seeds.append(trace.projection(trace.event(eid).thread)[pos - 1].eid)
    return frozenset(down_close(trace, seeds))


def candidate_set_by_members(trace: Trace, e1: int, e2: int) -> list[frozenset[int]]:
    """The candidate ideal set recomputed as member sets, in discovery order.

    Breadth-first from the cone of the pair: each open acquire of an ideal
    (by event id) yields the union of the ideal, the matching release and
    the release's cone, kept if it holds neither query event and is new.
    """
    seed = cone_by_members(trace, (e1, e2))
    out = [seed]
    seen = {seed}
    queue = [seed]
    while queue:
        y = queue.pop(0)
        opens = sorted(
            e for e in y if trace.event(e).is_acquire and trace.match[e] not in y
        )
        for acq in opens:
            rel = trace.match[acq]
            grown = y | {rel} | cone_by_members(trace, (rel,))
            if e1 in grown or e2 in grown or grown in seen:
                continue
            seen.add(grown)
            out.append(grown)
            queue.append(grown)
    return out


def gamma_by_scan(trace: Trace) -> int:
    """Lock-nesting depth by direct replay of per-thread open acquires."""
    depth = {p: 0 for p in trace.threads}
    best = 0
    for ev in trace:
        if ev.is_acquire:
            depth[ev.thread] += 1
            best = max(best, depth[ev.thread])
        elif ev.is_release:
            depth[ev.thread] -= 1
    return best


def zeta_by_scan(trace: Trace) -> int:
    """Lock-dependence factor recomputed from scratch via networkx.

    Edge (a1, a2) between acquires iff a1 does not reach a2, a1 reaches
    match(a2), and match(a1) does not reach match(a2), all in TRF.  The
    factor is the largest ancestor set (self included) of any acquire.
    """
    closure = trf_digraph(trace)

    def reaches(u: int, v: int) -> bool:
        return u == v or closure.has_edge(u, v)

    acquires = [ev.eid for ev in trace if ev.is_acquire]
    dep = nx.DiGraph()
    dep.add_nodes_from(acquires)
    for a1, a2 in itertools.permutations(acquires, 2):
        m1, m2 = trace.match[a1], trace.match[a2]
        if not reaches(a1, a2) and reaches(a1, m2) and not reaches(m1, m2):
            dep.add_edge(a1, a2)
    best = 0
    for a in acquires:
        best = max(best, len(nx.ancestors(dep, a)) + 1)
    return best


def conflicting_pairs(trace: Trace, cross_thread: bool = True):
    """All conflicting global read/write pairs, smaller id first."""
    accesses = [ev for ev in trace if ev.is_global_access]
    for a, b in itertools.combinations(accesses, 2):
        if conflicting(a, b) and (not cross_thread or a.thread != b.thread):
            yield a.eid, b.eid
