"""Shared test utilities.

Random valid traces (hypothesis strategies) and slow independent
recomputations of quantities the library derives, used as cross-checks.
"""

from __future__ import annotations

import itertools
import os
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Iterable

import networkx as nx
import numpy as np
from hypothesis import strategies as st

import racepred
from racepred import CycleError, PartialOrder, RfPoset, Trace, conflicting, reversal_pairs
from racepred.oracle import _Replay
from racepred.realizability import _shrink_cross
from racepred.trace_model import from_events


def child_env(**extra) -> dict[str, str]:
    """Environment for a Python child process that imports racepred.

    ``PYTHONPATH`` starts with the directory holding the package these tests
    imported, so the child runs the same code from a checkout as from an
    install.
    """
    root = str(Path(racepred.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


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


@st.composite
def lock_handoff_traces(draw) -> Trace:
    """Traces that hand one lock from a query thread to a third thread.

    A thread accesses x inside a section on lock l; after it, a third thread
    writes y inside its own section on l; then the second thread reads y and
    accesses x.  Up to two random global accesses by any of four threads sit
    between the steps.  When the data flow survives them, the cone of the two
    x accesses holds l open twice, once in a query thread: a shape that
    :func:`trace_events` almost never draws.
    """
    threads = ["t1", "t2", "t3", "t4"]
    q1, hand, q2 = draw(st.permutations(threads[:3]))
    k1, k2 = draw(st.sampled_from([("w", "w"), ("w", "r"), ("r", "w")]))
    access = st.tuples(st.sampled_from(threads), st.sampled_from(("w", "r")), st.sampled_from("xyz"))
    steps = [
        (q1, "acq", "l"), (q1, k1, "x"), (q1, "rel", "l"), (hand, "acq", "l"),
        (hand, "w", "y"), (hand, "rel", "l"), (q2, "r", "y"), (q2, k2, "x"),
    ]
    items = []
    for step in steps:
        items += draw(st.lists(access, max_size=2))
        items.append(step)
    return from_events(items)


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


def trf_by_replay(trace: Trace, members=None) -> PartialOrder:
    """TRF recomputed read by read: program order over the member set, then
    one ``add_edge`` per cross-thread read in trace order, so ``edges`` holds
    exactly the reads whose writer was not already below them."""
    keep = None if members is None else set(members)
    order = PartialOrder(
        [[ev.eid for ev in proj if keep is None or ev.eid in keep] for proj in trace.by_thread]
    )
    for ev in trace.events:
        if ev.is_read and (keep is None or ev.eid in keep):
            w = trace.rf[ev.eid]
            if trace.event(w).thread != ev.thread:
                order.add_edge(w, ev.eid)
    return order


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


def triplets(poset: RfPoset) -> Iterable[tuple[int, int, int]]:
    """All (writer, observer, interfering-writer) combinations of an rf-poset."""
    writers: dict[str, list[int]] = {}
    for eid in poset.order.events():
        ev = poset.trace.event(eid)
        if ev.writes_like:
            writers.setdefault(ev.loc, []).append(eid)
    for r, w in poset.rf.items():
        for x in writers.get(poset.trace.event(r).loc, ()):
            if x != w:
                yield w, r, x


def closure_by_triplets(poset: RfPoset) -> PartialOrder | None:
    """The rf-poset closure recomputed one triplet at a time.

    Sweeps every (writer, observer, interferer) triplet of :func:`triplets`,
    inserting each edge the closure conditions demand, until a sweep adds
    nothing.  Returns None when an edge closes a cycle.
    """
    order = poset.order.copy()
    trips = list(triplets(poset))
    changed = True
    try:
        while changed:
            changed = False
            for w, r, x in trips:
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


def open_acquires_by_members(trace: Trace, members) -> list[int]:
    """Acquires in the set whose matching release is outside, by event id."""
    return sorted(
        e for e in members if trace.event(e).is_acquire and trace.match[e] not in members
    )


def lock_open_twice(trace: Trace, opens) -> str | None:
    """The first lock, in the given order, that two open acquires hold."""
    held = set()
    for a in opens:
        lock = trace.event(a).loc
        if lock in held:
            return lock
        held.add(lock)
    return None


def _member_bfs(trace: Trace, e1: int, e2: int, pruned: bool) -> list[frozenset[int]]:
    seed = cone_by_members(trace, (e1, e2))
    out = [seed]
    seen = {seed}
    queue = [seed]
    while queue:
        y = queue.pop(0)
        opens = open_acquires_by_members(trace, y)
        clash = lock_open_twice(trace, opens) if pruned else None
        for acq in opens:
            if clash is not None and trace.event(acq).loc != clash:
                continue
            rel = trace.match[acq]
            grown = y | {rel} | cone_by_members(trace, (rel,))
            if e1 in grown or e2 in grown or grown in seen:
                continue
            seen.add(grown)
            out.append(grown)
            queue.append(grown)
    return out


def full_candidate_set_by_members(
    trace: Trace, e1: int, e2: int
) -> list[frozenset[int]]:
    """Every ideal the unpruned sweep reaches, as member sets, in discovery order.

    Breadth-first from the cone of the pair: each open acquire of an ideal
    (by event id) yields the union of the ideal, the matching release and
    the release's cone, kept if it holds neither query event and is new.
    """
    return _member_bfs(trace, e1, e2, pruned=False)


def candidate_set_by_members(trace: Trace, e1: int, e2: int) -> list[frozenset[int]]:
    """The candidate ideal set recomputed as member sets, in discovery order.

    As :func:`full_candidate_set_by_members`, except that an ideal holding
    one lock open twice grows only through the open acquires of the first
    such lock, its open acquires read in event-id order.
    """
    return _member_bfs(trace, e1, e2, pruned=True)


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


def conflict_edges_by_groups(groups) -> set[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of event groups holding conflicting
    events, found per location from the groups' own events."""
    users: dict[str, set[int]] = {}
    writers: dict[str, set[int]] = {}
    for i, group in enumerate(groups):
        for ev in group:
            users.setdefault(ev.loc, set()).add(i)
            if ev.writes_like:
                writers.setdefault(ev.loc, set()).add(i)
    return {
        (min(i, j), max(i, j))
        for loc, ws in writers.items()
        for i in ws
        for j in users[loc]
        if i != j
    }


def add_edge_by_mask(order: PartialOrder, u: int, v: int) -> bool:
    """``order.add_edge(u, v)`` as a boolean mask over all rows: every row
    whose ``pred`` reaches v's position in v's block, and v itself, takes
    the max with u's predecessors.  The same return value and the same
    ``CycleError``."""
    if u == v:
        raise CycleError((u, v))
    (bu, pu), (bv, pv) = order.location(u), order.location(v)
    iu, iv = order.index_of(u), order.index_of(v)
    if order.pred[iv, bu] >= pu:
        return False
    if order.pred[iu, bv] >= pv:
        raise CycleError((u, v))
    above = order.pred[:, bv] >= pv
    above[iv] = True
    down = order.pred[iu].copy()
    down[bu] = pu
    order.pred[above] = np.maximum(order.pred[above], down)
    order.edges.append((u, v))
    return True


def resolve_by_pairs(trace: Trace, fixed: PartialOrder, children_order) -> PartialOrder:
    """``fixed`` with every conflicting (parent, child) event pair that it
    leaves unordered put parent first, one ``add_edge`` per pair: the
    pairwise form of the tree backend's resolution, grouping each block's
    events by location from the trace's own events."""
    by_loc = [{} for _ in fixed.blocks]
    for groups, block in zip(by_loc, fixed.blocks):
        for e in block:
            groups.setdefault(trace.event(e).loc, []).append(e)
    q = fixed.copy()
    for child, par in children_order:
        for loc, evs in by_loc[child].items():
            for e1, e2 in itertools.product(by_loc[par].get(loc, ()), evs):
                if conflicting(trace.event(e1), trace.event(e2)) and not fixed.ordered(e2, e1):
                    q.add_edge(e1, e2)
    return q


def reversal_pairs_by_combinations(trace: Trace, witness) -> list[tuple[int, int]]:
    """Every same-channel write/acquire pair, (earlier, later) in trace
    order, that ``witness`` places the other way round, tested pair by
    pair; events missing from ``witness`` are skipped.  Sorted."""
    posn = {e: i for i, e in enumerate(witness)}
    by_loc: dict[str, list[int]] = {}
    for ev in trace.events:
        if ev.writes_like and ev.eid in posn:
            by_loc.setdefault(ev.loc, []).append(ev.eid)
    return sorted(
        (u, v)
        for evs in by_loc.values()
        for u, v in itertools.combinations(evs, 2)
        if posn[v] < posn[u]
    )


def conflicting_pairs(trace: Trace, cross_thread: bool = True):
    """All conflicting global read/write pairs, smaller id first."""
    accesses = [ev for ev in trace if ev.is_global_access]
    for a, b in itertools.combinations(accesses, 2):
        if conflicting(a, b) and (not cross_thread or a.thread != b.thread):
            yield a.eid, b.eid


def replay_by_pairs(trace: Trace, q: PartialOrder, g: PartialOrder) -> None:
    """Add to ``g`` every same-channel write/acquire pair that ``q`` leaves
    unordered, oriented as in the trace, one pair at a time in sorted order.

    May raise :class:`CycleError`; edges added before the failure stay.
    """
    by_channel: dict[str, list[int]] = {}
    for e in sorted(q.events()):
        ev = trace.event(e)
        if ev.writes_like:
            by_channel.setdefault(ev.loc, []).append(e)
    for u, v in sorted(
        pair for evs in by_channel.values() for pair in itertools.combinations(evs, 2)
    ):
        if q.unordered(u, v):
            g.add_edge(u, v)


def bounded_by_pairs(p: RfPoset, budget: int, stats: dict | None = None) -> list[int] | None:
    """The bounded search with an all-pairs trace replay and a per-observer,
    per-block read extension.

    Same branching as :func:`racepred.realize_bounded`, and the same
    ``branches`` count in ``stats``.  The replay orders every unordered
    same-channel writer pair (quadratic per channel); the read extension
    then places each observer between the same-channel writers nearest its
    source, one block at a time, found by bisection over the block's writers.
    """
    trace, rf = p.trace, p.rf
    writers: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
    for b, block in enumerate(p.order.blocks):
        for pos, e in enumerate(block):
            ev = trace.event(e)
            if ev.writes_like:
                plist, elist = writers.setdefault((ev.loc, b), ([], []))
                plist.append(pos)
                elist.append(e)
    branches = 0

    def extend_reads(g: PartialOrder) -> None:
        # the replay ordered every same-channel writer pair, so the edges
        # added here move no writer across a source and a stale succ finds
        # the same writers
        succ = g.succ
        for r in sorted(rf):
            i_s = g.index_of(rf[r])
            for b in range(g.k):
                got = writers.get((trace.event(r).loc, b))
                if got is None:
                    continue
                plist, elist = got
                j_lo = bisect_right(plist, int(g.pred[i_s, b])) - 1
                j_hi = bisect_left(plist, int(succ[i_s, b]))
                assert all(elist[j] == rf[r] for j in range(j_lo + 1, j_hi))
                if j_lo >= 0:
                    g.add_edge(elist[j_lo], r)
                if j_hi < len(plist):
                    g.add_edge(r, elist[j_hi])

    def search(q: PartialOrder, left: int) -> list[int] | None:
        nonlocal branches
        g = q.copy()
        try:
            replay_by_pairs(trace, q, g)
            extend_reads(g)
        except CycleError as exc:
            if left == 0:
                return None
            u0, v0 = exc.edge
            cycle = [(u0, v0)] + g.path_between(v0, u0)
            cross = _shrink_cross([e for e in cycle if not q.ordered(*e)], q)
            flips: list[tuple[int, int]] = []
            for e1, e2 in cross:
                wl1, wl2 = trace.event(e1).writes_like, trace.event(e2).writes_like
                assert wl1 or wl2
                flip = (e2, e1) if wl1 and wl2 else (rf[e2], e1) if wl1 else (e2, rf[e1])
                if flip not in flips:
                    flips.append(flip)
            for flip in flips:
                if q.ordered(*flip):
                    continue
                q2 = q.copy()
                try:
                    q2.add_edge(*flip)
                except CycleError:
                    continue
                branches += 1
                w = search(q2, left - 1)
                if w is not None:
                    return w
            return None
        w = g.linearize()
        return w if len(reversal_pairs(trace, w)) <= budget else None

    w = search(p.order, budget)
    if stats is not None:
        stats["branches"] = branches
    return w
