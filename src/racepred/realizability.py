"""Witness search over rf-posets.

Three backends decide whether a feasible rf-poset — the canonical one that
:func:`~racepred.ideal_engine.feasibility` builds for a lock-feasible ideal —
can be completed into a real trace (a witness):

* :func:`realize_general` — breadth-first search over the ideal graph of
  the poset; works on any feasible ideal, exponential in the thread count
  only.  Each state carries one count per channel of the observations
  pending at it (writer placed, observer not), and a write or acquire
  extends it only when its channel's count is zero, so a step costs one
  copy of the counts, whatever the number of observations.  Every state is
  down-closed, so a block head is tested only against its needs: the
  predecessors that its block's previous event does not already imply,
  read once per universe from one vectorised mask over ``pred``.  A state
  is keyed by one int, its prefix counts in mixed radix, so the visited
  test hashes an int, and a state's new children are queued in event-id
  order.
* :func:`realize_tree` — when the poset's block conflict graph (one edge
  per pair of threads holding conflicting events) is a forest, the closure
  plus one top-down edge-resolution pass yields a witness directly, with no
  search.  The pass collects at most one edge per child event: from the
  latest conflicting parent event that the closure does not put above it,
  and only when the closure does not already put it below.  The trace's
  flat channel index keys every event by (channel, thread, position), so
  that parent event is the last key before the first one above the child
  event in the parent's run on its channel: one ``searchsorted`` per
  (child, parent) pair finds it for every child event.  The closed order
  linearizes under those edges
  (:meth:`~racepred.orders.PartialOrder.linearize`), with no closing.
* :func:`realize_bounded` — bounded-distance search: looks for a witness
  whose order flips at most a given number of conflicting write/acquire
  pairs relative to the observed trace.  On the closure's (channel, block)
  segment tables it orders the unordered writer pairs as the trace does,
  and puts each observer before the writers that then follow its source;
  both edge sets are read off the node's own order, and the node
  linearizes under them.  When they close a cycle it branches on the cross
  edges of the cycle that the stalled linearization met.
  :func:`reversal_pairs` measures a witness's distance with one merge per
  channel.

Each takes the poset and returns an event-id list that passes the
brute-force module's correct-reordering checks, or ``None`` when it finds no
witness (for the bounded backend, none within the budget — see its promise
contract).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from math import prod
from typing import Iterable

import numpy as np

from .orders import CycleError, PartialOrder, RfPoset, _Guards, closure
from .trace_model import Trace, _Table, _conflict_graph, _forest_order, _table

__all__ = [
    "realize_general",
    "realize_tree",
    "realize_bounded",
    "reversal_pairs",
    "reversal_count",
]


# ---------------------------------------------------------------------------
# general backend: ideal-graph search
# ---------------------------------------------------------------------------


def realize_general(p: RfPoset, stats: dict | None = None) -> list[int] | None:
    """Search the ideal graph of ``p`` for a witness.

    States are per-thread prefix-length tuples, each queued with one count
    per channel: the observations pending at it, writer placed and observer
    not.  Placing a writer adds its observers in the universe to its
    channel's count, and placing an observer takes one off, since the order
    puts every writer before its observers.  An event extends a state when
    all its order-predecessors are inside and, for a write or acquire, its
    channel's count is zero.  A state is down-closed, so it holds whatever
    the head's block predecessor needs, and the head is tested only against
    its own needs (:func:`_needs`): the ``pred`` entries that exceed its
    block predecessor's.  A step costs one test per need plus one copy of
    the counts, not O(k) per head.  The step table is gathered over the
    universe's rows from the trace's table, with no loop over events: the
    channel from ``chan``, renumbered densely over the universe, the change
    from one ``bincount`` of the universe's ``source`` entries, the wait
    from ``writes_like``, and the needs from one mask over ``pred``.

    A state is keyed by its prefix counts read as one mixed-radix int, so a
    child's key is its parent's plus its block's stride, and the visited
    test and the goal test compare ints; a child's prefix tuple is built
    only when it is new.  Each key maps to the event that first reached it,
    so the witness is read back from the goal by taking off one stride per
    event.  A dequeued state tests its block heads in block order and
    queues its new children sorted by event id; its children are distinct
    states, so that is the discovery order of sorting its whole frontier
    by event id.  Returns the event sequence of the first path reaching the
    full universe, or ``None``.
    """
    order = p.order
    blocks = order.blocks
    k = len(blocks)
    starts = order._starts

    table, ids = _table(p.trace), order._ids
    chan, source = table.chan[ids], table.source[ids]
    # per row: its channel, numbered densely over the universe; the change
    # to that channel's count, a writer's observers in the universe and -1
    # for an observer; whether it must wait for the count to reach zero; and
    # its needs, the predecessors its block's previous row does not imply
    used = np.bincount(chan, minlength=len(table.channels)) > 0
    delta = np.bincount(source, minlength=len(table.source))[ids] - (source > 0)
    dense = (used.cumsum() - 1)[chan].tolist()
    step = [*zip(dense, delta.tolist(), table.writes_like[ids].tolist(), _needs(order))]
    steps = [step[starts[b] : starts[b + 1]] for b in range(k)]

    # a state's key is its prefix counts in mixed radix: block b's stride is
    # the product of len(block c) + 1 over c < b, so placing an event of
    # block b adds stride[b], and the full universe's key is the largest
    lengths = [len(block) for block in blocks]
    stride = [prod(n + 1 for n in lengths[:b]) for b in range(k)]
    goal = prod(n + 1 for n in lengths) - 1
    placed: dict[int, int | None] = {0: None}  # key -> the event that first reached it
    queue = deque([(0, (0,) * k, (0,) * int(used.sum()))])
    while queue:
        key, y, pending = queue.popleft()
        if key == goal:
            break
        # the new children, at most one per block, queued in event-id order
        children = []
        for b in range(k):
            at = y[b]
            if at == lengths[b]:
                continue
            c, delta, waits, need = steps[b][at]
            if waits and pending[c]:
                continue
            for d, q in need:
                if y[d] <= q:
                    break
            else:
                key2 = key + stride[b]
                if key2 not in placed:
                    children.append((blocks[b][at], b, key2, c, delta))
        children.sort()
        for e, b, key2, c, delta in children:
            placed[key2] = e
            y2 = list(y)
            y2[b] += 1
            p2 = pending[:c] + (pending[c] + delta,) + pending[c + 1 :] if delta else pending
            queue.append((key2, tuple(y2), p2))

    if stats is not None:
        stats["search_nodes"] = len(placed)
    if goal not in placed:
        return None
    out: list[int] = []
    key = goal
    while key:
        e = placed[key]
        out.append(e)
        key -= stride[order.location(e)[0]]
    out.reverse()
    return out


def _needs(order: PartialOrder) -> list[tuple[tuple[int, int], ...]]:
    """Per universe row, the ``(block, position)`` entries of its ``pred``
    row that exceed the row above it in its block: every non-negative entry
    for a block's first row, and never the row's own block.

    A state that holds a block's previous row holds that row's predecessors
    too, so a block head is enabled exactly when the state holds its needs.
    """
    pred = order.pred
    above = np.full_like(pred, -1)
    above[1:] = pred[:-1]
    above[order._pos == 0] = -1  # a block's first row is compared with -1
    need = pred > above
    need[np.arange(order.n), order._block] = False
    ends = need.sum(1).cumsum().tolist()
    pairs = [*zip(need.nonzero()[1].tolist(), pred[need].tolist())]
    return [tuple(pairs[a:b]) for a, b in zip([0, *ends], ends)]


# ---------------------------------------------------------------------------
# tree backend: closure plus top-down resolution
# ---------------------------------------------------------------------------


def realize_tree(p: RfPoset, stats: dict | None = None) -> list[int] | None:
    """Realize a poset whose block conflict graph is a forest.

    Blocks conflict when they hold conflicting events (one channel, at least
    one write or acquire).  The forest is walked breadth-first from each
    lowest-index root; after the closure, every conflicting pair between a
    parent and a child block that the closure left unordered is resolved
    parent-first, at most one edge per child event, and the closed order
    linearizes under those edges to a witness.  ``stats`` receives
    ``closure_edges`` (``None`` when the closure is contradictory) and
    ``resolution_edges``, the edges that the closed order did not already
    imply.  Returns ``None`` exactly when the closure is contradictory.

    Raises :class:`ValueError` when the block conflict graph has a cycle.
    """
    table = _table(p.trace)
    blocks = p.order.blocks
    lengths = [len(block) for block in blocks]
    children_order = _forest_order(_conflict_graph(table, lengths), range(len(blocks)))
    if children_order is None:
        raise ValueError("the block conflict graph of the poset has a cycle")

    closed = closure(p)
    if closed is None:
        if stats is not None:
            stats["closure_edges"] = None
        return None
    fixed = closed.order
    if stats is not None:
        stats["closure_edges"] = len(fixed.edges) - len(p.order.edges)

    edges = _resolve(table, fixed, children_order)
    if stats is not None:
        stats["resolution_edges"] = len(edges)
    return fixed.linearize(edges)


def _resolve(
    table: _Table, fixed: PartialOrder, children_order: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The edges that put every conflicting (parent, child) pair ``fixed``
    leaves unordered parent first, none of them implied by ``fixed``.

    The parent events that ``fixed`` does not put above a child event e2 are
    a program-order prefix: they end where the parent's ``pred`` column for
    the child's block first reaches e2's position, a column that is
    non-decreasing down the parent, so one ``searchsorted`` finds every
    child event's end.  Only the latest of them on e2's channel that
    conflicts with e2 needs an edge to e2, and only when ``fixed`` does not
    put it below e2; program order implies the rest.  It is the last key
    before that end in the parent's run on e2's channel, among all events
    for a write or acquire and among writes and acquires otherwise, so one
    ``searchsorted`` per array finds it for every child event.  Every edge
    is read from ``fixed``, and each has its own target.
    """
    k, span, starts, ids = fixed.k, table.span, fixed._starts, fixed._ids
    users, writers = table.users, table.writers
    edges = []
    for child, par in children_order:
        # the child's events in the universe, by channel, then position
        keys = users[(users // span % k == child) & (users % span < len(fixed.blocks[child]))]
        segment, p2 = keys // span, keys % span
        e2 = ids[starts[child] + p2]
        above = fixed.pred[starts[par] : starts[par + 1], child].searchsorted(p2)
        below = fixed.pred[starts[child] + p2, par]
        # the parent's run on the channel up to the first event above e2, and
        # its last key there, on users for a write or acquire and on writers
        # otherwise: a read or a release conflicts only with writes and acquires
        base = (segment + par - child) * span
        end = base + above
        wl = table.writes_like[e2]
        last = np.where(wl, users[users.searchsorted(end) - 1], writers[writers.searchsorted(end) - 1])
        # only when fixed does not already put it below the child event
        take = last > base + below
        edges += zip(ids[starts[par] + last[take] - base[take]].tolist(), e2[take].tolist())
    return edges


# ---------------------------------------------------------------------------
# bounded backend: distance-limited search
# ---------------------------------------------------------------------------


def reversal_pairs(trace: Trace, witness: list[int]) -> list[tuple[int, int]]:
    """Conflicting write/acquire pairs the witness flips against the trace.

    Pairs are reported as (earlier, later) in original trace order, sorted.
    Each channel's writers are walked in trace order against the sorted
    witness positions of those walked before: the positions after a writer
    v's own are the earlier writers that v overtakes.
    """
    posn = {e: i for i, e in enumerate(witness)}
    table = _table(trace)
    out = []
    evs = np.array(sorted(witness), dtype=np.int64)
    evs = evs[table.writes_like[evs]]
    # per channel, the sorted witness positions of its writers walked so far;
    # same channel and both write-like means every pair conflicts
    placed: dict[int, list[int]] = {}
    for v, c in zip(evs.tolist(), table.chan[evs].tolist()):
        at, run = posn[v], placed.setdefault(c, [])
        out += [(witness[i], v) for i in run[bisect_right(run, at) :]]
        insort(run, at)
    return sorted(out)


def reversal_count(trace: Trace, witness: list[int]) -> int:
    """Distance between the witness and the trace: flipped pairs."""
    return len(reversal_pairs(trace, witness))


def realize_bounded(
    p: RfPoset, budget: int, stats: dict | None = None
) -> list[int] | None:
    """Find a witness for ``p`` at trace distance at most ``budget``.

    Promise semantics: ``None`` is definitive only when ``p`` has no
    witness at all; when every witness flips more than ``budget`` pairs the
    answer may go either way, but a returned witness always stays within
    the budget.  ``stats`` receives ``branches`` (flips tried) and
    ``reversals`` (the witness's flipped pairs).

    A search node orders the writer pairs its order leaves unordered as the
    trace does (:meth:`~racepred.orders._Guards.replay`); then condition 1
    follows from condition 2, and condition-2 edges demand no further ones,
    so the node linearizes under those two edge sets, both read off its own
    order.  When they close a cycle and budget is left, it branches on flips
    of the cross edges :meth:`~racepred.orders.PartialOrder.linearize`
    raises with, each branch a copy with one flip more.  Each edge ends at a
    writer; one from a writer flips, one from an observer flips the writer
    under the observer's source.

    No flip is already in the node's order, so each branch adds an edge.  A
    replay edge u -> v joins writers the order leaves unordered, so v < u is
    absent.  A condition-2 edge r -> w' takes w' from the writers that are
    above r's source w or not below it, so w' < w is absent as well.

    Raises :class:`ValueError` on a negative budget.
    """
    if budget < 0:
        raise ValueError("reversal budget must be non-negative")
    trace, guards = p.trace, _Guards(p)
    branches = 0

    def search(q: PartialOrder, left: int) -> tuple[list[int], list[tuple[int, int]]] | None:
        nonlocal branches
        edges = guards.replay(q) + guards.unprotected_after_replay(q)
        try:
            w = q.linearize(edges)
        except CycleError as exc:
            if left == 0:
                return None
            # an observer's edge flips its source; a writer is no key of rf
            flips = dict.fromkeys((e2, trace.rf.get(e1, e1)) for e1, e2 in exc.cross)
            for flip in flips:
                q2 = q.copy()
                try:
                    q2.add_edge(*flip)
                except CycleError:
                    continue
                branches += 1
                found = search(q2, left - 1)
                if found is not None:
                    return found
            return None
        flips = reversal_pairs(trace, w)
        return (w, flips) if len(flips) <= budget else None

    found = search(p.order, budget)
    # search refers to itself; left alone, that cycle would keep the guards
    # and the trace alive until the next full garbage collection
    del search
    if stats is not None:
        stats["branches"] = branches
        stats["reversals"] = [] if found is None else found[1]
    return None if found is None else found[0]
