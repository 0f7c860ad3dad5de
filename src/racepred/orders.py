"""Partial orders over trace events, and observation-closed refinements.

Every order handled here refines per-thread program order, so the universe
splits into one chain ("block") per thread.  That makes a compact reachability
representation possible: for each event we keep, per block, the latest
predecessor position ``pred``, and nothing else.  Order queries are O(1)
array lookups.  Down a block every ``pred`` column is non-decreasing, so
the events of block c above x form one suffix of c's rows: they start at
the first row whose ``pred`` entry for x's block reaches x's position, so a
caller finds them by one ``searchsorted`` over the rows it needs.  An
inserted edge u -> v raises only the rows above v that are not yet above u
(a row above u already holds u's down-set): per block, the run between
those two suffixes, found by two bisections; :meth:`PartialOrder.add_edge`
updates only those runs.  :func:`closure` inserts each round's edges latest
target first, so the rows above a later target have taken their source's
predecessors before an earlier target's edge reaches them.
:meth:`PartialOrder.linearize` takes a last set of edges without closing
them: a linear extension needs only each event's direct predecessors, so it
writes each edge into its target's row of a copy of ``pred`` and places
events from that, the longest prefix that follows event-id order in one
vectorised step and the rest from a heap.  When it stalls, following the
waits of the unplaced block heads closes a cycle, whose cross edges its
:class:`CycleError` carries.

The module also provides:

* :func:`compute_trf` — program order extended with observation edges
  (write-to-read, acquire-to-release), transitively closed, over a trace
  ideal given by its prefix vector, as a fresh mutable order read from the
  trace's down-set table, ``trace_model._table``, the one stored form of the TRF;
* :class:`RfPoset` — a trace and a partial order over one of its ideals,
  the object the closure operates on: it observes as the trace does, so its
  observers and their writers are read off the trace's table;
* :func:`closure` — the least refinement in which every observed writer is
  protected from interference, or ``None`` when that forces a cycle.

An event's conflict channel is its location: a trace never uses one
location both as a global and as a lock, so globals and locks never share a
channel.  The closure conditions are checked per (channel, block), not per
writer.  For an observer r reading from w, the writers of r's channel in
block b that sit before r but not before w are exactly those at positions
``(pred[w, b], pred[r, b]]``, and those after w but not after r run from
the first writer above w to the first writer above r.  Program order already
orders each such run, so only its end nearest to the pair needs an explicit
edge: the latest writer before w, or r before the earliest writer.  The
writers are the trace's flat writer keys, sorted by (channel, block,
position), cut at the universe's prefix vector: a universe is a trace
ideal, so its part of each (channel, block) run is a prefix, and one mask
over the keys takes it.  The observers, in event-id order, are one mask
over the trace's ``source`` array (each event's observed writer, by event
id), and one gather of it gives their writers.  A closure round is one
fused pass over every (observer, block) slot, on row indices: one gather
of the observers' and writers' ``pred`` entries and one ``searchsorted``
over the positions give the runs before, and one gather of the writers' ``pred`` rows into
sorted runs and one ``searchsorted`` over them the first writers above.
The gather indices and the queries depend only on the universe, so they
are built once, with the guards, and the bounded search's condition-2 read
shares the round's queries.  The guards hold rows only: the demanded edges
come out as row pairs, and the closure inserts them by row; event ids are
read off the order only for the edges the bounded search takes.  A round
whose first inserted edge stays unordered raises, so a faulty insert
cannot make the closure loop.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .trace_model import Trace, _held, _is_closed, _prefix_keys, _table

__all__ = [
    "CycleError",
    "PartialOrder",
    "RfPoset",
    "compute_trf",
    "is_closed",
    "closure",
]


_NO_ID = np.iinfo(np.int64).max  # above every event id


class CycleError(Exception):
    """Adding edges would contradict the existing order.

    ``cross`` holds the added edges of one cycle in cycle order, the order
    leading from each head to the next tail; ``edge`` is the first.
    """

    def __init__(self, *cross: tuple[int, int]):
        super().__init__("cycle through " + ", ".join(f"{u} -> {v}" for u, v in cross))
        self.cross = list(cross)
        self.edge = cross[0]


class PartialOrder:
    """A strict partial order over per-thread chains of event ids.

    ``blocks`` fixes the universe: one tuple of event ids per thread, each in
    program order.  The order always contains the block chains; edges added
    later are transitively closed incrementally.
    """

    __slots__ = (
        "blocks", "n", "k", "_eids", "_idx", "_block", "_pos", "_loc", "_starts", "_ids",
        "_first", "pred", "edges",
    )

    def __init__(self, blocks: Sequence[Sequence[int]]):
        self.blocks: tuple[tuple[int, ...], ...] = tuple(tuple(b) for b in blocks)
        self.k = len(self.blocks)
        self._eids: list[int] = [e for b in self.blocks for e in b]
        self.n = len(self._eids)
        self._idx: dict[int, int] = {e: i for i, e in enumerate(self._eids)}
        if len(self._idx) != self.n:
            raise ValueError("duplicate event id across blocks")
        lengths = [len(b) for b in self.blocks]
        self._block = np.repeat(np.arange(self.k, dtype=np.int64), lengths)
        #: each block's first row, then n
        self._starts: list[int] = [0, *accumulate(lengths)]
        # a row's position is its distance from the first row of its block
        self._pos = np.arange(self.n, dtype=np.int64) - np.searchsorted(self._block, self._block)
        #: each row's (block, position), for scalar reads
        self._loc: list[tuple[int, int]] = list(zip(self._block.tolist(), self._pos.tolist()))
        #: for :meth:`linearize`: each row's event id as an array, and each
        #: block's first row
        self._ids = np.array(self._eids, dtype=np.int64)
        self._first = np.array(self._starts[:-1], dtype=np.int64)
        # pred[x, b]: greatest position in block b strictly below x (or -1)
        self.pred = np.full((self.n, self.k), -1, dtype=np.int64)
        self.pred[np.arange(self.n), self._block] = self._pos - 1
        #: the (u, v) event-id pairs :meth:`add_edge` inserted, in order
        self.edges: list[tuple[int, int]] = []

    # -- basics ---------------------------------------------------------

    def copy(self) -> "PartialOrder":
        clone = object.__new__(PartialOrder)
        for name in self.__slots__:  # the universe's layout is shared
            setattr(clone, name, getattr(self, name))
        clone.pred = self.pred.copy()
        clone.edges = list(self.edges)
        return clone

    def __contains__(self, eid: int) -> bool:
        return eid in self._idx

    def index_of(self, eid: int) -> int:
        return self._idx[eid]

    def location(self, eid: int) -> tuple[int, int]:
        """(block, position) of an event."""
        return self._loc[self._idx[eid]]

    def events(self) -> Iterable[int]:
        return iter(self._eids)

    # -- queries ---------------------------------------------------------

    def ordered(self, u: int, v: int) -> bool:
        """Strictly ordered u < v."""
        bu, pu = self._loc[self._idx[u]]
        return bool(self.pred[self._idx[v], bu] >= pu)

    def unordered(self, u: int, v: int) -> bool:
        return u != v and not self.ordered(u, v) and not self.ordered(v, u)

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Insert u < v and transitively close.

        Returns False when the pair was already ordered.  Raises
        :class:`CycleError` when v < u already holds.
        """
        return self._insert(self._idx[u], self._idx[v])

    def _insert(self, iu: int, iv: int) -> bool:
        """:meth:`add_edge` on the events at rows ``iu`` and ``iv``.

        The rows that gain u's predecessors are those above v that are not
        yet above u: a row above u already holds u's down-set, since the
        order is transitively closed.  In v's own block the rows above v
        start at v, in any other block at the first row whose ``pred``
        column for v's block reaches v's position; the rows above u start
        at the first whose column for u's block reaches u's position.  So
        each block updates one run of rows, found by two bisections, and
        u's own block none: a row there above v is above u, or v < u.
        """
        u, v = self._eids[iu], self._eids[iv]
        if iu == iv:
            raise CycleError((u, v))
        bu, pu = self._loc[iu]
        bv, pv = self._loc[iv]
        pred = self.pred
        if pred[iv, bu] >= pu:
            return False
        if pred[iu, bv] >= pv:
            raise CycleError((u, v))

        down = pred[iu].copy()  # u's predecessors, u included
        down[bu] = pu
        starts = self._starts
        for b in range(self.k):
            if b == bu:
                continue
            start, end = starts[b], starts[b + 1]
            lo = iv if b == bv else start + bisect_left(pred[start:end, bv], pv)
            hi = start + bisect_left(pred[start:end, bu], pu)
            if lo < hi:
                rows = pred[lo:hi]
                np.maximum(rows, down, out=rows)
        self.edges.append((u, v))
        return True

    # -- derived structure -------------------------------------------------

    def linearize(self, edges: Iterable[tuple[int, int]] = ()) -> list[int]:
        """The lexicographically least linear extension of the order plus
        ``edges``; the order itself is left as it is.

        Raises :class:`CycleError` when ``edges`` close a cycle.  Its
        ``cross`` lists, in cycle order, edges of ``edges`` that close a
        cycle with the order alone, no two with tails in one block, starting
        at the one latest in ``edges`` (see :meth:`_stuck_cycle`).

        That needs only each event's direct predecessors, so each edge
        u -> v just raises v's entry for u's block in a copy of ``pred``.
        An event is late when its latest predecessor in some block has an
        id at least its own.  Every event below the least late id has only
        predecessors of smaller id, so the least extension places those
        first, in id order, and one vectorised test finds them.  From there
        each step places the smallest-id block head whose predecessors
        are all placed: its ``pred`` row is below the placed count in every
        block.  Ready heads wait in a heap keyed by event id.  A head that is
        not ready waits on the first block still holding a predecessor, and
        is tested again, from the next block on, only when that block's
        placed count reaches the one it needs, so each head's row is read
        once in all: O(n·k) tests and O(n log k) heap steps.
        """
        edges = list(edges)
        pred = self.pred
        if edges:
            iu = np.array([self._idx[u] for u, _ in edges], dtype=np.int64)
            iv = np.array([self._idx[v] for _, v in edges], dtype=np.int64)
            pred = pred.copy()
            np.maximum.at(pred, (iv, self._block[iu]), self._pos[iu])
        ids = self._ids
        late = ((ids.take(pred + self._first) >= ids[:, None]) & (pred >= 0)).any(1)
        stop = int(ids[late].min(initial=_NO_ID))  # the least late id
        out = np.sort(ids[ids < stop]).tolist()
        if len(out) == self.n:
            return out
        rows = pred.tolist()
        blocks, starts, k = self.blocks, self._starts, self.k
        # the events below the least late id form a prefix of each block
        placed = np.bincount(self._block[ids < stop], minlength=k).tolist()
        # (c, m): the blocks whose head waits for m events of block c placed
        waiting: dict[tuple[int, int], list[int]] = {}
        ready: list[tuple[int, int]] = []

        def offer(b: int, c: int) -> None:
            """Queue block b's head, or make it wait; blocks below c are done."""
            row = rows[starts[b] + placed[b]]
            for c in range(c, k):
                if row[c] >= placed[c]:
                    waiting.setdefault((c, row[c] + 1), []).append(b)
                    return
            heappush(ready, (blocks[b][placed[b]], b))

        for b in range(k):
            if placed[b] < len(blocks[b]):
                offer(b, 0)
        while ready:
            eid, b = heappop(ready)
            out.append(eid)
            placed[b] += 1
            if placed[b] < len(blocks[b]):
                offer(b, 0)
            for b2 in waiting.pop((b, placed[b]), ()):
                offer(b2, b + 1)
        if len(out) < self.n:
            # every unplaced head waits on a block whose head is unplaced too
            on = {b: c for (c, _), bs in waiting.items() for b in bs}
            raise CycleError(*self._stuck_cycle(edges, placed, on))
        return out

    def _stuck_cycle(
        self, edges: list[tuple[int, int]], placed: list[int], on: dict[int, int]
    ) -> list[tuple[int, int]]:
        """Cross edges of the cycle that following the waits (b's head on
        block ``on[b]``) from the smallest stuck block closes, in cycle order
        from the one latest in ``edges``.  An arc b -> c is the order's own,
        or edges u -> b's head with u unplaced in c make it: the earliest u.
        """
        b, loop = min(on), []
        while b not in loop:
            loop.append(b)
            b = on[b]
        loop = loop[loop.index(b) :]
        starts, blocks, pred = self._starts, self.blocks, self.pred
        arcs = {
            blocks[b][placed[b]]: on[b]
            for b in reversed(loop)
            if pred[starts[b] + placed[b], on[b]] < placed[on[b]]
        }
        tails: dict[int, int] = {}  # head -> earliest tail row
        for u, v in edges:
            if (c := arcs.get(v)) is not None:
                # block c's rows at or past its placed count, before the tail so far
                if starts[c] + placed[c] <= (iu := self._idx[u]) < tails.get(v, starts[c + 1]):
                    tails[v] = iu
        cross = [(self._eids[tails[v]], v) for v in arcs]
        at = max(range(len(cross)), key=lambda j: edges.index(cross[j]))
        return cross[at:] + cross[:at]


# ----------------------------------------------------------------------
# program order + observation
# ----------------------------------------------------------------------


def compute_trf(trace: Trace, prefix: Sequence[int] | None = None) -> PartialOrder:
    """Program order extended with observation edges, transitively closed.

    ``prefix`` restricts the universe to a trace ideal given by its
    per-thread prefix lengths: block b holds the first ``prefix[b]`` events
    of thread b.  A vector of the wrong length, an entry outside
    ``0..len(thread)``, or one that is not an ideal raises ``ValueError``.
    The order is the TRF projected on the universe, read from the down-set
    table.
    """
    table = _table(trace)
    ids = table.ids
    prefix = [len(row) for row in ids] if prefix is None else prefix
    fits = len(prefix) == len(ids) and all(0 <= m <= len(row) for m, row in zip(prefix, ids))
    if not (fits and _is_closed(table, prefix)):
        raise ValueError(f"{tuple(prefix)} is not the prefix vector of a trace ideal")
    blocks = [row[:m] for row, m in zip(ids, prefix)]
    order = PartialOrder(blocks)
    # a down-set vector counts the member itself, so its own block loses two
    down = np.array([table.down[e] for e in order.events()], np.int64).reshape(order.n, order.k)
    order.pred = down - 1
    order.pred[np.arange(order.n), order._block] -= 1
    return order


# ----------------------------------------------------------------------
# rf-posets and the closure
# ----------------------------------------------------------------------


@dataclass
class RfPoset:
    """A partial order over a trace ideal; it observes as the trace does.

    It holds the trace and the order and nothing derived: each observer
    (read or release) of the universe observes the writer (write or
    acquire) that the trace's table names in ``source``, and the universe,
    an ideal, holds that writer too.  The order must already place writer
    before observer; the closure strengthens it until no interfering writer
    can slip between any observer and its writer.  Block b of the order must be a prefix of thread
    b, and the blocks an ideal (else ``ValueError``): the trace's channel
    index, cut at the block lengths, then holds the universe's events.
    """

    trace: Trace
    order: PartialOrder

    def __post_init__(self) -> None:
        blocks, ids = self.order.blocks, _table(self.trace).ids
        if len(blocks) != len(ids) or any(bl != row[: len(bl)] for bl, row in zip(blocks, ids)):
            raise ValueError("every block of the order must be a prefix of its thread")
        if not _is_closed(_table(self.trace), [len(bl) for bl in blocks]):
            raise ValueError("the blocks of the order do not form a trace ideal")


class _Guards:
    """The closure conditions of an rf-poset, as flat arrays of rows.

    A segment is one (channel, block) run of the trace's writer keys, cut
    at the block's length.  ``keys`` holds the universe's writers, the
    trace's keys whose position is below their block's length: each is its
    segment's base, ``(channel·k + block)·span``, plus its position, so they
    are sorted and each segment is one contiguous run; ``_rows`` holds the
    writers' rows in the same order.  Each slot pairs an observer, in
    event-id order, with one block whose segment on its channel holds a
    writer, so the slots are the nonzero entries of an (observer × block)
    mask; the observers and their writers are read off the trace's
    ``source`` array.  Everything here is a row of the universe, and event
    ids are read off ``order._ids`` only for the edges returned.  What depends only
    on the universe is built once, here: condition 1's ``pred`` indices and
    offsets, and condition 2's queries, which :meth:`_round` and
    :meth:`unprotected_after_replay` share.  The same segments serve
    :meth:`replay`, whose slots pair a writer with another block that holds
    writers on its channel and carry their own queries, and
    :meth:`unprotected_after_replay`, which counts per slot the block's
    events earlier in the trace than the writer; both are built on first
    call, so the closure never pays.  Of an order only ``pred`` is read,
    by :meth:`_above` and the condition-1 gather.
    """

    def __init__(self, poset: RfPoset):
        order, table = poset.order, _table(poset.trace)
        k = order.k
        self._span = span = table.span
        self.keys = _prefix_keys(table, table.writers[1:], list(map(len, order.blocks)))
        segment = self.keys // span  # channel·k + block
        self._rows = order._first[segment % k] + self.keys % span
        self._held = _held(table, self.keys)
        # _above's runs, one per block, each past the last: run c gathers
        # the writers' pred entries for c, each plus its segment's base (a
        # writer's key less its position)
        self._shift = int(table.users[-1]) + span
        runs = np.arange(k)[:, None]
        self._gather = (self._rows * k + runs).ravel()
        self._offsets = (runs * self._shift + segment * span).ravel()
        self._replay_slots: tuple[np.ndarray, ...] | None = None
        self._below: np.ndarray | None = None
        # a slot per observer of the universe, in event-id order, and block
        # holding writers on its channel; an event's row is -1 outside it
        row = np.full(len(table.chan), -1, dtype=np.int64)
        row[order._ids] = np.arange(order.n)
        r = np.flatnonzero((row >= 0) & (table.source > 0))
        c = table.chan[r]
        at, self.block = np.nonzero(self._held[c])
        self.ir, self.iw = row[r[at]], row[table.source[r[at]]]
        self.base = (c[at] * k + self.block) * span
        self.own = order._block[self.iw] == self.block
        # both conditions run over the slots stacked, w's half then r's
        rows, base = np.concatenate((self.iw, self.ir)), np.concatenate((self.base, self.base))
        at = rows * k + np.concatenate((self.block, self.block))  # pred[rows, b], flat
        offset = base + np.concatenate((self.own, np.zeros_like(self.own)))
        self._cond1, self._cond2 = (at, offset), self._queries(order, rows, base)

    def _queries(
        self, order: PartialOrder, rows: np.ndarray, base: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per slot, the key that :meth:`_above` holds for the event at row
        ``rows`` against the segment at ``base``, in the run of the event's
        block, and the index in the keys where that run starts.  They
        depend only on the universe."""
        c = order._block[rows]
        return c * self._shift + base + order._pos[rows], c * len(self._rows)

    def _above(self, order: PartialOrder, queries: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Per slot of ``queries`` (see :meth:`_queries`), the index in
        ``_rows`` of the first writer of the slot's segment that ``order``
        puts above the slot's event, or the segment's end.

        The event at position p of block c is below exactly the writers
        whose entry for c reaches p.  Down a block every ``pred`` column is
        non-decreasing, so within a segment the writers' entries for block
        c, each plus its base, rise; run c holds them for every segment in
        turn, and one ``searchsorted`` answers every slot.
        """
        query, start = queries
        return (order.pred.take(self._gather) + self._offsets).searchsorted(query) - start

    def violations(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Edges the closure conditions demand of ``order``, deduplicated:
        the condition-1 edges first, then the condition-2 ones, each in slot
        order.  :meth:`_round` finds them as row pairs."""
        eids = order._eids
        return [(eids[iu], eids[iv]) for iu, iv in self._round(order)]

    def _round(self, order: PartialOrder) -> list[tuple[int, int]]:
        """:meth:`violations` as (row, row) pairs, in one vectorised pass.

        Condition 1: writers in ``(pred[w, b], pred[r, b]]`` are before r but
        not before w (in w's own block the run starts after w itself); the
        latest of them must precede w.  Condition 2: the writers from the
        first one above w up to the first one above r are after w but not
        after r; r must precede the earliest of them.  Stacked over the
        slots, w's half then r's, each condition is one ``searchsorted``.
        """
        at, offset = self._cond1
        lo, hi = self.keys.searchsorted(order.pred.take(at) + offset, side="right").reshape(2, -1)
        first, end = self._above(order, self._cond2).reshape(2, -1)
        into, out = hi > lo, end > first
        us = np.concatenate((self._rows[hi[into] - 1], self.ir[out]))
        vs = np.concatenate((self.iw[into], self._rows[first[out]]))
        return list(dict.fromkeys(zip(us.tolist(), vs.tolist())))

    def unprotected_after_replay(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Condition 2 on ``order`` plus its :meth:`replay` edges, read off
        ``order`` alone, in slot order.

        Once the replay puts every pair of same-channel writers that
        ``order`` leaves unordered in trace order, the writers of w's
        channel in block b after w are those ``order`` puts there, from the
        first writer above w on, and the unordered ones later in the trace,
        from position ``max(pred[w, b] + 1, below)`` on, where ``below``
        counts b's events earlier in the trace than w (plus w itself in its
        own block).  So the earliest of them is the first of the two, and
        no closure is needed.  Edges that ``order`` plus the replay implies,
        but ``order`` alone does not, are among those returned.  All this
        holds when ``order`` plus the replay is acyclic; when it is not,
        adding these edges leaves a cycle all the same.
        """
        ids = order._ids
        if self._below is None:
            self._below = _earlier(order, self.block, ids[self.iw]) + self.own
        first, end = self._above(order, self._cond2).reshape(2, -1)
        later = np.maximum(order.pred[self.iw, self.block] + 1, self._below)
        first = np.minimum(first, np.searchsorted(self.keys, self.base + later))
        out = end > first
        return list(zip(ids[self.ir[out]].tolist(), ids[self._rows[first[out]]].tolist()))

    def replay(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Trace-order edges for the writer pairs ``order`` leaves unordered.

        For a writer v and another block b with writers on v's channel, the
        writers of b that are earlier in the trace and not already after v
        form a prefix of the segment, up to the first writer above v or the
        first one later in the trace, whichever comes first; its last one,
        u, gets the edge u -> v unless ``order`` already has it, and program
        order then orders the rest of the prefix.  Writers that ``order``
        puts after v stay there, so a pair flipped against the trace stays
        flipped.  With every slot's edge added (and no cycle), each
        same-channel writer pair that ``order`` left unordered is ordered as
        in the trace.  Sorted.
        """
        ids = order._ids
        if self._replay_slots is None:
            # per (writer v, other block b on v's channel): v's row, b, the
            # segment's base, the index of its first writer later in the
            # trace than v, and v's queries; every order passed in shares
            # the poset's universe
            k, span = order.k, self._span
            segment = self.keys // span  # channel·k + v's block
            bv = segment % k
            at, b = np.nonzero(self._held[segment // k] & (np.arange(k) != bv[:, None]))
            iv, base = self._rows[at], (segment[at] - bv[at] + b) * span
            later = np.searchsorted(self.keys, base + _earlier(order, b, ids[iv]))
            self._replay_slots = iv, b, base, later, self._queries(order, iv, base)
        iv, b, base, later, queries = self._replay_slots
        hi = np.minimum(self._above(order, queries), later)
        lo = np.searchsorted(self.keys, base + order.pred[iv, b], side="right")
        take = hi > lo
        return sorted(zip(ids[self._rows[hi[take] - 1]].tolist(), ids[iv[take]].tolist()))


def _earlier(order: PartialOrder, blocks: np.ndarray, eids: np.ndarray) -> np.ndarray:
    """Per entry, how many events of block ``blocks[i]`` have an id below
    ``eids[i]``.  Each block's ids rise, so keyed by block first they are
    sorted, and one ``searchsorted`` answers every entry."""
    top = int(order._ids.max(initial=0)) + 1
    keyed = order._block * top + order._ids
    return np.searchsorted(keyed, blocks * top + eids) - order._first[blocks]


def is_closed(poset: RfPoset) -> bool:
    """Whether every observer is already protected from interference.

    This is one round of the check :func:`closure` iterates, finding nothing.
    """
    return not _Guards(poset).violations(poset.order)


def closure(poset: RfPoset) -> RfPoset | None:
    """The least observation-protecting refinement, or None on a cycle.

    Each round evaluates every closure condition of the current order in one
    vectorised pass (:meth:`_Guards._round`) and inserts the demanded edges,
    as row pairs, latest target first (a stable sort by the target's event
    id, largest first); the loop ends when a round demands nothing.
    Since every order here refines the block chains, the interferers an
    observer must move within one block form a contiguous run of that
    block's writers on its channel, and one edge to the run's nearest end
    (latest writer before w, earliest writer after r) orders the whole run
    by program order.  Every demanded edge belongs to every closed refinement,
    so the result does not depend on insertion order, and an edge that closes
    a cycle proves no closed refinement exists.  The order decides only
    which of a round's edges an earlier one already implied, and the cost:
    an insert raises the rows above its target not yet above its source, and
    the rows above a later target have often taken that source's
    predecessors already: on a 2-thread chain an insert raises about one row.
    No demanded edge is already implied, so a round whose first inserted
    edge stays unordered raises :class:`RuntimeError` rather than loop: each
    round orders at least one new pair.

    The input poset is not modified.
    """
    order = poset.order.copy()
    guards = _Guards(poset)
    eids = order._eids
    try:
        while edges := guards._round(order):
            edges.sort(key=lambda e: eids[e[1]], reverse=True)
            for iu, iv in edges:
                order._insert(iu, iv)
            u, v = (eids[i] for i in edges[0])
            if not order.ordered(u, v):
                raise RuntimeError(f"closure round left {u} -> {v} unordered")
    except CycleError:
        return None
    return RfPoset(poset.trace, order)
