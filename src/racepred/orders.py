"""Partial orders over trace events, and observation-closed refinements.

Every order handled here refines per-thread program order, so the universe
splits into one chain ("block") per thread.  That makes a compact reachability
representation possible: for each event we keep, per block, the latest
predecessor position ``pred``, from which the earliest successor position
``succ`` is derived when asked.  Order queries are O(1) array lookups.  Down
a block every ``pred`` column is non-decreasing, so the rows an inserted edge
u -> v can raise form one suffix per block, found by one bisection;
:meth:`PartialOrder.add_edge` updates only those suffixes.
:meth:`PartialOrder.add_edges` inserts a batch at once: it writes each edge
into its target's row, then alternates a per-block running max with a gather
of each row's frontier rows until nothing changes.  A batch that closes a
cycle changes nothing.

The module also provides:

* :func:`compute_trf` — program order extended with observation edges
  (write-to-read, acquire-to-release), transitively closed, over a trace
  ideal given by its prefix vector, as a fresh mutable order read from the
  trace's down-set table, ``trace_model._table``, the one stored form of the TRF;
* :class:`RfPoset` — a partial order over a trace ideal, whose observation
  map is the trace's own, the object the closure operates on;
* :func:`closure` — the least refinement in which every observed writer is
  protected from interference, or ``None`` when that forces a cycle.

An event's conflict channel is its location: a trace never uses one
location both as a global and as a lock, so globals and locks never share a
channel.  The closure conditions are checked per (channel, block), not per
writer.  For an observer r reading from w, the writers of r's channel in
block b that sit before r but not before w are exactly those at positions
``(pred[w, b], pred[r, b]]``, and those after w but not after r are at
``[succ[w, b], succ[r, b])``.  Program order already orders each such run, so
only its end nearest to the pair needs an explicit edge: the latest writer
before w, or r before the earliest writer.  All runs of every observer are
found with four ``searchsorted`` calls over one sorted array of writer
positions segmented by (channel, block), cut from the trace's channel index.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import lt
from typing import Iterable, Sequence

import numpy as np

from .trace_model import Trace, _cut, _is_closed, _table

__all__ = [
    "CycleError",
    "PartialOrder",
    "RfPoset",
    "compute_trf",
    "is_closed",
    "closure",
]


class CycleError(Exception):
    """Adding an edge would contradict the existing order."""

    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"edge {edge[0]} -> {edge[1]} closes a cycle")
        self.edge = edge


class PartialOrder:
    """A strict partial order over per-thread chains of event ids.

    ``blocks`` fixes the universe: one tuple of event ids per thread, each in
    program order.  The order always contains the block chains; edges added
    later are transitively closed incrementally.
    """

    __slots__ = (
        "blocks", "n", "k", "_eids", "_idx", "_block", "_pos", "_starts", "pred", "edges"
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
        # pred[x, b]: greatest position in block b strictly below x (or -1)
        self.pred = np.full((self.n, self.k), -1, dtype=np.int64)
        self.pred[np.arange(self.n), self._block] = self._pos - 1
        #: explicitly inserted (u, v) event-id pairs, for path recovery
        self.edges: list[tuple[int, int]] = []

    # -- basics ---------------------------------------------------------

    def copy(self) -> "PartialOrder":
        clone = object.__new__(PartialOrder)
        clone.blocks = self.blocks
        clone.n = self.n
        clone.k = self.k
        clone._eids = self._eids
        clone._idx = self._idx
        clone._block = self._block
        clone._pos = self._pos
        clone._starts = self._starts
        clone.pred = self.pred.copy()
        clone.edges = list(self.edges)
        return clone

    def __contains__(self, eid: int) -> bool:
        return eid in self._idx

    def index_of(self, eid: int) -> int:
        return self._idx[eid]

    def location(self, eid: int) -> tuple[int, int]:
        """(block, position) of an event."""
        i = self._idx[eid]
        return int(self._block[i]), int(self._pos[i])

    def events(self) -> Iterable[int]:
        return iter(self._eids)

    # -- queries ---------------------------------------------------------

    def ordered(self, u: int, v: int) -> bool:
        """Strictly ordered u < v."""
        iu, iv = self._idx[u], self._idx[v]
        return bool(self.pred[iv, self._block[iu]] >= self._pos[iu])

    def unordered(self, u: int, v: int) -> bool:
        return u != v and not self.ordered(u, v) and not self.ordered(v, u)

    @property
    def succ(self) -> np.ndarray:
        """succ[x, b]: least position in block b strictly above x, or len(block b).

        Down block b every ``pred`` column is non-decreasing, so one
        ``searchsorted`` over those columns, shifted apart, finds every x.
        """
        span = self.n + 2  # entries and positions run -1 .. n - 1
        shift, query = np.arange(self.k) * span, self._block * span + self._pos
        out = np.empty((self.n, self.k), dtype=np.int64)
        start = 0
        for b, block in enumerate(self.blocks):
            keys = (self.pred[start : start + len(block)] + shift).T.ravel()
            out[:, b] = np.searchsorted(keys, query) - self._block * len(block)
            start += len(block)
        return out

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: int, v: int) -> bool:
        """Insert u < v and transitively close.

        Returns False when the pair was already ordered.  Raises
        :class:`CycleError` when v < u already holds.

        The rows that gain u's predecessors are v and everything above it:
        in v's own block the rows from v on, in any other block the rows
        whose ``pred`` column for v's block reaches v's position, a suffix.
        """
        if u == v:
            raise CycleError((u, v))
        iu, iv = self._idx[u], self._idx[v]
        bu, pu = self._block[iu], self._pos[iu]
        bv, pv = self._block[iv], self._pos[iv]
        pred = self.pred
        if pred[iv, bu] >= pu:
            return False
        if pred[iu, bv] >= pv:
            raise CycleError((u, v))

        down = pred[iu].copy()  # u's predecessors, u included
        down[bu] = pu
        starts = self._starts
        for b in range(self.k):
            start, end = starts[b], starts[b + 1]
            if b == bv:
                start = iv
            else:
                start += bisect_left(pred[start:end, bv], pv)
            if start < end:
                rows = pred[start:end]
                np.maximum(rows, down, out=rows)
        self.edges.append((u, v))
        return True

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> int:
        """Insert every u < v of ``edges`` and transitively close, as one batch.

        Returns how many distinct edges the order did not already imply, and
        ``edges`` gains those.  A later edge of the batch that an earlier one
        implies is among them, where the one-at-a-time loop would leave it
        out.  All or nothing: when the batch closes a cycle, ``pred`` and
        ``edges`` keep their values, and the :class:`CycleError` names the
        first batch edge on a cycle, not necessarily the edge at which that
        loop would stop.

        Each edge raises its target's entry for the source's block.  Then
        two steps repeat until neither changes ``pred``: a running max down
        each block (program order), and, for each row, the max of the rows
        it reaches in every block (its frontier).  Each round about doubles
        the length of the paths every row has seen.
        """
        edges = list(dict.fromkeys(edges))
        if not edges:
            return 0
        idx = self._idx
        iu = np.array([idx[u] for u, _ in edges], dtype=np.int64)
        iv = np.array([idx[v] for _, v in edges], dtype=np.int64)
        bu, pu = self._block[iu], self._pos[iu]
        new = self.pred[iv, bu] < pu
        if not new.any():
            return 0

        work = self.pred.copy()
        np.maximum.at(work, (iv[new], bu[new]), pu[new])
        rows = np.arange(self.n)
        base = np.array(self._starts[:-1], dtype=np.int64)
        while True:
            for start, end in zip(self._starts, self._starts[1:]):
                np.maximum.accumulate(work[start:end], axis=0, out=work[start:end])
            # an empty entry gathers the row itself
            front = np.where(work >= 0, work + base, rows[:, None])
            grown = np.maximum(work, work[front].max(axis=1))
            if np.array_equal(grown, work):
                break
            work = grown
        if (work[rows, self._block] >= self._pos).any():
            # the order was acyclic, so a cycle takes some batch edge u -> v,
            # and then v reaches u
            back = work[iu, self._block[iv]] >= self._pos[iv]
            raise CycleError(edges[int(back.argmax())])
        self.pred = work
        self.edges += [e for e, fresh in zip(edges, new.tolist()) if fresh]
        return int(new.sum())

    # -- derived structure -------------------------------------------------

    def linearize(self) -> list[int]:
        """The lexicographically least linear extension of the order.

        Each step places the smallest-id block head whose predecessors are
        all placed: its ``pred`` row is below the placed count in every block.
        """
        rows = self.pred.tolist()
        placed = [0] * self.k
        out: list[int] = []
        while len(out) < self.n:
            ready = [
                (block[p], b)
                for b, (block, p) in enumerate(zip(self.blocks, placed))
                if p < len(block) and all(map(lt, rows[self._idx[block[p]]], placed))
            ]
            if not ready:
                raise CycleError((-1, -1))  # cannot happen for a valid order
            eid, b = min(ready)
            out.append(eid)
            placed[b] += 1
        return out

    def path_between(self, u: int, v: int) -> list[tuple[int, int]]:
        """A chain of generator edges witnessing u < v.

        Generator edges are block-chain steps and explicitly inserted edges.
        Raises ValueError when v is not reachable (i.e. not u < v).
        """
        if not self.ordered(u, v):
            raise ValueError(f"{u} is not ordered before {v}")
        fwd: dict[int, list[int]] = {}
        for a, b in self.edges:
            fwd.setdefault(a, []).append(b)

        parent: dict[int, int] = {u: 0}
        queue = deque([u])
        while queue:
            cur = queue.popleft()
            if cur == v:
                break
            b, p = self.location(cur)
            steps = list(fwd.get(cur, ()))
            if p + 1 < len(self.blocks[b]):
                steps.append(self.blocks[b][p + 1])
            for nxt in steps:
                # every node on a generator path to v is itself below v, so
                # the search can prune anything that is not
                if nxt not in parent and (nxt == v or self.ordered(nxt, v)):
                    parent[nxt] = cur
                    queue.append(nxt)
        if v not in parent:
            raise ValueError(f"no generator path from {u} to {v}")
        chain: list[tuple[int, int]] = []
        cur = v
        while cur != u:
            prv = parent[cur]
            chain.append((prv, cur))
            cur = prv
        chain.reverse()
        return chain


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
    table.  ``edges`` holds the (writer, read) pairs that inserting the
    cross-thread reads one by one, in trace order, would add.
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
    for r in sorted(e for e in order.events() if e in trace.rf):
        w = trace.rf[r]
        (bw, pw), (b, p) = order.location(w), order.location(r)
        # w < r already if w is below r's thread predecessor, as a release's acquire is
        if bw != b and pw >= table.down[blocks[b][p - 1] if p else 0][bw]:
            order.edges.append((w, r))
    return order


# ----------------------------------------------------------------------
# rf-posets and the closure
# ----------------------------------------------------------------------


@dataclass
class RfPoset:
    """A partial order over a trace ideal; it observes as the trace does.

    ``rf``, the trace's map restricted to the universe in event-id order,
    takes each observer (read or release) to the writer it observes (write or
    acquire).  The order must already place writer before observer; the
    closure strengthens it until no interfering writer can slip between any
    observer and its writer.  Block b of the order must be a prefix of thread
    b, and the blocks an ideal (else ``ValueError``): the trace's channel
    index, cut at the block lengths, then lists the universe's events per
    channel.
    """

    trace: Trace
    order: PartialOrder

    def __post_init__(self) -> None:
        blocks, ids = self.order.blocks, _table(self.trace).ids
        if len(blocks) != len(ids) or any(bl != row[: len(bl)] for bl, row in zip(blocks, ids)):
            raise ValueError("every block of the order must be a prefix of its thread")
        if not _is_closed(_table(self.trace), [len(bl) for bl in blocks]):
            raise ValueError("the blocks of the order do not form a trace ideal")

    @cached_property
    def rf(self) -> dict[int, int]:
        """Observer -> observed writer, over the universe, in event-id order."""
        rf = self.trace.rf
        return {e: rf[e] for e in sorted(self.order.events()) if e in rf}


class _Guards:
    """The closure conditions of an rf-poset, as flat arrays over its universe.

    A segment is one (channel, block) row of the channel index, cut at the
    block's length.  ``keys`` holds every writer as its segment's base plus
    its position, so in index order it is sorted and each segment is one
    contiguous run.  Each slot pairs an observer with one block that holds
    writers on its channel.  The same segments serve :meth:`replay`, whose
    slots pair a writer with another block that holds writers on its
    channel; they are built on its first call, so the closure never pays.
    """

    def __init__(self, poset: RfPoset):
        order, trace = poset.order, poset.trace
        span = order.n + 2  # room for positions -1 .. n per segment
        by_channel: dict[str, list[tuple[int, int, list[int]]]] = {}
        keys: list[int] = []
        writers: list[int] = []
        for x, rows in _table(trace).writers.items():
            for b, row in enumerate(_cut(rows, map(len, order.blocks))):
                if row:
                    base = len(keys) * span + 1  # every earlier segment is non-empty
                    keys += [base + pos for pos in row]
                    writers += [order.blocks[b][pos] for pos in row]
                    by_channel.setdefault(x, []).append((b, base, writers[-len(row) :]))
        self.keys = np.array(keys, dtype=np.int64)
        self.writers = np.array(writers, dtype=np.int64)
        self._by_channel = by_channel
        self._replay_slots: tuple[np.ndarray, ...] | None = None
        slots = []
        for r, w in poset.rf.items():
            ir, iw = order.index_of(r), order.index_of(w)
            bw = order._block[iw]
            for b, base, _ in by_channel.get(trace.events[r - 1].loc, ()):
                slots.append((ir, iw, r, w, b, base, b == bw))
        cols = np.array(slots, dtype=np.int64).reshape(-1, 7).T
        self.ir, self.iw, self.r, self.w, self.block, self.base, self.own = cols

    def violations(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Edges the closure conditions demand of ``order``, deduplicated.

        Condition 1: writers in ``(pred[w, b], pred[r, b]]`` are before r but
        not before w (in w's own block the run starts after w itself); the
        latest of them must precede w.  Condition 2 is :meth:`unprotected`.
        The condition-1 edges come first, then the condition-2 ones.
        """
        ir, iw, b, base, keys = self.ir, self.iw, self.block, self.base, self.keys
        lo = np.searchsorted(keys, base + order.pred[iw, b] + self.own, side="right")
        hi = np.searchsorted(keys, base + order.pred[ir, b], side="right")
        into = hi > lo
        edges = list(zip(self.writers[hi[into] - 1].tolist(), self.w[into].tolist()))
        edges += self.unprotected(order)
        return list(dict.fromkeys(edges))

    def unprotected(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Condition 2 alone, one edge per slot that needs one, in slot order.

        Writers in ``[succ[w, b], succ[r, b])`` are after w but not after r;
        r must precede the earliest of them.
        """
        b, base, keys, succ = self.block, self.base, self.keys, order.succ
        first = np.searchsorted(keys, base + succ[self.iw, b], side="left")
        end = np.searchsorted(keys, base + succ[self.ir, b], side="left")
        out = end > first
        return list(zip(self.r[out].tolist(), self.writers[first[out]].tolist()))

    def replay(self, order: PartialOrder) -> list[tuple[int, int]]:
        """Trace-order edges for the writer pairs ``order`` leaves unordered.

        For a writer v and another block b with writers on v's channel, the
        writers of b that are earlier in the trace and not already after v
        form a prefix of the segment; its last one, u, gets the edge u -> v
        unless ``order`` already has it, and program order then orders the
        rest of the prefix.  Writers that ``order`` puts after v stay there,
        so a pair flipped against the trace stays flipped.  With every slot's
        edge added (and no cycle), each same-channel writer pair that
        ``order`` left unordered is ordered as in the trace.  Sorted.
        """
        if self._replay_slots is None:
            # per (writer v, other block b on v's channel): v's index, v, b,
            # the segment's base, and how many events of b precede v; every
            # order passed in shares the poset's universe
            slots = [
                (order.index_of(v), v, b, base, bisect_left(order.blocks[b], v))
                for segs in self._by_channel.values()
                for bv, _, segment in segs
                for v in segment
                for b, base, _ in segs
                if b != bv
            ]
            self._replay_slots = tuple(np.array(slots, dtype=np.int64).reshape(-1, 5).T)
        iv, v, b, base, below = self._replay_slots
        j = np.searchsorted(self.keys, base + np.minimum(order.succ[iv, b], below), side="left") - 1
        # a j in an earlier segment gives a position below -1, so fails the test
        take = (j >= 0) & (self.keys[j] - base > order.pred[iv, b])
        return sorted(zip(self.writers[j[take]].tolist(), v[take].tolist()))


def is_closed(poset: RfPoset) -> bool:
    """Whether every observer is already protected from interference.

    This is one round of the check :func:`closure` iterates, finding nothing.
    """
    return not _Guards(poset).violations(poset.order)


def closure(poset: RfPoset) -> RfPoset | None:
    """The least observation-protecting refinement, or None on a cycle.

    Each round evaluates every closure condition of the current order in one
    vectorised pass and inserts the demanded edges; the loop ends when a round
    demands nothing.  Since every order here refines the block chains, the
    interferers an observer must move within one block form a contiguous run
    of that block's writers on its channel, and one edge to the run's nearest
    end (latest writer before w, earliest writer after r) orders the whole run
    by program order.  Every demanded edge belongs to every closed refinement,
    so the result does not depend on insertion order, and an edge that closes
    a cycle proves no closed refinement exists.

    The input poset is not modified.
    """
    order = poset.order.copy()
    guards = _Guards(poset)
    try:
        while edges := guards.violations(order):
            for u, v in edges:
                order.add_edge(u, v)
    except CycleError:
        return None
    return RfPoset(poset.trace, order)
