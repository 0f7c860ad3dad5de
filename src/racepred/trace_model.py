"""Events, traces, and the concrete trace file format.

A trace is a sequence of events, each performed by a thread on a shared
location.  Threads interact through global variables (``w``/``r`` events) and
through locks (``acq``/``rel`` events).  The file format is line oriented::

    t1 w x
    t1 acq m
    t2 r x      # trailing comments are fine
    t1 rel m

Thread names match ``t[0-9]+``, operations are one of ``w r acq rel``, and
locations are identifiers.  A location's role (global variable or lock) is
inferred from its first use and must stay consistent.

Reads need a writer: by default, parsing synthesizes a leading write on the
reserved thread ``t0`` for every global whose first access is a read, so that
the observed-writer function is total.  Strict callers can disable this and
get an error instead.

Event ids are 1-based positions in the final event sequence (after any
synthesized writes).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import gt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TraceError",
    "Event",
    "Trace",
    "TraceParams",
    "INIT_THREAD",
    "KINDS",
    "conflicting",
    "parse_trace",
    "from_events",
    "serialize",
    "trace_params",
    "wrap_pair",
]

INIT_THREAD = "t0"
KINDS = ("w", "r", "acq", "rel")

_THREAD_RE = re.compile(r"t[0-9]+")
_LOCATION_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class TraceError(ValueError):
    """Raised for malformed trace text or event sequences."""


@dataclass(frozen=True, slots=True)
class Event:
    """One step of a trace: ``thread`` performs ``kind`` on ``loc``.

    ``eid`` is the event's 1-based position in the trace.
    """

    eid: int
    thread: str
    kind: str
    loc: str

    @property
    def is_write(self) -> bool:
        return self.kind == "w"

    @property
    def is_read(self) -> bool:
        return self.kind == "r"

    @property
    def is_acquire(self) -> bool:
        return self.kind == "acq"

    @property
    def is_release(self) -> bool:
        return self.kind == "rel"

    @property
    def is_global_access(self) -> bool:
        return self.kind in ("w", "r")

    @property
    def observes(self) -> bool:
        """True for events that observe another event (reads and releases)."""
        return self.kind in ("r", "rel")

    @property
    def writes_like(self) -> bool:
        """True for events that can be observed (writes and acquires)."""
        return self.kind in ("w", "acq")


def conflicting(e1: Event, e2: Event) -> bool:
    """Whether two distinct events conflict.

    Events conflict when they touch the same location and at least one of
    them is a write or a lock-acquire.  In particular two reads never
    conflict, and neither do two releases.
    """
    if e1.eid == e2.eid or e1.loc != e2.loc:
        return False
    return e1.writes_like or e2.writes_like


class Trace:
    """An immutable, validated event sequence.

    Exposes the derived structure everything else builds on: per-thread
    projections, the observed-writer map ``rf`` (reads to writes, releases to
    their matching acquires), and acquire/release matching.  The whole-trace
    facts that queries share live in one cache, the down-set table
    :func:`_table` (the one stored form of the TRF, the channel index and the
    communication topology), built on first use and kept on the trace, whose
    arrays are indexed by event id: so the ids must run ``1..n`` in sequence
    order, else :class:`TraceError`.  It is the one checker of trace input,
    parsed or built: every kind must be one of :data:`KINDS`, and every
    thread and location name one the file format allows, so that
    :func:`serialize` writes text that :func:`parse_trace` reads back; each
    location keeps one role, every read follows a write, and locks are held
    by one thread at a time and released innermost first.  One pass over
    the events checks them and builds every map, testing each name once, so
    a sequence with several faults reports its first faulty event in trace
    order, and every fault names its event id (an unreleased acquire shows
    only at the end).
    """

    __slots__ = (
        "events",
        "threads",
        "globals_",
        "locks",
        "rf",
        "match",
        "thread_index",
        "thread_pos",
        "by_thread",
        "num_synthesized",
        "source_lines",
        "_ideals",
    )

    def __init__(
        self,
        events: Sequence[Event],
        *,
        num_synthesized: int = 0,
        source_lines: dict[int, int] | None = None,
    ):
        self.events: tuple[Event, ...] = tuple(events)
        self.num_synthesized = num_synthesized
        #: maps eid -> 1-based line number in the source text (parsed traces
        #: only; synthesized events have no entry).
        self.source_lines = source_lines or {}

        index: dict[str, int] = {}  # thread -> its number, in order of first event
        roles: dict[str, str] = {}  # loc -> "global" | "lock"
        by_thread: list[list[Event]] = []
        opened: dict[str, list[Event]] = {}  # each thread's open acquires, innermost last
        holder: dict[str, Event] = {}  # lock -> open acquire
        last_writer: dict[str, int] = {}
        thread_pos: dict[int, int] = {}
        rf: dict[int, int] = {}  # reads to their writes, releases to their acquires
        match: dict[int, int] = {}  # acquires and releases to each other
        for eid, ev in enumerate(self.events, 1):
            kind, loc = ev.kind, ev.loc
            if ev.eid != eid:
                raise TraceError(f"event {eid} has id {ev.eid}: ids must run 1..n in order")
            if kind not in KINDS:
                raise TraceError(f"bad operation {kind!r} (event {eid})")
            b = index.setdefault(ev.thread, len(index))
            if b == len(by_thread):
                if not _THREAD_RE.fullmatch(ev.thread):
                    raise TraceError(f"bad thread name {ev.thread!r} (event {eid})")
                by_thread.append([])
            want = "global" if kind == "w" or kind == "r" else "lock"
            if loc not in roles and not _LOCATION_RE.fullmatch(loc):
                raise TraceError(f"bad location {loc!r} (event {eid})")
            have = roles.setdefault(loc, want)
            if have != want:
                raise TraceError(
                    f"location {loc!r} used as both a {have} and a {want} (event {eid})"
                )
            thread_pos[eid] = len(by_thread[b])
            by_thread[b].append(ev)
            if kind == "w":
                last_writer[loc] = eid
            elif kind == "r":
                if loc not in last_writer:
                    raise TraceError(f"read of {loc!r} (event {eid}) has no earlier write")
                rf[eid] = last_writer[loc]
            elif kind == "acq":
                held = holder.setdefault(loc, ev)
                if held is not ev:
                    who = "itself" if held.thread == ev.thread else held.thread
                    raise TraceError(
                        f"acquire of {loc!r} (event {eid}) while held by "
                        f"{who} since event {held.eid}"
                    )
                opened.setdefault(ev.thread, []).append(ev)
            else:
                held = holder.pop(loc, None)
                if held is None or held.thread != ev.thread:
                    raise TraceError(
                        f"release of {loc!r} (event {eid}) without a "
                        f"matching acquire in {ev.thread}"
                    )
                if opened[ev.thread].pop() is not held:
                    raise TraceError(
                        f"release of {loc!r} (event {eid}) violates lock "
                        f"nesting in {ev.thread}"
                    )
                rf[eid] = match[eid] = held.eid
                match[held.eid] = eid
        if holder:
            open_ids = sorted(a.eid for a in holder.values())
            raise TraceError(f"unreleased acquires at end of trace: {open_ids}")
        self.threads: tuple[str, ...] = tuple(index)
        self.thread_index = index
        self.globals_ = frozenset(x for x, role in roles.items() if role == "global")
        self.locks = frozenset(x for x, role in roles.items() if role == "lock")
        self.by_thread: tuple[tuple[Event, ...], ...] = tuple(map(tuple, by_thread))
        self.thread_pos, self.rf, self.match = thread_pos, rf, match
        self._ideals: _Table | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def event(self, eid: int) -> Event:
        if not 1 <= eid <= len(self.events):
            raise TraceError(f"event id {eid} out of range 1..{len(self.events)}")
        return self.events[eid - 1]

    def is_synthesized(self, eid: int) -> bool:
        """Whether ``eid`` is a synthesized initial write on ``t0``."""
        return eid <= self.num_synthesized

    def projection(self, thread: str) -> tuple[Event, ...]:
        return self.by_thread[self.thread_index[thread]]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def from_events(
    items: Iterable[tuple[str, str, str]],
    *,
    synthesize_init: bool = True,
    source_lines: Sequence[int] | None = None,
) -> Trace:
    """Build a trace from ``(thread, kind, loc)`` triples, numbering them
    from 1; :class:`Trace` checks the events.

    With ``synthesize_init`` (the default), a write on thread ``t0`` is
    prepended for every global whose first access is a read, in the order of
    those reads; otherwise such a read is an error.  ``t0`` is reserved for
    this purpose: supplying it in the input while synthesis is needed is an
    error.  The synthesized writes come first and carry the global's name,
    so a bad name read first is reported on its write: ``t1 w a`` then
    ``t1 r 9x`` fails with ``bad location '9x' (event 1)``.
    """
    synthesized: list[tuple[str, str, str]] = []
    if synthesize_init:
        items = list(items)
        accessed: set[str] = set()
        for _, kind, loc in items:
            if (kind == "w" or kind == "r") and loc not in accessed:
                accessed.add(loc)
                if kind == "r":
                    synthesized.append((INIT_THREAD, "w", loc))
        if synthesized and any(thread == INIT_THREAD for thread, _, _ in items):
            raise TraceError(
                f"thread {INIT_THREAD!r} is reserved for synthesized initial "
                "writes but appears in the input"
            )
    events = [
        Event(eid, thread, kind, loc)
        for eid, (thread, kind, loc) in enumerate(chain(synthesized, items), 1)
    ]
    lines: dict[int, int] = {}
    if source_lines is not None:
        if len(source_lines) != len(events) - len(synthesized):
            raise ValueError("source_lines must align with the input items")
        lines = dict(enumerate(source_lines, len(synthesized) + 1))
    return Trace(events, num_synthesized=len(synthesized), source_lines=lines)


def parse_trace(text: str, *, synthesize_init: bool = True) -> Trace:
    """Parse trace text (see the module docstring for the format)."""
    items: list[tuple[str, str, str]] = []
    lines: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise TraceError(
                f"line {lineno}: expected '<thread> <op> <location>', got {line!r}"
            )
        items.append((parts[0], parts[1], parts[2]))
        lines.append(lineno)
    return from_events(items, synthesize_init=synthesize_init, source_lines=lines)


def serialize(trace: Trace, *, include_synthesized: bool = False) -> str:
    """Render a trace in the file format.

    Synthesized initial writes are skipped by default so that
    ``parse_trace(serialize(t))`` reproduces ``t`` exactly, synthesis
    included (re-parsing regenerates the same init block in the same
    order).  Pass ``include_synthesized=True`` for a literal dump.
    """
    lines = [
        f"{ev.thread} {ev.kind} {ev.loc}"
        for ev in trace.events
        if include_synthesized or not trace.is_synthesized(ev.eid)
    ]
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# the per-trace down-set table
# ----------------------------------------------------------------------


class _Table(NamedTuple):
    """The trace's one cache: the facts queries read, by thread index ``b``.

    ``down[e]`` is the prefix vector of event e's downward closure (e
    included) under the thread-reads-from order; ``down[0]`` is the empty
    ideal.  ``opens[b][m]`` holds the acquires left open by thread b's first
    m events, innermost last.  ``ids[b]`` holds thread b's event ids in
    program order.  The channel index is flat and does not depend on any
    universe: ``chan[e]`` numbers event e's location in ``channels``, the
    locations in sorted order, and ``writes_like[e]`` flags writes and
    acquires.  ``users`` keys every event and ``writers`` every write and
    acquire as ``(chan·k + b)·span + position``, with ``span`` the longest
    thread plus 2; each is sorted and starts with a ``-1`` sentinel, so a
    (channel, thread) pair is one contiguous run, in program order, and an
    ideal's part of it is the keys whose position is below the ideal's
    prefix entry for the thread (:func:`_prefix_keys`).  ``source[e]`` is
    the write or acquire that event e observes, or 0: the observed-writer
    map ``Trace.rf`` as an array, which a universe's observers and their
    writers are read from.  ``adj`` is the communication topology as
    adjacency sets of thread indices, read off the channel index; a thread
    with no edge has no entry.  ``forest`` is whether that topology is a
    forest, which routes queries.
    """

    down: list[tuple[int, ...]]
    opens: tuple[tuple[tuple[int, ...], ...], ...]
    ids: tuple[tuple[int, ...], ...]
    channels: tuple[str, ...]
    chan: np.ndarray
    writes_like: np.ndarray
    span: int
    users: np.ndarray
    writers: np.ndarray
    source: np.ndarray
    adj: dict[int, set[int]]
    forest: bool


def _table(trace: Trace) -> _Table:
    """The trace's down-set table, built on first use and kept on it.

    ``down[e]`` is the pointwise max of its thread predecessor's and, for a
    read, its writer's vector, with e's own slot raised by one.  A release
    observes an acquire of its own thread, which its thread predecessor
    already covers.  One pass over the events, in trace order, fills
    ``down``, ``opens``, ``ids`` and the channel index; the last entry of
    each ``opens`` row is its thread's open-acquire stack so far, and
    ``span`` is known beforehand from the thread lengths.  ``source`` is
    ``trace.rf`` written into an array.
    """
    if trace._ideals is None:
        k, n = len(trace.threads), len(trace)
        zero = (0,) * k
        down = [zero] * (n + 1)
        last = [zero] * k  # down of each thread's latest event so far
        opens: list[list[tuple[int, ...]]] = [[()] for _ in range(k)]
        ids: list[list[int]] = [[] for _ in range(k)]
        channels = tuple(sorted(trace.globals_ | trace.locks))
        number = {x: c for c, x in enumerate(channels)}
        span = max(map(len, trace.by_thread), default=0) + 2
        chan, writes_like = [-1] * (n + 1), [False] * (n + 1)
        users, writers = [-1], [-1]
        index, rf = trace.thread_index, trace.rf
        for ev in trace.events:
            e, b, kind = ev.eid, index[ev.thread], ev.kind
            vec, stack = last[b], opens[b][-1]
            c = chan[e] = number[ev.loc]
            # vec[b] counts thread b's earlier events: e's position
            users.append(key := (c * k + b) * span + vec[b])
            if kind == "r":
                vec = _join(vec, down[rf[e]])
            elif kind == "rel":
                stack = stack[:-1]  # the trace guarantees proper nesting
            else:
                writers.append(key)
                writes_like[e] = True
                if kind == "acq":
                    stack += (e,)
            down[e] = last[b] = vec[:b] + (vec[b] + 1,) + vec[b + 1 :]
            opens[b].append(stack)
            ids[b].append(e)
        channel_index = np.array(chan), np.array(writes_like), span, np.sort(users), np.sort(writers)
        source = np.zeros(n + 1, dtype=np.int64)
        source[list(rf)] = list(rf.values())
        rows = tuple(map(tuple, opens)), tuple(map(tuple, ids))
        table = _Table(down, *rows, channels, *channel_index, source, {}, True)
        adj = _adjacency(_conflict_edges(table, list(map(len, ids))))
        forest = _forest_order(adj, range(k)) is not None
        trace._ideals = table._replace(adj=adj, forest=forest)
    return trace._ideals


def _prefix_keys(table: _Table, keys: np.ndarray, prefix: Sequence[int]) -> np.ndarray:
    """The ``keys`` of the channel index (sentinel left out) that name events
    of the ideal with per-thread prefix lengths ``prefix``: those whose
    position is below the prefix entry of their thread.  The ideal's part of
    each (channel, thread) run is a prefix of the run, so the cut keeps runs
    contiguous and sorted."""
    span = table.span
    return keys[keys % span < np.asarray(prefix, dtype=np.int64)[keys // span % len(table.ids)]]


def _held(table: _Table, keys: np.ndarray) -> np.ndarray:
    """A (channels × threads) flag matrix: which (channel, thread) runs hold
    one of ``keys``."""
    count = np.bincount(keys // table.span, minlength=len(table.channels) * len(table.ids))
    return count.reshape(len(table.channels), len(table.ids)) > 0


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _is_closed(table: _Table, prefix: Sequence[int]) -> bool:
    """Whether per-thread prefix lengths form a trace ideal.

    They do iff the downward closure of each thread's last included event
    fits inside them, since closures grow along each thread.
    """
    for b, m in enumerate(prefix):
        if m and any(map(gt, table.down[table.ids[b][m - 1]], prefix)):
            return False
    return True


# ----------------------------------------------------------------------
# summary parameters
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceParams:
    """The size and synchronization-structure report that ``stats`` prints.

    ``gamma`` is the deepest per-thread nesting of simultaneously open
    critical sections.  ``zeta`` bounds how much data flow chains critical
    sections together: each acquire is scored by how many acquires (itself
    included) can reach it in the lock-dependence graph, and ``zeta`` is the
    maximum score (0 when there are no locks).  ``topology`` has one
    undirected edge per pair of threads with conflicting events.  Queries
    route by the down-set table's topology; none reads this report.
    """

    n: int
    k: int
    num_globals: int
    num_locks: int
    gamma: int
    zeta: int
    topology: frozenset[tuple[str, str]]
    is_tree: bool

    @property
    def d(self) -> int:
        """Distinct locations of either role."""
        return self.num_globals + self.num_locks


def communication_topology(trace: Trace) -> frozenset[tuple[str, str]]:
    """Undirected thread graph: an edge per pair with conflicting events."""
    names, adj = trace.threads, _table(trace).adj
    return frozenset(tuple(sorted((names[i], names[j]))) for i in adj for j in adj[i])


def _conflict_edges(table: _Table, prefix: Sequence[int]) -> set[tuple[int, int]]:
    """Thread pairs ``(i, j)``, ``i < j``, whose first ``prefix`` events conflict.

    Two thread prefixes conflict when they share a channel that either of
    them writes or acquires: with ``writes[c, b]`` and ``uses[c, b]`` flagging
    the channels each prefix writes and touches, ``writes.T @ uses`` counts,
    per thread pair, the channels the first writes and the second touches.
    """
    writes, uses = (
        _held(table, _prefix_keys(table, keys[1:], prefix)) for keys in (table.writers, table.users)
    )
    shared = writes.T.astype(np.int64) @ uses
    return set(map(tuple, np.argwhere(np.triu(shared + shared.T, 1)).tolist()))


def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """Undirected adjacency sets of an edge list."""
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _forest_order(
    adj: Mapping[int, Iterable[int]], roots: Iterable[int]
) -> list[tuple[int, int]] | None:
    """(child, parent) pairs, top-down, of the breadth-first forest from ``roots``.

    Each root not yet reached starts a tree; neighbours are visited in sorted
    order.  Returns ``None`` when the graph reachable from the roots has a
    cycle.
    """
    parent: dict[int, int | None] = {}
    order: list[tuple[int, int]] = []
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in sorted(adj.get(u, ())):
                if v == parent[u]:
                    continue
                if v in parent:
                    return None
                parent[v] = u
                order.append((v, u))
                queue.append(v)
    return order


def trace_params(trace: Trace) -> TraceParams:
    """The ``stats`` report of a trace, computed afresh on each call."""
    table = _table(trace)
    return TraceParams(
        n=len(trace),
        k=len(trace.threads),
        num_globals=len(trace.globals_),
        num_locks=len(trace.locks),
        # the deepest stack of open critical sections in any one thread
        gamma=max((len(stack) for row in table.opens for stack in row), default=0),
        zeta=_lock_dependence_factor(trace),
        topology=communication_topology(trace),
        is_tree=table.forest,
    )


def _lock_dependence_factor(trace: Trace) -> int:
    """Max number of acquires (itself included) reaching one acquire.

    The lock-dependence graph has an edge ``acq1 -> acq2`` when ``acq1`` is
    not ordered before ``acq2`` but is ordered before ``acq2``'s release,
    while the two releases stay unordered — i.e. the first critical section
    feeds into the middle of the second.  Ordering here is the
    thread-reads-from order, read from the down-set table: the acquires of
    thread b with an edge into ``acq2`` are those at the positions
    ``[down[acq2][b], down[rel2][b])``, one range of b's acquires cut by
    counting them in b's prefixes, each kept when its own release sits at or
    past ``down[rel2][b]``.  An acquire lies below its own range, so it has
    no self-loop, and a trace without acquires scores 0.
    """
    table = _table(trace)
    down, match, pos = table.down, trace.match, trace.thread_pos
    acquires = [[e for e in row if trace.events[e - 1].kind == "acq"] for row in table.ids]
    # cut[b][m]: how many of thread b's acquires lie in its first m events
    cut = [[0, *accumulate(trace.events[e - 1].kind == "acq" for e in row)] for row in table.ids]
    radj: dict[int, list[int]] = {}
    for a2 in chain.from_iterable(acquires):
        hi = down[match[a2]]
        radj[a2] = [
            a1
            for b, row in enumerate(acquires)
            for a1 in row[cut[b][down[a2][b]] : cut[b][hi[b]]]
            if pos[match[a1]] >= hi[b]
        ]

    best = 0
    for target in radj:
        # reverse reachability: walk predecessors of target
        seen = {target}
        stack = [target]
        while stack:
            for a1 in radj[stack.pop()]:
                if a1 not in seen:
                    seen.add(a1)
                    stack.append(a1)
        best = max(best, len(seen))
    return best


# ----------------------------------------------------------------------
# race queries and query-pair isolation
# ----------------------------------------------------------------------


def _query_pair(trace: Trace, e1: int, e2: int) -> tuple[Event, Event]:
    """The events of a race query on ``(e1, e2)``.

    Raises :class:`TraceError` unless both ids name global reads/writes of
    the trace that conflict.
    """
    ev1, ev2 = trace.event(e1), trace.event(e2)
    if not (ev1.is_global_access and ev2.is_global_access):
        raise TraceError(f"events {e1} and {e2} are not both global reads/writes")
    if not conflicting(ev1, ev2):
        raise TraceError(f"events {e1} and {e2} do not conflict")
    return ev1, ev2


def wrap_pair(trace: Trace, e1: int, e2: int) -> tuple[Trace, int, int]:
    """Reduce a pair query to a single-race trace.

    Returns a trace in which ``(e1, e2)`` maps to the only candidate racy
    pair: the two chosen events each get a private critical section on a
    fresh lock, and every other global access is bracketed by both fresh
    locks, so no other pair can race.  Existing lock events are kept as-is.
    The returned ids point at the copies of ``e1`` and ``e2``.
    """
    _query_pair(trace, e1, e2)
    used = set(trace.globals_) | set(trace.locks)

    def fresh(base: str) -> str:
        name = base
        while name in used:
            name += "_"
        used.add(name)
        return name

    l1, l2 = fresh("wrap1"), fresh("wrap2")

    items: list[tuple[str, str, str]] = []
    new_e1 = new_e2 = -1
    for ev in trace.events:
        if ev.eid == e1:
            items.append((ev.thread, "acq", l1))
            new_e1 = len(items) + 1
            items.append((ev.thread, ev.kind, ev.loc))
            items.append((ev.thread, "rel", l1))
        elif ev.eid == e2:
            items.append((ev.thread, "acq", l2))
            new_e2 = len(items) + 1
            items.append((ev.thread, ev.kind, ev.loc))
            items.append((ev.thread, "rel", l2))
        elif ev.is_global_access:
            items.append((ev.thread, "acq", l1))
            items.append((ev.thread, "acq", l2))
            items.append((ev.thread, ev.kind, ev.loc))
            items.append((ev.thread, "rel", l2))
            items.append((ev.thread, "rel", l1))
        else:
            items.append((ev.thread, ev.kind, ev.loc))

    wrapped = from_events(items, synthesize_init=False)
    return wrapped, new_e1, new_e2
