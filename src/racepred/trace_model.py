"""Events, traces, and the concrete trace file format.

A trace is a sequence of events, each performed by a thread on a shared
location.  Threads interact through global variables (``w``/``r`` events) and
through locks (``acq``/``rel`` events).  The file format is line oriented,
each line ending at ``\n``, ``\r\n`` or ``\r`` and nowhere else::

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

A :class:`Trace` is built from one input form, three columns of names
indexed by ``eid - 1``: each event's thread, kind and location.  Parsing
fills them straight from the lines, and the trace stores them with the
thread's name replaced by its number; every query reads these columns.  An
:class:`Event` is an output view, built only where the API hands one out
(``Trace.event``, ``Trace.events`` and iteration); no trace is built from
events.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, count
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
    "communication_topology",
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
    """One step of a trace, as the trace hands it out: ``thread`` performs
    ``kind`` (one of :data:`KINDS`) on ``loc``.

    ``eid`` is the event's 1-based position in the trace.  Every role is
    read from ``kind``; ``writes_like`` and ``observes`` name the two roles
    that :func:`conflicting` and replays of the reads-from map read.
    """

    eid: int
    thread: str
    kind: str
    loc: str

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
    """An immutable, validated event sequence, stored as columns.

    ``Trace(threads, kinds, locs)`` takes the events as three equally long
    columns of names, event ``eid`` at entry ``eid - 1``: the one input form
    of a trace, which :func:`from_events` and :func:`parse_trace` fill.  The
    trace stores event ``eid`` as entry ``eid - 1`` of three tuples: ``tid``,
    its thread's number (an index into ``threads``), ``kind`` and ``loc``.
    These columns are the one stored form of the events; every query reads
    them.  An :class:`Event` is an output view built on demand: :meth:`event`
    builds the one it returns, and ``events`` builds them all on first
    access and keeps them.  Beside the columns the trace exposes the
    derived structure everything else builds on: each thread's event ids in program order
    (``by_thread``, by thread number, the one stored form of a thread's
    events), the observed-writer map ``rf`` (reads to writes, releases to
    their matching acquires), and acquire/release matching.  An event's
    position in its thread is not stored here: it is ``down[e][b] - 1`` in
    the down-set table.  The whole-trace facts that queries share live in
    one cache, the down-set table :func:`_table` (the one stored form of the
    TRF, the channel index and the communication topology), built on first
    use and kept on the trace.

    The constructor is the one checker of trace input, parsed or built: the
    columns must have one length, every kind must be one of :data:`KINDS`, and
    every thread and location name one the file format allows, so that
    :func:`serialize` writes text that :func:`parse_trace` reads back; each
    location keeps one role, every read follows a write, and locks are held
    by one thread at a time and released innermost first.  The loop checks
    them and builds every map, testing each name once, so a sequence with
    several faults reports its first faulty event in trace order, and every
    fault names its event id (an unreleased acquire shows only at the end).
    A trace keeps its events, not where they came from: no query reads a
    source line.
    """

    __slots__ = (
        "tid",
        "kind",
        "loc",
        "threads",
        "globals_",
        "locks",
        "rf",
        "match",
        "by_thread",
        "num_synthesized",
        "_events",
        "_ideals",
    )

    def __init__(
        self, threads: Sequence[str], kinds: Sequence[str], locs: Sequence[str], *,
        num_synthesized: int = 0,
    ):
        if not len(threads) == len(kinds) == len(locs):
            raise TraceError(f"columns differ in length: {len(threads)}, {len(kinds)}, {len(locs)}")
        index: dict[str, int] = {}  # thread -> its number, in order of first event
        roles: dict[str, str] = {}  # loc -> "global" | "lock"
        tid: list[int] = []
        by_thread: list[list[int]] = []
        opened: list[list[int]] = []  # each thread's open acquires, innermost last
        holder: dict[str, int] = {}  # lock -> open acquire
        last_writer: dict[str, int] = {}
        rf: dict[int, int] = {}  # reads to their writes, releases to their acquires
        match: dict[int, int] = {}  # acquires and releases to each other
        for eid, thread, kind, loc in zip(count(1), threads, kinds, locs):
            if kind not in KINDS:
                raise TraceError(f"bad operation {kind!r} (event {eid})")
            b = index.get(thread)
            if b is None:
                if not _THREAD_RE.fullmatch(thread):
                    raise TraceError(f"bad thread name {thread!r} (event {eid})")
                b = index[thread] = len(by_thread)
                by_thread.append([])
                opened.append([])
            if num_synthesized and eid > num_synthesized and thread == INIT_THREAD:
                raise TraceError(
                    f"thread {INIT_THREAD!r} is reserved for synthesized initial "
                    f"writes (event {eid})"
                )
            want = "global" if kind == "w" or kind == "r" else "lock"
            have = roles.get(loc)
            if have is None:
                if not _LOCATION_RE.fullmatch(loc):
                    raise TraceError(f"bad location {loc!r} (event {eid})")
                roles[loc] = want
            elif have != want:
                raise TraceError(
                    f"location {loc!r} used as both a {have} and a {want} (event {eid})"
                )
            tid.append(b)
            by_thread[b].append(eid)
            if kind == "w":
                last_writer[loc] = eid
            elif kind == "r":
                if loc not in last_writer:
                    raise TraceError(f"read of {loc!r} (event {eid}) has no earlier write")
                rf[eid] = last_writer[loc]
            elif kind == "acq":
                held = holder.setdefault(loc, eid)
                if held != eid:
                    who = "itself" if tid[held - 1] == b else threads[held - 1]
                    raise TraceError(
                        f"acquire of {loc!r} (event {eid}) while held by "
                        f"{who} since event {held}"
                    )
                opened[b].append(eid)
            else:
                held = holder.pop(loc, None)
                if held is None or tid[held - 1] != b:
                    raise TraceError(
                        f"release of {loc!r} (event {eid}) without a "
                        f"matching acquire in {thread}"
                    )
                if opened[b].pop() != held:
                    raise TraceError(
                        f"release of {loc!r} (event {eid}) violates lock "
                        f"nesting in {thread}"
                    )
                rf[eid] = match[eid] = held
                match[held] = eid
        if holder:
            raise TraceError(f"unreleased acquires at end of trace: {sorted(holder.values())}")
        self.tid: tuple[int, ...] = tuple(tid)
        self.kind: tuple[str, ...] = tuple(kinds)
        self.loc: tuple[str, ...] = tuple(locs)
        self.num_synthesized = num_synthesized
        self.threads: tuple[str, ...] = tuple(index)
        self.globals_ = frozenset(x for x, role in roles.items() if role == "global")
        self.locks = frozenset(x for x, role in roles.items() if role == "lock")
        self.by_thread: tuple[tuple[int, ...], ...] = tuple(map(tuple, by_thread))
        self.rf, self.match = rf, match
        self._events: tuple[Event, ...] | None = None
        self._ideals: _Table | None = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tid)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event, in order: built from the columns on first access and
        kept.  No query reads them."""
        if self._events is None:
            names = map(self.threads.__getitem__, self.tid)
            self._events = tuple(map(Event, count(1), names, self.kind, self.loc))
        return self._events

    def event(self, eid: int) -> Event:
        """Event ``eid``, built from the columns on each call."""
        b, eid = self.thread_of(eid), operator.index(eid)
        return Event(eid, self.threads[b], self.kind[eid - 1], self.loc[eid - 1])

    def thread_of(self, eid: int) -> int:
        """The number of event ``eid``'s thread, read from the ``tid`` column;
        :class:`TraceError` for an id that is not an integer
        (``operator.index``) or is out of range."""
        try:
            eid = operator.index(eid)
        except TypeError:
            raise TraceError(f"event id {eid!r} is not an integer") from None
        if not 1 <= eid <= len(self.tid):
            raise TraceError(f"event id {eid} out of range 1..{len(self.tid)}")
        return self.tid[eid - 1]

    def is_synthesized(self, eid: int) -> bool:
        """Whether ``eid`` is a synthesized initial write on ``t0``."""
        return eid <= self.num_synthesized

    def projection(self, thread: str) -> tuple[int, ...]:
        """The thread's event ids in program order: its row of ``by_thread``;
        :class:`TraceError` for a thread the trace does not have."""
        if thread not in self.threads:
            raise TraceError(f"no thread {thread!r} in the trace")
        return self.by_thread[self.threads.index(thread)]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def from_events(
    items: Iterable[tuple[str, str, str]],
    *,
    synthesize_init: bool = True,
) -> Trace:
    """Build a trace from ``(thread, kind, loc)`` triples, numbering them
    from 1 after any synthesized writes, so item i (from 1) is event
    ``num_synthesized + i``; :class:`Trace` checks the events.  The items
    go straight into the trace's input columns: no :class:`Event` is built.

    With ``synthesize_init`` (the default), a write on thread ``t0`` is
    prepended for every global whose first access is a read, in the order of
    those reads; otherwise such a read is an error.  ``t0`` is reserved for
    this purpose: :class:`Trace` rejects an input event on it while synthesis
    is needed.  The synthesized writes come first and carry the global's name,
    so a bad name read first is reported on its write: ``t1 w a`` then
    ``t1 r 9x`` fails with ``bad location '9x' (event 1)``.
    """
    threads, kinds, locs = zip(*items, strict=True) if (items := list(items)) else ((), (), ())
    synthesized: list[str] = []
    if synthesize_init:
        first: dict[str, str] = {}  # each global's first access
        for kind, loc in zip(kinds, locs):
            if (kind == "w" or kind == "r") and loc not in first:
                first[loc] = kind
        synthesized = [loc for loc, kind in first.items() if kind == "r"]
    m = len(synthesized)
    threads, kinds, locs = (INIT_THREAD,) * m + threads, ("w",) * m + kinds, (*synthesized, *locs)
    return Trace(threads, kinds, locs, num_synthesized=m)


def parse_trace(text: str, *, synthesize_init: bool = True) -> Trace:
    """Parse trace text (see the module docstring for the format).

    Each line that holds an event is one item of :func:`from_events`, so the
    i-th such line is event ``num_synthesized + i``.  Line numbers, in
    errors and for ``predict --by-line``, count every line from 1, blank and
    comment lines included; the trace keeps none of them.

    A malformed line is reported before any fault of an event, whatever
    their order in the text: with ``synthesize_init`` every event id depends
    on every line, so the events are numbered and checked only once all
    lines are read.
    """
    items: list[list[str]] = []
    for lineno, line, body in _content_lines(text):
        parts = body.split()
        if len(parts) != 3:
            raise TraceError(
                f"line {lineno}: expected '<thread> <op> <location>', got {line!r}"
            )
        items.append(parts)
    return from_events(items, synthesize_init=synthesize_init)


def _content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """``(lineno, line, body)`` for each line of ``text`` that has content
    once its ``#`` comment is cut, in order: ``body`` is the line with that
    comment and the surrounding whitespace cut off, and ``lineno`` counts
    every line from 1, blank and comment lines included.  The trace, vector
    and edge-list readers all take their lines from here, each parsing
    ``body`` by its own format."""
    for lineno, line in enumerate(_lines(text), start=1):
        if body := line.partition("#")[0].strip():
            yield lineno, line, body


def _lines(text: str) -> list[str]:
    """``text`` cut at each ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else: unlike
    :meth:`str.splitlines`, a form feed or a Unicode line separator ends no
    line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def serialize(trace: Trace) -> str:
    """Render a trace in the file format.

    Synthesized initial writes are skipped so that
    ``parse_trace(serialize(t))`` reproduces ``t`` exactly, synthesis
    included (re-parsing regenerates the same init block in the same
    order).
    """
    skip, names = trace.num_synthesized, trace.threads
    lines = [
        f"{names[b]} {kind} {loc}"
        for b, kind, loc in zip(trace.tid[skip:], trace.kind[skip:], trace.loc[skip:])
    ]
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# the per-trace down-set table
# ----------------------------------------------------------------------


class _Table(NamedTuple):
    """The trace's one cache: the facts queries read, by thread index ``b``.

    ``down[e]`` is the prefix vector of event e's downward closure (e
    included) under the thread-reads-from order; ``down[0]`` is the empty
    ideal.  ``opens[b][m]`` holds the acquires left open by thread b's first m
    events, innermost last.  ``ids`` is ``Trace.by_thread`` itself, not a copy:
    ``ids[b]`` holds thread b's event ids in program order.  An event's
    position in its thread is ``down[e][b] - 1``, so no map stores it.  The
    channel index is flat and does not depend on any universe: ``chan[e]``
    numbers event e's location in ``channels``, the locations in sorted order,
    and ``writes_like[e]`` flags writes and acquires.  ``users`` keys every
    event and ``writers`` every write and acquire as
    ``(chan·k + b)·span + position``, with ``span`` the longest thread plus 2;
    each is sorted and starts with a ``-1`` sentinel, so a (channel, thread)
    pair is one contiguous run, in program order, and an ideal's part of it
    is the keys whose position is below the ideal's prefix entry for the
    thread (:func:`_prefix_keys`).  ``source[e]`` is the write or acquire
    that event e observes, or 0: the observed-writer map ``Trace.rf`` as an
    array, which a universe's observers and their writers are read from.
    ``adj`` is the communication topology as adjacency sets of thread
    indices, read off the channel index by :func:`_conflict_graph`; a thread
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
    ``down``, ``opens`` and the channel index; the last entry of
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
        channels = tuple(sorted(trace.globals_ | trace.locks))
        number = {x: c for c, x in enumerate(channels)}
        span = max(map(len, trace.by_thread), default=0) + 2
        chan, writes_like = [-1] * (n + 1), [False] * (n + 1)
        users, writers = [-1], [-1]
        rf = trace.rf
        for e, b, kind, loc in zip(count(1), trace.tid, trace.kind, trace.loc):
            vec, stack = last[b], opens[b][-1]
            c = chan[e] = number[loc]
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
        channel_index = np.array(chan), np.array(writes_like), span, np.sort(users), np.sort(writers)
        source = np.zeros(n + 1, dtype=np.int64)
        source[list(rf)] = list(rf.values())
        rows = tuple(map(tuple, opens)), trace.by_thread
        table = _Table(down, *rows, channels, *channel_index, source, {}, True)
        adj = _conflict_graph(table, list(map(len, trace.by_thread)))
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


def _conflict_graph(table: _Table, prefix: Sequence[int]) -> dict[int, set[int]]:
    """The thread conflict graph of the first ``prefix`` events of each
    thread, as undirected adjacency sets; a thread with no edge has no entry.

    Two thread prefixes conflict when they share a channel that either of
    them writes or acquires: with ``writes[c, b]`` and ``uses[c, b]`` flagging
    the channels each prefix writes and touches, ``writes.T @ uses`` counts,
    per thread pair, the channels the first writes and the second touches.
    """
    writes, uses = (
        _held(table, _prefix_keys(table, keys[1:], prefix)) for keys in (table.writers, table.users)
    )
    shared = writes.T.astype(np.int64) @ uses
    linked = np.triu(shared + shared.T, 1)  # each pair once, no thread with itself
    linked = linked + linked.T
    return {a: set(np.flatnonzero(row).tolist()) for a, row in enumerate(linked) if row.any()}


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
    counting them in b's prefixes, each kept when its own release rel1 sits
    at or past ``down[rel2][b]``, at position ``down[rel1][b] - 1``.  An
    acquire lies below its own range, so it has no self-loop, and a trace
    without acquires scores 0.
    """
    table = _table(trace)
    down, match = table.down, trace.match
    kind = trace.kind
    acquires = [[e for e in row if kind[e - 1] == "acq"] for row in table.ids]
    # cut[b][m]: how many of thread b's acquires lie in its first m events
    cut = [[0, *accumulate(kind[e - 1] == "acq" for e in row)] for row in table.ids]
    radj: dict[int, list[int]] = {}
    for a2 in chain.from_iterable(acquires):
        hi = down[match[a2]]
        radj[a2] = [
            a1
            for b, row in enumerate(acquires)
            for a1 in row[cut[b][down[a2][b]] : cut[b][hi[b]]]
            if down[match[a1]][b] - 1 >= hi[b]
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


def _query_pair(trace: Trace, e1: int, e2: int) -> tuple[int, int]:
    """The thread numbers of a race query on ``(e1, e2)``, read from the
    columns.

    Raises :class:`TraceError` unless both ids name global reads/writes of
    the trace that conflict.
    """
    b1, b2 = trace.thread_of(e1), trace.thread_of(e2)
    k1, k2 = trace.kind[e1 - 1], trace.kind[e2 - 1]
    if not (k1 in ("w", "r") and k2 in ("w", "r")):
        raise TraceError(f"events {e1} and {e2} are not both global reads/writes")
    if e1 == e2 or trace.loc[e1 - 1] != trace.loc[e2 - 1] or k1 == k2 == "r":
        raise TraceError(f"events {e1} and {e2} do not conflict")
    return b1, b2


def wrap_pair(trace: Trace, e1: int, e2: int) -> tuple[Trace, int, int]:
    """Reduce a pair query to a single-race trace.

    Returns a trace in which ``(e1, e2)`` maps to the only candidate racy
    pair: the two chosen events each get a private critical section on a
    fresh lock, and every other global access is bracketed by both fresh
    locks, so no other pair can race.  Each event acquires the wrap locks
    it needs (``l1`` for e1, ``l2`` for e2, ``l1`` then ``l2`` for any other
    global access), runs, and releases them in reverse order; existing lock
    events need none and are kept as-is.  The returned ids point at the
    copies of ``e1`` and ``e2``.
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
    brackets = {e1: (l1,), e2: (l2,)}
    items: list[tuple[str, str, str]] = []
    at: dict[int, int] = {}  # old id -> new id
    names = trace.threads
    for eid, b, kind, loc in zip(count(1), trace.tid, trace.kind, trace.loc):
        thread = names[b]
        locks = brackets.get(eid, (l1, l2) if kind == "w" or kind == "r" else ())
        items += [(thread, "acq", lock) for lock in locks]
        items.append((thread, kind, loc))
        at[eid] = len(items)
        items += [(thread, "rel", lock) for lock in reversed(locks)]
    return from_events(items, synthesize_init=False), at[e1], at[e2]
