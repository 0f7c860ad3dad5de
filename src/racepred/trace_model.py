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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from operator import gt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

_THREAD_RE = re.compile(r"^t[0-9]+$")
_LOCATION_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


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
    communication topology), built on first use and kept on the trace.
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

        threads: list[str] = []
        roles: dict[str, str] = {}  # loc -> "global" | "lock"
        for ev in self.events:
            if ev.thread not in threads:
                threads.append(ev.thread)
            want = "global" if ev.is_global_access else "lock"
            have = roles.setdefault(ev.loc, want)
            if have != want:
                raise TraceError(
                    f"location {ev.loc!r} used as both a {have} and a {want} "
                    f"(event {ev.eid})"
                )
        self.threads: tuple[str, ...] = tuple(threads)
        self.thread_index = {p: i for i, p in enumerate(threads)}
        self.globals_ = frozenset(x for x, role in roles.items() if role == "global")
        self.locks = frozenset(x for x, role in roles.items() if role == "lock")

        by_thread: list[list[Event]] = [[] for _ in threads]
        thread_pos: dict[int, int] = {}
        for ev in self.events:
            lst = by_thread[self.thread_index[ev.thread]]
            thread_pos[ev.eid] = len(lst)
            lst.append(ev)
        self.by_thread: tuple[tuple[Event, ...], ...] = tuple(
            tuple(lst) for lst in by_thread
        )
        self.thread_pos = thread_pos

        self.rf, self.match = self._replay()
        self._ideals: _Table | None = None

    # ------------------------------------------------------------------
    # validation / derived maps
    # ------------------------------------------------------------------

    def _replay(self) -> tuple[dict[int, int], dict[int, int]]:
        """Replay the sequence, validating lock semantics and read totality.

        Returns ``(rf, match)`` where ``rf`` maps each read to the write it
        observes and each release to its acquire, and ``match`` maps acquires
        and releases to each other.
        """
        rf: dict[int, int] = {}
        match: dict[int, int] = {}
        last_writer: dict[str, int] = {}
        holder: dict[str, Event] = {}  # lock -> open acquire
        open_by_thread: dict[str, list[Event]] = {p: [] for p in self.threads}

        for ev in self.events:
            if ev.is_write:
                last_writer[ev.loc] = ev.eid
            elif ev.is_read:
                w = last_writer.get(ev.loc)
                if w is None:
                    raise TraceError(
                        f"read of {ev.loc!r} (event {ev.eid}) has no earlier write"
                    )
                rf[ev.eid] = w
            elif ev.is_acquire:
                held = holder.get(ev.loc)
                if held is not None:
                    who = "itself" if held.thread == ev.thread else held.thread
                    raise TraceError(
                        f"acquire of {ev.loc!r} (event {ev.eid}) while held by "
                        f"{who} since event {held.eid}"
                    )
                holder[ev.loc] = ev
                open_by_thread[ev.thread].append(ev)
            else:  # release
                held = holder.get(ev.loc)
                if held is None or held.thread != ev.thread:
                    raise TraceError(
                        f"release of {ev.loc!r} (event {ev.eid}) without a "
                        f"matching acquire in {ev.thread}"
                    )
                if open_by_thread[ev.thread][-1] is not held:
                    raise TraceError(
                        f"release of {ev.loc!r} (event {ev.eid}) violates lock "
                        f"nesting in {ev.thread}"
                    )
                del holder[ev.loc]
                open_by_thread[ev.thread].pop()
                match[held.eid] = ev.eid
                match[ev.eid] = held.eid
                rf[ev.eid] = held.eid

        if holder:
            open_ids = sorted(a.eid for a in holder.values())
            raise TraceError(f"unreleased acquires at end of trace: {open_ids}")
        return rf, match

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
    """Build a validated trace from ``(thread, kind, loc)`` triples.

    With ``synthesize_init`` (the default), a write on thread ``t0`` is
    prepended for every global whose first access is a read; otherwise such a
    read is an error.  ``t0`` is reserved for this purpose: supplying it in
    the input while synthesis is needed is an error.
    """
    raw = list(items)
    for i, (thread, kind, loc) in enumerate(raw):
        if not _THREAD_RE.match(thread):
            raise TraceError(f"bad thread name {thread!r} (entry {i + 1})")
        if kind not in KINDS:
            raise TraceError(f"bad operation {kind!r} (entry {i + 1})")
        if not _LOCATION_RE.match(loc):
            raise TraceError(f"bad location {loc!r} (entry {i + 1})")

    needs_init: list[str] = []
    first_seen: set[str] = set()
    for thread, kind, loc in raw:
        if kind in ("w", "r") and loc not in first_seen:
            first_seen.add(loc)
            if kind == "r":
                needs_init.append(loc)

    synthesized: list[tuple[str, str, str]] = []
    if needs_init and synthesize_init:
        user_threads = {thread for thread, _, _ in raw}
        if INIT_THREAD in user_threads:
            raise TraceError(
                f"thread {INIT_THREAD!r} is reserved for synthesized initial "
                "writes but appears in the input"
            )
        synthesized = [(INIT_THREAD, "w", loc) for loc in needs_init]

    events = [
        Event(i + 1, thread, kind, loc)
        for i, (thread, kind, loc) in enumerate(synthesized + raw)
    ]
    lines: dict[int, int] = {}
    if source_lines is not None:
        if len(source_lines) != len(raw):
            raise ValueError("source_lines must align with the input items")
        offset = len(synthesized)
        lines = {offset + i + 1: ln for i, ln in enumerate(source_lines)}
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
    program order.  The channel index, keyed by location in sorted order:
    ``users[x][b]`` holds the positions in thread b of its events on x and
    ``writers[x][b]`` those of its writes and acquires, cut at an ideal's
    prefix by :func:`_cut`; ``writes_like[e]`` flags writes and acquires.
    ``adj`` is the communication topology as adjacency sets of thread
    indices, read off the channel index; a thread with no edge has no entry.
    ``forest`` is whether that topology is a forest, which routes queries.
    """

    down: list[tuple[int, ...]]
    opens: tuple[tuple[tuple[int, ...], ...], ...]
    ids: tuple[tuple[int, ...], ...]
    users: dict[str, list[list[int]]]
    writers: dict[str, list[list[int]]]
    writes_like: tuple[bool, ...]
    adj: dict[int, set[int]]
    forest: bool


def _table(trace: Trace) -> _Table:
    """The trace's down-set table, built on first use and kept on it.

    ``down[e]`` is the pointwise max of its thread predecessor's and, for a
    read, its writer's vector, with e's own slot raised by one.  A release
    observes an acquire of its own thread, which its thread predecessor
    already covers.  ``opens`` and the channel index share one pass per thread.
    """
    if trace._ideals is None:
        k = len(trace.threads)
        zero = (0,) * k
        down = [zero] * (len(trace) + 1)
        last = [zero] * k  # down of each thread's latest event so far
        for ev in trace.events:
            b = trace.thread_index[ev.thread]
            vec = last[b]
            if ev.is_read:
                vec = _join(vec, down[trace.rf[ev.eid]])
            down[ev.eid] = last[b] = vec[:b] + (vec[b] + 1,) + vec[b + 1 :]
        opens = []
        users = {x: [[] for _ in range(k)] for x in sorted(trace.globals_ | trace.locks)}
        writers = {x: [[] for _ in range(k)] for x in users}
        for b, proj in enumerate(trace.by_thread):
            stack: tuple[int, ...] = ()
            row = [stack]
            for pos, ev in enumerate(proj):
                users[ev.loc][b].append(pos)
                if ev.writes_like:
                    writers[ev.loc][b].append(pos)
                if ev.is_acquire:
                    stack += (ev.eid,)
                elif ev.is_release:
                    stack = stack[:-1]  # the trace guarantees proper nesting
                row.append(stack)
            opens.append(tuple(row))
        ids = tuple(tuple(ev.eid for ev in proj) for proj in trace.by_thread)
        writes_like = (False, *(ev.writes_like for ev in trace.events))
        table = _Table(down, tuple(opens), ids, users, writers, writes_like, {}, True)
        adj = _adjacency(_conflict_edges(table, [len(row) for row in ids]))
        forest = _forest_order(adj, range(k)) is not None
        trace._ideals = table._replace(adj=adj, forest=forest)
    return trace._ideals


def _cut(rows: Sequence[list[int]], lengths: Iterable[int]) -> list[list[int]]:
    """Each thread's row of positions cut to those below its entry of ``lengths``."""
    return [row[: bisect_left(row, m)] for row, m in zip(rows, lengths)]


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

    Two thread prefixes conflict when they share a location that either of
    them writes or acquires; the channel index lists both per location.
    """
    edges = set()
    for x, rows in table.users.items():
        touch = [b for b, row in enumerate(rows) if row and row[0] < prefix[b]]
        for i in touch:
            row = table.writers[x][i]
            if row and row[0] < prefix[i]:
                edges.update((min(i, j), max(i, j)) for j in touch if j != i)
    return edges


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
    thread-reads-from order, read from the down-set table.
    """
    acquires = [ev.eid for ev in trace.events if ev.is_acquire]
    if not acquires:
        return 0
    down = _table(trace).down
    index, pos = trace.thread_index, trace.thread_pos

    def before(u: int, v: int) -> bool:
        """u is strictly before v: a distinct member of v's downward closure."""
        return u != v and pos[u] < down[v][index[trace.events[u - 1].thread]]

    radj: dict[int, list[int]] = {a: [] for a in acquires}
    for a1 in acquires:
        r1 = trace.match[a1]
        for a2 in acquires:
            if a1 == a2:
                continue
            r2 = trace.match[a2]
            if not before(a1, a2) and before(a1, r2) and not before(r1, r2):
                radj[a2].append(a1)

    best = 0
    for target in acquires:
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
