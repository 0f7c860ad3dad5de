"""Adversarial and random trace generators.

Two families of hard instances, each a faithful rendering of a known
fine-grained reduction, plus a seeded random generator for corpus tests:

* :func:`gen_ov_trace` turns an orthogonal-vectors instance into a
  two-thread trace (variables ``x1``..``x7``, ``y``, ``z``, one lock)
  whose query pair ``(w(z), r(z))`` races iff some pair of vectors is
  orthogonal.
* :func:`gen_indset_trace` turns a graph plus a target size ``c`` into a
  ``2c + 2``-thread trace whose query pair ``(w(x), r(x))`` races iff the
  graph has an independent set of size ``c``.
* :func:`gen_random_trace` draws a valid trace (well-nested non-reentrant
  locks, reads only of written locations) deterministically from a seed.
"""

from dataclasses import dataclass
from itertools import combinations
import random

from .trace_model import Trace, _content_lines, from_events

__all__ = [
    "OvInstance",
    "IsInstance",
    "gen_ov_trace",
    "gen_indset_trace",
    "gen_random_trace",
    "strip_isolated_nodes",
    "parse_vectors",
    "parse_edge_list",
]


# ----------------------------------------------------------------------
# orthogonal vectors
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OvInstance:
    """Two equal-size sets of binary vectors in ``dim`` dimensions."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(tuple(v) for v in self.a))
        object.__setattr__(self, "b", tuple(tuple(v) for v in self.b))
        if len(self.a) != len(self.b):
            raise ValueError("vector sets must have equal size")
        if not self.a:
            raise ValueError("vector sets must be non-empty")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        for v in self.a + self.b:
            if len(v) != self.dim:
                raise ValueError(f"vector {v} does not have {self.dim} entries")
            if any(bit not in (0, 1) for bit in v):
                raise ValueError(f"vector {v} has non-binary entries")

    @property
    def has_orthogonal_pair(self) -> bool:
        return any(
            all(x * y == 0 for x, y in zip(u, v)) for u in self.a for v in self.b
        )


def parse_vectors(text: str) -> tuple[tuple[int, ...], ...]:
    """One binary string per line, e.g. ``101``; blank and ``#`` comment
    lines are skipped, as in trace files."""
    vectors = []
    for lineno, _, body in _content_lines(text):
        if any(ch not in "01" for ch in body):
            raise ValueError(f"line {lineno}: expected a binary string, got {body!r}")
        vectors.append(tuple(int(ch) for ch in body))
    return tuple(vectors)


def gen_ov_trace(inst: OvInstance) -> tuple[Trace, tuple[int, int]]:
    """Two-thread trace racing on ``(w(z), r(z))`` iff an orthogonal pair exists.

    Thread ``t2`` encodes the ``b`` vectors (last segment first) and runs
    to completion before thread ``t1``, which encodes the ``a`` vectors in
    order.  Each segment spells one vector coordinate-by-coordinate from the
    highest coordinate down; the relative order of the two ``x1``/``x2``
    writes per coordinate encodes the bit.  Chain variables ``x3``..``x7``
    propagate the pairwise non-orthogonality tests, and the ``y``/``z``/lock
    insertions tie the query pair to the chain's consistency.
    """
    m, dim = len(inst.a), inst.dim
    items: list[tuple[str, str, str]] = []

    def emit(thread: str, kind: str, loc: str) -> int:
        items.append((thread, kind, loc))
        return len(items)

    w_z = -1
    # thread t2: segments b_m, ..., b_1, coordinates high to low
    for seg in range(m, 0, -1):
        bits = inst.b[seg - 1]
        for coord in range(dim, 0, -1):
            head = ("x1", "x2") if bits[coord - 1] == 1 else ("x2", "x1")
            for var in head:
                emit("t2", "w", var)
                if seg == m and coord == 1 and var == "x2":
                    emit("t2", "w", "y")
            if coord < dim:
                emit("t2", "r", "x3")
            if coord >= 2:
                emit("t2", "w", "x3")
                emit("t2", "r", "x1")
                emit("t2", "w", "x6")
            else:
                if seg == 1:
                    emit("t2", "w", "x7")
                if seg <= m - 1:
                    emit("t2", "r", "x4")
                if seg >= 2:
                    emit("t2", "w", "x4")
                if seg == 1:
                    emit("t2", "acq", "l")
                emit("t2", "r", "x1")
                if seg == 1:
                    w_z = emit("t2", "w", "z")
                    emit("t2", "rel", "l")
                if seg == m:
                    emit("t2", "w", "x5")

    # thread t1: segments a_1, ..., a_m, coordinates high to low
    for seg in range(1, m + 1):
        bits = inst.a[seg - 1]
        for coord in range(dim, 0, -1):
            head = ("x2", "x1") if bits[coord - 1] == 1 else ("x1", "x2")
            for var in head:
                emit("t1", "w", var)
                if seg == 1 and coord == 1 and var == "x1":
                    emit("t1", "acq", "l")
                    emit("t1", "rel", "l")
            if coord < dim:
                emit("t1", "r", "x6")
            if coord >= 2:
                emit("t1", "w", "x3")
                emit("t1", "w", "x6")
                emit("t1", "r", "x2")
            else:
                if seg >= 2:
                    emit("t1", "r", "x7")
                emit("t1", "w", "x4")
                if seg <= m - 1:
                    emit("t1", "w", "x5")
                if seg == m:
                    emit("t1", "r", "y")
                emit("t1", "r", "x2")
                if seg <= m - 1:
                    emit("t1", "w", "x7")
                    emit("t1", "r", "x5")
    r_z = emit("t1", "r", "z")

    return from_events(items, synthesize_init=False), (w_z, r_z)


# ----------------------------------------------------------------------
# independent set
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IsInstance:
    """Simple undirected graph on nodes ``1..n``, ``n >= 1``, plus a target
    set size."""

    n: int
    edges: frozenset[tuple[int, int]]
    c: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("the graph needs at least one node")
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) leaves the node range 1..{self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))
        if self.c < 1:
            raise ValueError("target set size must be at least 1")
        touched = {u for e in self.edges for u in e}
        isolated = sorted(set(range(1, self.n + 1)) - touched)
        if isolated:
            raise ValueError(
                f"isolated nodes {isolated}; strip them first "
                "(see strip_isolated_nodes)"
            )

    def neighbors(self, node: int) -> list[int]:
        return sorted(
            v if u == node else u for u, v in self.edges if node in (u, v)
        )

    @property
    def has_independent_set(self) -> bool:
        if self.c > self.n:
            return False
        nodes = range(1, self.n + 1)
        return any(
            all((min(p), max(p)) not in self.edges for p in combinations(pick, 2))
            for pick in combinations(nodes, self.c)
        )


def strip_isolated_nodes(
    n: int, edges: frozenset[tuple[int, int]] | set[tuple[int, int]], c: int
) -> tuple[int, frozenset[tuple[int, int]], int]:
    """Drop degree-zero nodes, relabel compactly, and shrink ``c`` to match.

    A size-``c`` independent set exists in the input iff a size-``c'``
    one exists in the output, because isolated nodes join any independent
    set for free.
    """
    touched = sorted({u for e in edges for u in e})
    relabel = {node: i + 1 for i, node in enumerate(touched)}
    new_edges = frozenset(
        (min(relabel[u], relabel[v]), max(relabel[u], relabel[v])) for u, v in edges
    )
    stripped = n - len(touched)
    return len(touched), new_edges, c - stripped


def parse_edge_list(text: str) -> tuple[int, frozenset[tuple[int, int]]]:
    """One ``u v`` pair per line, 1-based ASCII node ids; n = the largest id
    seen.  Blank and ``#`` comment lines are skipped, as in trace files."""
    edges = set()
    top = 0
    for lineno, _, body in _content_lines(text):
        parts = body.split()
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"line {lineno}: expected 'u v', got {body!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 1 or v < 1:
            raise ValueError(f"line {lineno}: node ids are 1-based")
        edges.add((min(u, v), max(u, v)))
        top = max(top, u, v)
    return top, frozenset(edges)


def gen_indset_trace(inst: IsInstance) -> tuple[Trace, tuple[int, int]]:
    """``2c + 2``-thread trace racing on ``(w(x), r(x))`` iff a size-``c``
    independent set exists.

    Threads ``t1..tc`` each walk every node of the graph, wrapping each
    node's visit in nested critical sections on that node's edge locks;
    relay threads ``t(c+1)..t(2c)`` thread a write/read chain through the
    visits so the walk order is pinned by reads-from.  Thread ``t(2c+1)``
    is the lone ``w(x)``, and ``t(2c+2)`` closes with ``r(x)`` inside
    nested sections on the relay locks.  Racing the query pair requires
    suspending one node visit per walker at ``r(x)``, which lock mutual
    exclusion permits only for pairwise non-adjacent nodes.
    """
    c, n = inst.c, inst.n
    items: list[tuple[str, str, str]] = []

    def emit(thread: str, kind: str, loc: str) -> int:
        items.append((thread, kind, loc))
        return len(items)

    def edge_lock(u: int, v: int) -> str:
        return f"L_e_{min(u, v)}_{max(u, v)}"

    w_x = emit(f"t{2 * c + 1}", "w", "x")

    for i in range(1, c + 1):
        walker, relay = f"t{i}", f"t{c + i}"

        def open_visit(node: int) -> None:
            # acquire the node's edge locks, then its first payload write
            for other in inst.neighbors(node):
                emit(walker, "acq", edge_lock(node, other))
            if node == 1:
                emit(walker, "w", f"s{i}")
            else:
                emit(walker, "w", f"y{i}_{node}")

        def close_visit(node: int) -> None:
            # the payload read, then release in reverse order
            if node == n:
                emit(walker, "r", "x")
            else:
                emit(walker, "r", f"z{i}_{node}")
            for other in reversed(inst.neighbors(node)):
                emit(walker, "rel", edge_lock(node, other))

        open_visit(1)
        for j in range(1, n):
            emit(relay, "acq", f"L_r_{i}")
            emit(relay, "w", f"z{i}_{j}")
            close_visit(j)
            open_visit(j + 1)
            emit(relay, "r", f"y{i}_{j + 1}")
            emit(relay, "rel", f"L_r_{i}")
        close_visit(n)

    final = f"t{2 * c + 2}"
    for i in range(1, c + 1):
        emit(final, "r", f"s{i}")
    for i in range(1, c + 1):
        emit(final, "acq", f"L_r_{i}")
    r_x = emit(final, "r", "x")
    for i in range(c, 0, -1):
        emit(final, "rel", f"L_r_{i}")

    return from_events(items, synthesize_init=False), (w_x, r_x)


# ----------------------------------------------------------------------
# random corpus
# ----------------------------------------------------------------------


def gen_random_trace(
    seed: int,
    n: int,
    k: int,
    d_globals: int,
    d_locks: int,
    read_ratio: float,
    lock_ratio: float,
    nesting_max: int,
) -> Trace:
    """Seed-deterministic valid trace with roughly the requested shape.

    There are ``max(n, k)`` picks of a thread, each thread picked at least
    once.  With a global to fall back on, every pick emits one event, so
    the trace has at least ``max(n, k)`` events and every thread gets one.
    A locks-only trace (``d_globals=0``, which needs ``lock_ratio=1``)
    drops each pick whose thread holds no lock while every lock is held
    elsewhere, so it may be far shorter and leave threads without events;
    it holds only whole critical sections, at least one.  Closing the
    sections left open at the end adds at most one release per lock, so no
    trace has more than ``max(n, k) + d_locks`` events.  Reads only target
    already-written globals, locks are well-nested and non-reentrant, and
    per-thread nesting never exceeds ``nesting_max``.
    """
    if k < 1:
        raise ValueError("need at least one thread")
    if not (0.0 <= read_ratio <= 1.0 and 0.0 <= lock_ratio <= 1.0):
        raise ValueError("ratios must lie in [0, 1]")
    if lock_ratio > 0 and d_locks < 1:
        raise ValueError("lock_ratio > 0 needs at least one lock")
    if lock_ratio > 0 and nesting_max < 1:
        raise ValueError("lock_ratio > 0 needs nesting_max >= 1")
    if lock_ratio < 1 and d_globals < 1:
        raise ValueError("global accesses need at least one global")

    rng = random.Random(seed)
    n = max(n, k)
    threads = [f"t{i}" for i in range(1, k + 1)]
    picks = threads + [rng.choice(threads) for _ in range(n - k)]
    rng.shuffle(picks)

    globals_ = [f"x{i}" for i in range(1, d_globals + 1)]
    locks = [f"l{i}" for i in range(1, d_locks + 1)]
    stacks: dict[str, list[str]] = {t: [] for t in threads}
    held: set[str] = set()
    written: list[str] = []
    items: list[tuple[str, str, str]] = []

    for thread in picks:
        stack = stacks[thread]
        if rng.random() < lock_ratio:
            free = [l for l in locks if l not in held]
            may_acquire = len(stack) < nesting_max and free
            if stack and (not may_acquire or rng.random() < 0.5):
                lock = stack.pop()
                held.discard(lock)
                items.append((thread, "rel", lock))
                continue
            if may_acquire:
                lock = rng.choice(free)
                stack.append(lock)
                held.add(lock)
                items.append((thread, "acq", lock))
                continue
            # fall through to a global access when no lock move is legal
        if not globals_:
            continue  # locks-only trace and no legal lock move: skip the pick
        if written and rng.random() < read_ratio:
            items.append((thread, "r", rng.choice(written)))
        else:
            loc = rng.choice(globals_)
            if loc not in written:
                written.append(loc)
            items.append((thread, "w", loc))

    for thread in threads:
        while stacks[thread]:
            items.append((thread, "rel", stacks[thread].pop()))

    return from_events(items, synthesize_init=False)
