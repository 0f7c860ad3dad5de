"""Partial orders, the thread-reads-from order, and rf-poset closure."""

import itertools
import random
from contextlib import suppress

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racepred import (
    CycleError,
    Ideal,
    PartialOrder,
    RfPoset,
    closure,
    compute_trf,
    feasibility,
    is_closed,
    lcone,
    parse_trace,
)
from racepred.generators import OvInstance, gen_ov_trace, gen_random_trace
from racepred.ideal_engine import _table
from racepred.orders import _Guards
from racepred.realizability import realize_general
from racepred.trace_model import from_events

from helpers import (
    add_edge_by_mask,
    closure_by_rounds,
    closure_by_triplets,
    guard_layout,
    linearize_by_scan,
    path_between,
    trace_events,
    triplets,
    trf_by_replay,
    trf_digraph,
)


def ordered_pairs(po: PartialOrder) -> set[tuple[int, int]]:
    evs = list(po.events())
    return {(u, v) for u in evs for v in evs if u != v and po.ordered(u, v)}


def refines(q: PartialOrder, p: PartialOrder) -> bool:
    """Every ordered pair of p is ordered identically in q."""
    return ordered_pairs(p) <= ordered_pairs(q)


def replay_realizes(trace, perm) -> bool:
    """Whether a total order of all events observes the trace's rf."""
    last_seen: dict[str, int] = {}
    for eid in perm:
        ev = trace.event(eid)
        if ev.observes and last_seen.get(ev.loc) != trace.rf[eid]:
            return False
        if ev.writes_like:
            last_seen[ev.loc] = eid
    return True


def some_linearization_realizes(poset: RfPoset) -> bool:
    evs = sorted(poset.order.events())
    for perm in itertools.permutations(evs):
        pos = {e: i for i, e in enumerate(perm)}
        if any(
            pos[u] > pos[v] for u in evs for v in evs if u != v and poset.order.ordered(u, v)
        ):
            continue
        if replay_realizes(poset.trace, perm):
            return True
    return False


# ----------------------------------------------------------------------
# PartialOrder mechanics
# ----------------------------------------------------------------------


def test_partial_order_thread_chains():
    po = PartialOrder([[1, 2, 3], [4, 5]])
    assert po.ordered(1, 3)
    assert not po.ordered(3, 1)
    assert po.unordered(2, 4)
    assert sorted(po.events()) == [1, 2, 3, 4, 5]
    assert 3 in po and 9 not in po
    with pytest.raises(ValueError, match="duplicate event id across blocks"):
        PartialOrder([[1, 2], [2]])


def test_add_edge_transitivity():
    po = PartialOrder([[1, 2], [3, 4]])
    assert po.add_edge(2, 3)
    assert po.ordered(1, 4)  # 1 < 2 < 3 < 4 by closure
    assert not po.add_edge(1, 4)  # already ordered, no-op


def test_add_edge_cycle_raises_and_preserves_state():
    po = PartialOrder([[1, 2], [3, 4]])
    po.add_edge(2, 3)
    with pytest.raises(CycleError):
        po.add_edge(4, 1)
    assert po.ordered(1, 4)  # unchanged after the failed insertion


def test_linearize_empty_and_chain():
    assert PartialOrder([]).linearize() == []
    po = PartialOrder([[1, 2, 3]])
    assert po.linearize() == [1, 2, 3]


def test_linearize_antichain_smallest_id_first():
    po = PartialOrder([[2], [1]])
    assert po.linearize() == [1, 2]


def test_linearize_interleaves_by_id():
    po = PartialOrder([[1, 4], [2, 3]])
    assert po.linearize() == [1, 2, 3, 4]


def test_path_between_follows_generator_edges():
    po = PartialOrder([[1, 2], [3, 4], [5]])
    po.add_edge(2, 3)
    po.add_edge(4, 5)
    path = path_between(po, 1, 5)
    assert path[0][0] == 1 and path[-1][1] == 5
    for (a, b), (c, d) in itertools.pairwise(path):
        assert b == c
    for a, b in path:
        assert po.ordered(a, b)


@st.composite
def blocks_and_edges(draw, max_edges: int = 12):
    """Blocks of shuffled event ids (empty ones included), and a sequence of
    edges between their events, self-loops included."""
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    ids = draw(st.permutations(range(1, sum(lengths) + 1)))
    blocks, start = [], 0
    for m in lengths:
        blocks.append(sorted(ids[start : start + m]))
        start += m
    if not ids:
        return blocks, []
    event = st.sampled_from(ids)
    return blocks, draw(st.lists(st.tuples(event, event), max_size=max_edges))


def insert(order: PartialOrder, insert_edge, u: int, v: int):
    """``insert_edge(order, u, v)``'s return value, or the edge of the
    ``CycleError`` it raised."""
    try:
        return insert_edge(order, u, v)
    except CycleError as exc:
        return ("cycle", exc.edge)


@settings(max_examples=300, deadline=None)
@given(blocks_and_edges(max_edges=16))
# the third block's rows above 3 are 5, 6 and 7, and 7 is above 1 already
@example(case=([[1, 2], [3, 4], [5, 6, 7]], [(3, 5), (1, 7), (1, 3)]))
# 3, in the source's own block, is above the target 4
@example(case=([[1, 2, 3], [4, 5]], [(4, 3), (1, 4)]))
@example(case=([[1, 2, 3]], [(1, 3), (3, 1), (2, 2)]))
@example(case=([[], [1, 2], [], [3, 4], []], [(1, 4), (3, 2), (4, 1)]))
def test_add_edge_matches_mask_reference(case):
    # the update of the rows above v not yet above u, per block, against
    # the update over a mask of all rows
    blocks, edges = case
    got, want = PartialOrder(blocks), PartialOrder(blocks)
    for u, v in edges:
        assert insert(got, PartialOrder.add_edge, u, v) == insert(want, add_edge_by_mask, u, v)
        assert (got.pred == want.pred).all(), (blocks, edges, (u, v))
        assert got.edges == want.edges


def test_copy_shares_the_layout_and_owns_pred_and_edges():
    po = PartialOrder([[1, 2, 3], [4, 5], []])
    po.add_edge(1, 5)
    clone = po.copy()
    for name in PartialOrder.__slots__:
        if name in ("pred", "edges"):
            assert getattr(clone, name) is not getattr(po, name), name
        else:
            assert getattr(clone, name) is getattr(po, name), name
    assert (clone.pred == po.pred).all() and clone.edges == po.edges
    pred, edges = po.pred.copy(), list(po.edges)
    assert clone.add_edge(2, 4)
    assert clone.ordered(2, 4) and not po.ordered(2, 4)
    assert (po.pred == pred).all() and po.edges == edges == [(1, 5)]


def test_add_edge_matches_mask_reference_on_a_chain_round():
    # the 200-event chain's first closure round, inserted latest target
    # first as the closure does: each insert raises only the rows between
    # its target and the rows an earlier insert put above its source
    poset = make_poset(from_events([("t1", "w", "x"), ("t2", "r", "x")] * 100))
    edges = _Guards(poset).violations(poset.order)
    assert len(edges) == 99
    got, want = poset.order.copy(), poset.order.copy()
    for u, v in sorted(edges, key=lambda e: e[1], reverse=True):
        assert got.add_edge(u, v) == add_edge_by_mask(want, u, v)
        assert (got.pred == want.pred).all(), (u, v)


@settings(max_examples=300, deadline=None)
@given(blocks_and_edges(max_edges=16), st.integers(0, 16))
@example(case=([[], [1, 2, 3], [], [4, 5, 6], []], [(1, 5), (6, 2), (3, 4)]), cut=1)
@example(case=([[1, 2, 3], [4, 5, 6], []], [(2, 4), (6, 3)]), cut=0)
@example(case=([[1, 2, 3], [], [4, 5, 6]], [(1, 5), (4, 4)]), cut=0)
# id order is already an extension: the whole universe is the placed prefix
@example(case=([[1, 3, 5], [2, 4, 6]], [(1, 2), (3, 4)]), cut=1)
# the smallest id waits for 3, so the placed prefix is empty
@example(case=([[1, 2], [3, 4]], [(3, 1)]), cut=0)
# edges into the first rows of blocks 1 and 2, the one into 3 late
@example(case=([[1, 2], [3, 4], [5, 6]], [(2, 5), (6, 3)]), cut=0)
# row order is not id order: the first late row holds 3, the least late id is 2
@example(case=([[3], [1, 2], [4]], [(4, 3), (4, 2)]), cut=0)
def test_linearize_under_edges_matches_scan_of_the_edge_loop(case, cut):
    # the edges before the cut go into the order one at a time, cycles
    # skipped; linearize under the rest must order as the scan of a copy
    # with them added one at a time, raise exactly when that loop does,
    # and leave the order as it was.  The cross edges it raises with are
    # edges of the rest, one per tail block, and close a cycle on their own
    blocks, edges = case
    order = PartialOrder(blocks)
    for u, v in edges[:cut]:
        with suppress(CycleError):
            order.add_edge(u, v)
    last = edges[cut:]
    want = order.copy()
    try:
        for u, v in last:
            want.add_edge(u, v)
        expected = linearize_by_scan(want)
    except CycleError:
        expected = "cycle"
    pred, kept = order.pred.copy(), list(order.edges)
    try:
        got = order.linearize(iter(last))
    except CycleError as exc:
        assert exc.edge == exc.cross[0] and set(exc.cross) <= set(last), (blocks, edges, cut)
        tails = [order.location(u)[0] for u, _ in exc.cross]
        assert len(set(tails)) == len(tails), (blocks, edges, cut)
        with pytest.raises(CycleError):
            cyclic = order.copy()
            for u, v in exc.cross:
                cyclic.add_edge(u, v)
        got = "cycle"
    assert got == expected, (blocks, edges, cut)
    assert (order.pred == pred).all() and order.edges == kept


@settings(max_examples=300, deadline=None)
@given(blocks_and_edges(max_edges=16))
def test_path_between_reads_the_order_without_changing_it(case):
    # after single edges, cycles skipped, every ordered pair has a chain of
    # block steps and inserted edges
    blocks, edges = case
    order = PartialOrder(blocks)
    for u, v in edges:
        with suppress(CycleError):
            order.add_edge(u, v)
    steps = set(order.edges) | {s for b in order.blocks for s in itertools.pairwise(b)}
    pred, kept = order.pred.copy(), list(order.edges)
    for u, v in ordered_pairs(order):
        path = path_between(order, u, v)
        assert path[0][0] == u and path[-1][1] == v
        assert all(b == c for (_, b), (c, _) in itertools.pairwise(path))
        assert set(path) <= steps, (blocks, edges, (u, v))
        assert (order.pred == pred).all() and order.edges == kept


# ----------------------------------------------------------------------
# thread-reads-from order
# ----------------------------------------------------------------------


def test_trf_single_thread_is_thread_order():
    t = parse_trace("t1 w x\nt1 r x\nt1 w y")
    po = compute_trf(t)
    assert ordered_pairs(po) == {(1, 2), (1, 3), (2, 3)}


def test_trf_read_orders_across_threads():
    t = parse_trace("t1 w x\nt2 r x")
    assert compute_trf(t).ordered(1, 2)


def test_trf_disjoint_threads_unordered():
    t = parse_trace("t1 w x\nt2 w y")
    po = compute_trf(t)
    assert po.unordered(1, 2)


def test_trf_release_edge_stays_intra_thread():
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l")
    po = compute_trf(t)
    # lock events do not order the two threads
    assert po.unordered(2, 3)


def test_trf_restriction_requires_observation_closure():
    t = parse_trace("t1 w x\nt2 r x")
    with pytest.raises(ValueError, match="not the prefix vector of a trace ideal"):
        compute_trf(t, prefix=(0, 1))  # reader without its writer
    assert compute_trf(t, (1, 0)).blocks == ((1,), ())


def test_trf_restriction_rejects_a_misshapen_prefix_vector():
    t = parse_trace("t1 w x\nt2 r x\n")
    for prefix in ((1,), (1, 1, 0), (-1, 0), (1, -1), (2, 1), (1, 2)):
        with pytest.raises(ValueError, match="not the prefix vector of a trace ideal"):
            compute_trf(t, prefix)
    assert compute_trf(t, [1, 1]).blocks == ((1,), (2,))


def test_compute_trf_returns_a_fresh_mutable_order():
    t = parse_trace("t1 w x\nt2 w y\nt2 r x")
    first = compute_trf(t)
    po = compute_trf(t)
    assert po is not first
    assert po.add_edge(1, 2)
    assert po.ordered(1, 2) and first.unordered(1, 2)
    # the trace keeps no order that the edge could leak into
    assert compute_trf(t).unordered(1, 2)
    assert _table(t).down[2] == (0, 1)


def down_set_ideal(trace, eids) -> tuple[int, ...]:
    """Prefix vector of the least ideal holding ``eids``: the join of their down-sets."""
    table = _table(trace)
    return tuple(max(col) for col in zip(table.down[0], *(table.down[e] for e in eids)))


@settings(max_examples=60, deadline=None)
@given(trace_events(max_events=10), st.data())
def test_trf_matches_networkx_closure(items, data):
    # on the whole trace and on a down-set ideal Y, the order is the TRF
    # projected on Y
    t = from_events(items)
    closure_graph = trf_digraph(t)
    eids = [ev.eid for ev in t]
    seeds = data.draw(st.lists(st.sampled_from(eids), max_size=3)) if eids else []
    for prefix in (None, down_set_ideal(t, seeds)):
        po = compute_trf(t, prefix)
        members = None if prefix is None else Ideal(t, prefix).members
        universe = eids if members is None else members
        assert ordered_pairs(po) == set(closure_graph.subgraph(universe).edges())
        want = trf_by_replay(t, members)
        assert po.blocks == want.blocks and (po.pred == want.pred).all()


def assert_guards_match_grouping(poset: RfPoset) -> int:
    """The guards hold the universe's writers per (location, block) segment
    and its slots as a grouping of its events gives them, and each slot's
    base picks out its segment's writers; the slot count, for floors."""
    order, trace = poset.order, poset.trace
    guards = _Guards(poset)
    writers, slots, segments = guard_layout(poset)
    rows = guards._rows.tolist()
    got = [((trace.events[order._eids[row] - 1].loc, *order._loc[row]), row) for row in rows]
    assert got == writers
    keys = guards.keys.tolist()
    assert keys == sorted(set(keys))
    cols = (guards.ir, guards.iw, guards.block, guards.own)
    assert [(ir, iw, b, bool(own)) for ir, iw, b, own in zip(*map(list, cols))] == slots
    # a segment's keys are its base plus a position in its block
    width = max(map(len, order.blocks), default=0)
    for ir, b, base in zip(*(col.tolist() for col in (guards.ir, guards.block, guards.base))):
        segment = [row for key, row in zip(keys, rows) if 0 <= key - base < width]
        assert segment == segments[trace.events[order._eids[ir] - 1].loc][b]
    return len(slots)


@settings(max_examples=80, deadline=None)
@given(trace_events(max_events=14, max_threads=4, max_locks=2), st.data())
def test_guard_segments_and_slots_match_a_grouping_of_the_ideal(items, data):
    t = from_events(items)
    eids = [ev.eid for ev in t]
    seeds = data.draw(st.lists(st.sampled_from(eids), max_size=3)) if eids else []
    for prefix in (None, down_set_ideal(t, seeds)):
        assert_guards_match_grouping(RfPoset(t, compute_trf(t, prefix)))


def test_guard_segments_and_slots_match_a_grouping_on_ov_cones():
    slots = 0
    for seed, (m, dim) in enumerate(itertools.product((1, 2, 4), (3, 8))):
        rng = random.Random(seed)
        for yes in (True, False):
            trace, (e1, e2) = gen_ov_trace(ov_instance(rng, m, dim, yes))
            poset = feasibility(lcone(trace, e1) | lcone(trace, e2)).poset
            slots += assert_guards_match_grouping(poset)
    assert slots >= 1_000, slots


def test_first_above_is_the_first_writer_above():
    # after random refinements of whole-trace and ideal TRFs, the guards'
    # reader gives, for every closure slot (from its observer and from its
    # writer) and every replay slot, the first writer of the slot's segment
    # that the order puts above the event, or the segment's end.  And no
    # edge the closure conditions demand is one the order already has: the
    # closure's termination rests on that
    checked = slots = 0
    for s in range(150):
        rng = random.Random(s)
        t = gen_random_trace(
            71_000 + s, n=2 + s % 12, k=1 + s % 4, d_globals=1 + s % 3,
            d_locks=1 + s % 2, read_ratio=0.4, lock_ratio=0.3, nesting_max=2,
        )
        ideal = down_set_ideal(t, [rng.randint(1, len(t))])
        for po in (compute_trf(t), compute_trf(t, ideal)):
            guards = _Guards(RfPoset(t, po))
            guards.replay(po)  # builds the replay slots
            iv, _, replay_base, _, _ = guards._replay_slots
            evs = list(po.events())
            keys, writers = guards.keys.tolist(), po._ids[guards._rows].tolist()
            span = _table(t).span
            for step in range(4):
                for rows, bases in (
                    (guards.ir, guards.base), (guards.iw, guards.base), (iv, replay_base)
                ):
                    got = guards._above(po, guards._queries(po, rows, bases)).tolist()
                    slots += len(got)
                    for i, base, j in zip(rows.tolist(), bases.tolist(), got):
                        # a key is its segment's base plus a position below
                        # the trace's span
                        segment = [y for y, key in enumerate(keys) if 0 <= key - base < span]
                        want = next(
                            (y for y in segment if po.ordered(evs[i], writers[y])),
                            segment[-1] + 1,
                        )
                        assert j == want, (s, step, evs[i], base)
                implied = [e for e in guards.violations(po) if po.ordered(*e)]
                assert not implied, (s, step, implied)
                checked += 1
                if len(evs) < 2:
                    break
                try:
                    po.add_edge(*rng.sample(evs, 2))
                except CycleError:
                    pass
    assert checked >= 900 and slots >= 9_000


@settings(max_examples=40, deadline=None)
@given(trace_events(max_events=9))
def test_linearize_refines_input(items):
    t = from_events(items)
    po = compute_trf(t)
    order = po.linearize()
    pos = {e: i for i, e in enumerate(order)}
    for u, v in ordered_pairs(po):
        assert pos[u] < pos[v]


def test_linearize_is_least_linear_extension():
    # small TRFs and random refinements of them: linearize must return the
    # lexicographically least of all topological sorts
    checked = 0
    for s in range(200):
        rng = random.Random(s)
        t = gen_random_trace(
            70_000 + s, n=3 + s % 8, k=1 + s % 4, d_globals=1 + s % 3,
            d_locks=1 + s % 2, read_ratio=0.4, lock_ratio=0.3, nesting_max=2,
        )
        if len(t) > 10:
            continue
        po = compute_trf(t)
        evs = list(po.events())
        for step in range(4):
            g = nx.DiGraph(ordered_pairs(po))
            g.add_nodes_from(evs)
            assert po.linearize() == min(nx.all_topological_sorts(g)), (s, step)
            checked += 1
            try:
                po.add_edge(*rng.sample(evs, 2))
            except CycleError:
                pass
    assert checked >= 600


# ----------------------------------------------------------------------
# rf-posets and closure
# ----------------------------------------------------------------------


def make_poset(trace) -> RfPoset:
    return RfPoset(trace, compute_trf(trace))


def test_rf_poset_blocks_must_be_thread_prefixes():
    t = parse_trace("t1 w x\nt1 w y\nt2 r x\n")
    RfPoset(t, PartialOrder([[1], []]))  # a prefix of each thread
    for blocks in ([[2], []], [[1, 2]], [[1, 2], [3], []], [[2, 1], [3]], [[1], [3], []]):
        with pytest.raises(ValueError, match="prefix of its thread"):
            RfPoset(t, PartialOrder(blocks))


def test_rf_poset_universe_must_be_a_trace_ideal():
    # thread prefixes that hold a read without its writer are no rf-poset,
    # so no backend ever sees an observer whose writer is missing
    t = parse_trace("t1 w x\nt2 r x\n")
    with pytest.raises(ValueError, match="trace ideal"):
        realize_general(RfPoset(t, PartialOrder([[], [2]])))
    assert realize_general(make_poset(t)) == [1, 2]


def test_no_triplets_is_closed():
    t = parse_trace("t1 w x\nt2 w x")  # no reads, no releases
    assert is_closed(make_poset(t))


def test_triplet_enumeration_includes_locks():
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l")
    trips = set(triplets(make_poset(t)))
    # each release forms a triplet with the other critical section's acquire
    assert trips == {(1, 2, 3), (3, 4, 1)}


def test_open_rule_violation_detected():
    # w' precedes the read in thread order but is unordered vs its writer
    t = parse_trace("t1 w x\nt2 w x\nt1 r x")
    poset = make_poset(t)
    assert set(triplets(poset)) == {(2, 3, 1)}
    assert poset.order.ordered(1, 3) and poset.order.unordered(1, 2)
    assert not is_closed(poset)


def test_closure_adds_interferer_before_writer():
    t = parse_trace("t1 w x\nt2 w x\nt1 r x")
    closed = closure(make_poset(t))
    assert closed is not None
    assert closed.order.ordered(1, 2)  # rule: w' < r forces w' < w
    assert is_closed(closed)


def test_closure_inserts_condition_one_edges_first():
    # each round inserts the edges that put an interferer before the writer
    # ahead of those that put the reader before an interferer; here the one
    # edge 4 -> 6 then closes everything, while the reverse order inserts two
    t = parse_trace(
        "t3 w x1\nt1 acq l1\nt2 r x1\nt2 w x1\nt1 w x2\n"
        "t3 w x1\nt2 w x2\nt2 r x1\nt2 w x2\nt1 rel l1\n"
    )
    poset = feasibility(Ideal.from_members(t, [1, 3, 4, 6, 7, 8])).poset
    closed = closure(poset)
    assert closed.order.edges == poset.order.edges + [(4, 6)]


def test_closure_of_closed_input_is_identity():
    t = parse_trace("t1 w x\nt2 r x")
    poset = make_poset(t)
    assert is_closed(poset)
    closed = closure(poset)
    assert ordered_pairs(closed.order) == ordered_pairs(poset.order)


def test_closure_cycle_yields_bottom():
    # w <_P w' <_P r with rf(r) = w cannot be repaired
    t = parse_trace("t1 w x\nt1 r x\nt2 w x")
    order = compute_trf(t)
    order.add_edge(1, 3)
    order.add_edge(3, 2)
    poset = RfPoset(t, order)
    assert closure(poset) is None
    # cross-check: no linearization of the input realizes rf
    assert not some_linearization_realizes(poset)


@settings(max_examples=50, deadline=None)
@given(trace_events(max_events=7))
def test_closure_idempotent_and_refining(items):
    t = from_events(items)
    poset = make_poset(t)
    closed = closure(poset)
    if closed is None:
        return
    assert is_closed(closed)
    assert refines(closed.order, poset.order)
    again = closure(closed)
    assert ordered_pairs(again.order) == ordered_pairs(closed.order)


@settings(max_examples=30, deadline=None)
@given(trace_events(max_events=6))
def test_closure_is_weakest_closed_refinement(items):
    t = from_events(items)
    poset = make_poset(t)
    closed = closure(poset)
    if closed is None:
        return
    evs = sorted(poset.order.events())
    # strengthen the input with every single extra edge that stays consistent;
    # any closed refinement obtained this way must refine the closure
    for u, v in itertools.permutations(evs, 2):
        refined = poset.order.copy()
        try:
            refined.add_edge(u, v)
        except CycleError:
            continue
        candidate = closure(RfPoset(t, refined))
        if candidate is None:
            continue
        assert refines(candidate.order, closed.order)


@settings(max_examples=40, deadline=None)
@given(trace_events(max_events=7, max_threads=3))
def test_realizable_inputs_have_closure(items):
    t = from_events(items)
    poset = make_poset(t)
    # the trace itself linearizes its own rf-poset, so closure must exist
    assert some_linearization_realizes(poset)
    assert closure(poset) is not None


# ----------------------------------------------------------------------
# differential check against the triplet-by-triplet fixpoint
# ----------------------------------------------------------------------


def assert_rounds_match_reference(poset: RfPoset) -> tuple[int, int]:
    """Every round's ``violations`` equals the slot-by-slot reference's, in
    order, and ``closure`` ends at its ``pred`` and ``edges``; the rounds
    and the edges inserted, for floors."""
    want, rounds = closure_by_rounds(poset)
    guards, order = _Guards(poset), poset.order.copy()
    with suppress(CycleError):
        for step, edges in enumerate(rounds):
            assert guards.violations(order) == edges, step
            for u, v in edges:
                order.add_edge(u, v)
    closed = closure(poset)
    assert (closed is None) == (want is None)
    if closed is not None:
        assert (closed.order.pred == want.pred).all()
        assert closed.order.edges == want.edges
    assert is_closed(poset) == (rounds == [[]])
    return len(rounds), len(order.edges) - len(poset.order.edges)


def assert_closure_matches_reference(poset: RfPoset) -> None:
    assert_rounds_match_reference(poset)
    expected = closure_by_triplets(poset)
    closed = closure(poset)
    assert (closed is None) == (expected is None)
    already = expected is not None and ordered_pairs(expected) == ordered_pairs(poset.order)
    assert is_closed(poset) == already
    if closed is not None:
        assert ordered_pairs(closed.order) == ordered_pairs(expected)
        assert is_closed(closed)


def ov_instance(rng: random.Random, m: int, dim: int, yes: bool) -> OvInstance:
    """m vectors per side, each with coordinate 0 set; when ``yes``, one
    pair made orthogonal off coordinate 0 (the a vector's is cleared)."""
    a, b = ([[1] + [rng.randint(0, 1) for _ in range(dim - 1)] for _ in range(m)] for _ in "ab")
    if yes:
        i, j = rng.randrange(m), rng.randrange(m)
        a[i][0] = 0
        b[j] = [0 if x else rng.randint(0, 1) for x in a[i]]
    inst = OvInstance(tuple(map(tuple, a)), tuple(map(tuple, b)), dim)
    assert inst.has_orthogonal_pair == yes
    return inst


def test_closure_rounds_match_slot_reference_on_ov():
    # on OV traces, yes and no, the tree route's lock-cone poset and the
    # whole-trace TRF: each round demands the reference's edges in its order
    rounds = edges = contradictions = 0
    for seed, (m, dim) in enumerate(itertools.product((1, 2, 4, 8), (3, 8))):
        rng = random.Random(seed)
        for yes in (True, False):
            trace, (e1, e2) = gen_ov_trace(ov_instance(rng, m, dim, yes))
            union = lcone(trace, e1).members | lcone(trace, e2).members
            posets = [feasibility(Ideal.from_members(trace, union)).poset]
            if (m, dim) != (8, 8):  # the reference takes seconds on its 780 events
                posets.append(make_poset(trace))
            for poset in posets:
                r, e = assert_rounds_match_reference(poset)
                rounds, edges = rounds + r, edges + e
                contradictions += closure(poset) is None
    assert rounds >= 1_200 and edges >= 5_000 and contradictions >= 8, (
        rounds, edges, contradictions
    )


def test_closure_rounds_match_slot_reference_on_edge_cases():
    def poset(text: str, prefix=None, *edges) -> RfPoset:
        trace = parse_trace(text)
        order = compute_trf(trace, prefix)
        for u, v in edges:
            order.add_edge(u, v)
        return RfPoset(trace, order)

    cases = {
        # no observers: no slot at all, and writers on two blocks
        "no observers": poset("t1 w x\nt2 w x\nt2 w y"),
        # every writer of x in one block: w's own segment only
        "one block": poset("t1 w x\nt2 r x\nt1 w x\nt2 r x"),
        # the third thread's block is empty
        "empty block": poset("t1 w x\nt2 w x\nt1 r x\nt2 r x\nt3 w x", [2, 2, 0]),
        # every block is empty
        "empty blocks": poset("t1 w x\nt2 w x\nt1 r x", [0, 0]),
        # w < w' < r with rf(r) = w: the first round closes a cycle
        "contradictory": poset("t1 w x\nt1 r x\nt2 w x", None, (1, 3), (3, 2)),
    }
    # (rounds, edges inserted) of each
    assert {name: assert_rounds_match_reference(p) for name, p in cases.items()} == {
        "no observers": (1, 0),
        "one block": (2, 1),
        "empty block": (2, 1),
        "empty blocks": (1, 0),
        "contradictory": (1, 0),
    }
    assert closure(cases["one block"]).order.edges[-1] == (2, 3)
    assert closure(cases["empty block"]).order.edges[-1] == (1, 2)
    assert closure(cases["contradictory"]) is None


def prefix_poset(trace, eid: int) -> RfPoset:
    """The rf-poset of the downward TRF closure of one event, itself included."""
    return RfPoset(trace, compute_trf(trace, down_set_ideal(trace, [eid])))


@settings(max_examples=150, deadline=None)
@given(
    trace_events(max_events=12, max_threads=4, max_locks=3, max_nesting=2),
    st.data(),
)
def test_closure_matches_triplet_fixpoint(items, data):
    t = from_events(items)
    poset = make_poset(t)
    assert_closure_matches_reference(poset)
    evs = sorted(poset.order.events())
    if len(evs) < 2:
        return
    # a sub-universe with empty or partial blocks, and a strengthened input
    # that can make the closure contradictory
    assert_closure_matches_reference(prefix_poset(t, data.draw(st.sampled_from(evs))))
    u, v = data.draw(st.lists(st.sampled_from(evs), min_size=2, max_size=2, unique=True))
    refined = poset.order.copy()
    try:
        refined.add_edge(u, v)
    except CycleError:
        return
    assert_closure_matches_reference(RfPoset(t, refined))


@pytest.mark.parametrize("seed", range(8))
def test_closure_matches_triplet_fixpoint_on_ov(seed):
    rng = random.Random(seed)
    dim, m = 3, 2
    space = list(itertools.product((0, 1), repeat=dim))
    inst = OvInstance(tuple(rng.sample(space, m)), tuple(rng.sample(space, m)), dim)
    trace, (e1, e2) = gen_ov_trace(inst)
    assert_closure_matches_reference(make_poset(trace))
    # the tree route closes the feasible poset of the two lock cones' union
    union = lcone(trace, e1).members | lcone(trace, e2).members
    res = feasibility(Ideal.from_members(trace, union))
    if res:
        assert_closure_matches_reference(res.poset)
