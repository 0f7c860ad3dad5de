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
from racepred.realizability import realize_general
from racepred.trace_model import from_events

from helpers import (
    add_edge_by_mask,
    closure_by_triplets,
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
    path = po.path_between(1, 5)
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
def test_add_edge_matches_mask_reference(case):
    # the per-block suffix update against the update over a mask of all rows
    blocks, edges = case
    got, want = PartialOrder(blocks), PartialOrder(blocks)
    for u, v in edges:
        assert insert(got, PartialOrder.add_edge, u, v) == insert(want, add_edge_by_mask, u, v)
        assert (got.pred == want.pred).all(), (blocks, edges, (u, v))
        assert got.edges == want.edges


def on_a_cycle(order: PartialOrder, batch, edge) -> bool:
    """Whether ``edge`` of ``batch`` lies on a cycle of ``order`` plus the
    batch: its target reaches its source."""
    graph = nx.DiGraph(ordered_pairs(order))
    graph.add_nodes_from(order.events())
    graph.add_edges_from(batch)
    u, v = edge
    return u == v or nx.has_path(graph, v, u)


def assert_batches_match_loop(blocks, batches) -> bool:
    """Insert each batch with ``add_edges`` on one order and one edge at a
    time on another.  After each batch both have the same ``pred``, and the
    batch order's ``edges`` gained the batch edges it did not imply.  A batch
    raises exactly when the loop does; it then keeps its ``pred`` and
    ``edges``, and names an edge of the batch on a cycle.  Whether a batch
    closed a cycle."""
    got, want = PartialOrder(blocks), PartialOrder(blocks)
    for batch in batches:
        fresh = [e for e in dict.fromkeys(batch) if not got.ordered(*e)]
        pred, kept = got.pred.copy(), list(got.edges)
        try:
            added = got.add_edges(batch)
        except CycleError as exc:
            added = ("cycle", exc.edge)
        looped = None
        for u, v in batch:
            looped = insert(want, PartialOrder.add_edge, u, v)
            if isinstance(looped, tuple):
                break
        if isinstance(looped, tuple):
            assert isinstance(added, tuple), (blocks, batches)
            assert (got.pred == pred).all() and got.edges == kept, (blocks, batches)
            assert added[1] in batch and on_a_cycle(got, batch, added[1]), (blocks, batches)
            return True
        assert (got.pred == want.pred).all(), (blocks, batches)
        assert added == len(fresh) and got.edges == kept + fresh, (blocks, batches)
    return False


@settings(max_examples=300, deadline=None)
@given(blocks_and_edges(max_edges=16), st.data())
def test_add_edges_matches_add_edge_loop(case, data):
    blocks, edges = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(edges)), max_size=3)))
    bounds = [0, *cuts, len(edges)]
    assert_batches_match_loop(blocks, [edges[a:b] for a, b in itertools.pairwise(bounds)])


@pytest.mark.parametrize(
    "blocks",
    [
        [[], [1, 2, 3], [4, 5, 6]],
        [[1, 2, 3], [], [4, 5, 6]],
        [[1, 2, 3], [4, 5, 6], []],
        [[], [1, 2, 3], [], [4, 5, 6], []],
    ],
)
def test_add_edges_with_empty_blocks(blocks):
    # the gather reads each row's frontier rows; an empty block has none
    x, y = [b for b in blocks if b]
    assert not assert_batches_match_loop(blocks, [[(x[0], y[1]), (y[2], x[1])]])
    assert not assert_batches_match_loop(blocks, [[(y[2], x[0])]])
    # the second batch's second edge closes y2 < x2 < y0 < y2
    assert assert_batches_match_loop(blocks, [[(x[0], y[1])], [(y[2], x[2]), (x[2], y[0])]])
    assert not assert_batches_match_loop(blocks, [[(x[1], y[1])], []])


def test_add_edges_edge_cases():
    blocks = [[1, 2, 3], [4, 5, 6]]
    order = PartialOrder(blocks)
    assert order.add_edges([]) == 0 and order.add_edges(iter(())) == 0
    # a self-loop closes a cycle on its own
    assert assert_batches_match_loop(blocks, [[(1, 5), (4, 4), (2, 6)]])
    with pytest.raises(CycleError) as exc:
        PartialOrder(blocks).add_edges([(1, 5), (4, 4)])
    assert exc.value.edge == (4, 4)
    # the loop stops at (2, 4), closing 2 < 4 < 5 < 1 < 2; the batch names the
    # first edge of that cycle and keeps none of its edges
    failed = PartialOrder(blocks)
    failed.add_edge(3, 6)
    before = failed.copy()
    with pytest.raises(CycleError) as exc:
        failed.add_edges([(5, 1), (2, 4)])
    assert exc.value.edge == (5, 1)
    assert failed.edges == before.edges and (failed.pred == before.pred).all()
    # edges the order already implies, by program order or earlier edges
    order.add_edge(2, 5)
    assert order.add_edges([(1, 2), (1, 6), (2, 5)]) == 0
    assert order.edges == [(2, 5)]
    assert not assert_batches_match_loop(blocks, [[(2, 5)], [(1, 6), (3, 4), (1, 3)]])
    # an edge implied only by an earlier one of the same batch still counts
    order = PartialOrder(blocks)
    assert order.add_edges([(2, 4), (1, 5), (2, 4)]) == 2
    assert order.ordered(1, 6) and not order.ordered(3, 4)
    assert order.edges == [(2, 4), (1, 5)]


@settings(max_examples=300, deadline=None)
@given(
    blocks_and_edges(max_edges=16),
    st.lists(st.integers(0, 16), max_size=4),
    st.lists(st.booleans(), max_size=5),
)
# (1, 5) follows from 1 < 2 -> 4 < 5 but is a batch edge all the same
@example(case=([[1, 2, 3], [4, 5, 6]], [(2, 4), (1, 5)]), cuts=[], singly=[])
def test_path_between_reads_the_order_without_changing_it(case, cuts, singly):
    # after any mix of batches and single edges, cycles skipped, every
    # ordered pair has a chain of block steps and inserted edges
    blocks, edges = case
    order = PartialOrder(blocks)
    bounds = [0, *sorted(min(c, len(edges)) for c in cuts), len(edges)]
    for i, (a, b) in enumerate(itertools.pairwise(bounds)):
        if i < len(singly) and singly[i]:
            for u, v in edges[a:b]:
                with suppress(CycleError):
                    order.add_edge(u, v)
        else:
            with suppress(CycleError):
                order.add_edges(edges[a:b])
    steps = set(order.edges) | {s for b in order.blocks for s in itertools.pairwise(b)}
    pred, kept = order.pred.copy(), list(order.edges)
    for u, v in ordered_pairs(order):
        path = order.path_between(u, v)
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
    # projected on Y, and its edges are those of the read-by-read replay
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
        assert po.edges == want.edges


def test_succ_is_least_position_above():
    # after random refinements of whole-trace and ideal TRFs, the derived
    # succ[x, b] is the least position in block b of an event above x, or
    # the block's length when there is none
    checked = 0
    for s in range(150):
        rng = random.Random(s)
        t = gen_random_trace(
            71_000 + s, n=2 + s % 12, k=1 + s % 4, d_globals=1 + s % 3,
            d_locks=1 + s % 2, read_ratio=0.4, lock_ratio=0.3, nesting_max=2,
        )
        ideal = down_set_ideal(t, [rng.randint(1, len(t))])
        for po in (compute_trf(t), compute_trf(t, ideal)):
            evs = list(po.events())
            for step in range(4):
                succ = po.succ
                assert succ.shape == (po.n, po.k)
                for x in evs:
                    for b, block in enumerate(po.blocks):
                        want = next(
                            (p for p, y in enumerate(block) if po.ordered(x, y)), len(block)
                        )
                        assert succ[po.index_of(x), b] == want, (s, step, x, b)
                checked += 1
                if len(evs) < 2:
                    break
                try:
                    po.add_edge(*rng.sample(evs, 2))
                except CycleError:
                    pass
    assert checked >= 900


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
    poset = make_poset(t)
    assert poset.rf == {2: 1} and realize_general(poset) == [1, 2]


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


def assert_closure_matches_reference(poset: RfPoset) -> None:
    expected = closure_by_triplets(poset)
    closed = closure(poset)
    assert (closed is None) == (expected is None)
    already = expected is not None and ordered_pairs(expected) == ordered_pairs(poset.order)
    assert is_closed(poset) == already
    if closed is not None:
        assert ordered_pairs(closed.order) == ordered_pairs(expected)
        assert is_closed(closed)


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
