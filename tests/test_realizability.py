"""Witness-search backends: general, tree, and distance-bounded."""

import random
from collections import Counter
from itertools import combinations
from math import prod
from operator import lt

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from racepred import (
    CycleError,
    Feasibility,
    Ideal,
    PartialOrder,
    RfPoset,
    candidate_ideal_set,
    closure,
    communication_topology,
    compute_trf,
    conflicting,
    enumerate_correct_reorderings,
    feasibility,
    is_closed,
    is_ideal,
    lcone,
    min_distance,
    parse_trace,
    realize_bounded,
    realize_general,
    realize_tree,
    reversal_count,
    reversal_pairs,
    verify_witness,
)
from racepred.cli import predict, scan_pairs
from racepred.generators import OvInstance, gen_ov_trace, gen_random_trace
from racepred.ideal_engine import _candidates
from racepred.orders import _Guards
from racepred.realizability import _needs, _resolve
from racepred.trace_model import _conflict_graph, _forest_order, _table

from helpers import (
    bounded_by_pairs,
    linearize_by_scan,
    lock_handoff_traces,
    realizable_sets,
    realize_general_by_watchers,
    replay_by_pairs,
    resolve_by_pairs,
    reversal_pairs_by_combinations,
    shrink_cross,
    states_by_watchers,
    traces,
    unprotected,
)
from test_ideal_engine import INDSET_FAMILIES, _indset


def each_feasible_ideal(trace):
    """All ideals of the trace, paired with their feasibility result."""
    blocks = [list(proj) for proj in trace.by_thread]

    def rec(i, cur):
        if i == len(blocks):
            yield frozenset(cur)
            return
        for take in range(len(blocks[i]) + 1):
            yield from rec(i + 1, cur + blocks[i][:take])

    for members in rec(0, []):
        if not is_ideal(trace, members):
            continue
        x = Ideal.from_members(trace, members)
        yield x, feasibility(x)


def topology_is_forest(trace) -> bool:
    graph = nx.Graph()
    graph.add_nodes_from(trace.threads)
    graph.add_edges_from(communication_topology(trace))
    return nx.is_forest(graph)


def block_graph_is_forest(p) -> bool:
    """Whether the poset's blocks, joined when they hold conflicting events, form a forest."""
    blocks = p.order.blocks
    graph = nx.Graph()
    graph.add_nodes_from(range(len(blocks)))
    for i, j in combinations(range(len(blocks)), 2):
        if any(
            conflicting(p.trace.event(a), p.trace.event(b))
            for a in blocks[i]
            for b in blocks[j]
        ):
            graph.add_edge(i, j)
    return nx.is_forest(graph)


def min_distance_by_set(trace) -> dict[frozenset[int], int]:
    """Fewest flipped pairs over the witnesses of each realizable event set."""
    best: dict[frozenset[int], int] = {}
    for w in enumerate_correct_reorderings(trace, cap=max(14, len(trace))):
        members, d = frozenset(w), reversal_count(trace, w)
        best[members] = min(d, best.get(members, d))
    return best


FOUR = parse_trace("t1 w x\nt1 w y\nt2 r y\nt2 w x\n")

# feasible, yet protecting the read of x from t1's earlier write forces the
# closed lock section of t2 both before and after t1's open one
STUCK = parse_trace(
    "t1 acq l\nt1 w x\nt2 w x\nt1 r x\nt1 rel l\nt2 acq l\nt2 rel l\n"
)
STUCK_MEMBERS = frozenset([1, 2, 3, 4, 6, 7])


# ---------------------------------------------------------------------------
# general backend
# ---------------------------------------------------------------------------


def test_single_thread_witness_is_the_thread_order():
    t = parse_trace("t1 w x\nt1 r x\nt1 w y\n")
    p = feasibility(Ideal.from_members(t, [1, 2, 3])).poset
    assert realize_general(p) == [1, 2, 3]


def test_general_full_ideal_matches_brute_force():
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    w = realize_general(p)
    assert w == [1, 2, 3, 4]
    assert verify_witness(FOUR, w)
    assert frozenset(w) in realizable_sets(FOUR)


def test_general_rejects_ideal_with_contradictory_closure():
    x = Ideal.from_members(STUCK, STUCK_MEMBERS)
    res = feasibility(x)
    assert res.status is Feasibility.FEASIBLE
    assert closure(res.poset) is None
    assert realize_general(res.poset) is None
    # brute force agrees there is no witness with this event set
    assert STUCK_MEMBERS not in realizable_sets(STUCK)


def test_general_search_node_count_is_reported():
    stats = {}
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    realize_general(p, stats=stats)
    assert 1 <= stats["search_nodes"] <= prod(len(b) + 1 for b in p.order.blocks)


def searches_like_the_watchers(p) -> list[int] | None:
    """``realize_general(p)``, checked against the watcher-list reference:
    the same witness and the same ``search_nodes``."""
    got, want = {}, {}
    w = realize_general(p, stats=got)
    assert w == realize_general_by_watchers(p, stats=want)
    assert got == want
    return w


def test_general_matches_watcher_search_on_wide_corpus():
    # every feasible candidate poset of every cross-thread pair, over traces
    # with up to 5 threads, 3 locks and nesting 3
    posets = found = 0
    for s in range(320):
        t = gen_random_trace(
            30_000 + s, n=10 + s % 21, k=2 + s % 4, d_globals=2 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.35,
            nesting_max=1 + s % 3,
        )
        seen = set()
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            for x, _, _ in _candidates(t, e1, e2):
                if x.prefix in seen:
                    continue
                seen.add(x.prefix)
                res = feasibility(x)
                if res:
                    posets += 1
                    found += searches_like_the_watchers(res.poset) is not None
    assert posets >= 5_000 and 1_000 <= found < posets


@given(st.one_of(traces(max_events=12), lock_handoff_traces()))
@settings(deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_general_matches_watcher_search_on_every_feasible_ideal(trace):
    for x, res in each_feasible_ideal(trace):
        if res:
            searches_like_the_watchers(res.poset)


def test_general_matches_watcher_search_on_chain_and_star():
    for t in (chain_trace(200), star_trace(200)):
        assert searches_like_the_watchers(trf_poset(t)) is not None
        assert searches_like_the_watchers(cone_poset(t, 199, 200)) is not None


def test_general_matches_watcher_search_on_indset_candidates():
    # k = 8: the first feasible candidate posets of each lock-heavy reduction
    # trace whose search reaches at most 20 000 states, up to 4 per family
    posets = 0
    for family in INDSET_FAMILIES:
        t, (e1, e2) = _indset(*family)
        taken = 0
        for x in candidate_ideal_set(t, e1, e2):
            res = feasibility(x)
            if not res:
                continue
            got, want = {}, {}
            assert realize_general(res.poset, stats=got) == realize_general_by_watchers(
                res.poset, stats=want
            )
            assert got == want
            if got["search_nodes"] <= 20_000:
                assert len(res.poset.order.blocks) == 8
                taken += 1
                if taken == 4:
                    break
        posets += taken
    assert posets >= 10


def needs_test_like_pred_rows(p, tally) -> None:
    """At every state the watcher search reaches on ``p``, each block head's
    test against its needs equals the test of its whole ``pred`` row.  Adds
    to ``tally`` the heads tested, those disabled, and the ``pred`` entries
    the needs leave out."""
    order = p.order
    rows, needs = order.pred.tolist(), _needs(order)
    tally["left out"] += sum(q >= 0 for row in rows for q in row) - sum(map(len, needs))
    for y in states_by_watchers(p):
        for b, at in enumerate(y):
            if at == len(order.blocks[b]):
                continue
            r = order._starts[b] + at
            enabled = all(map(lt, rows[r], y))
            assert all(y[c] > q for c, q in needs[r]) == enabled, (y, b)
            tally["heads"] += 1
            tally["disabled"] += not enabled


def test_needs_test_matches_pred_rows_on_wide_corpus():
    # every feasible candidate poset of every cross-thread pair of the
    # general watcher gate's corpus
    tally = Counter()
    for s in range(320):
        t = gen_random_trace(
            30_000 + s, n=10 + s % 21, k=2 + s % 4, d_globals=2 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.35,
            nesting_max=1 + s % 3,
        )
        seen = set()
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            for x, _, _ in _candidates(t, e1, e2):
                if x.prefix not in seen and (res := feasibility(x)):
                    needs_test_like_pred_rows(res.poset, tally)
                seen.add(x.prefix)
    assert tally["heads"] >= 400_000 and tally["disabled"] >= 40_000
    assert tally["left out"] >= 50_000, tally


@given(traces(max_events=12))
@settings(deadline=None, max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_needs_test_matches_pred_rows_on_every_feasible_ideal(trace):
    for x, res in each_feasible_ideal(trace):
        if res:
            needs_test_like_pred_rows(res.poset, Counter())


def agrees_on_every_ideal(trace) -> None:
    """On every feasible ideal of ``trace``, the general search matches the
    watcher reference and finds a witness exactly when brute force does."""
    reachable = realizable_sets(trace)
    for x, res in each_feasible_ideal(trace):
        if res:
            w = searches_like_the_watchers(res.poset)
            assert (w is not None) == (x.members in reachable), x.prefix


def general_witness(trace, members) -> list[int]:
    w = searches_like_the_watchers(feasibility(Ideal.from_members(trace, members)).poset)
    assert w is not None and verify_witness(trace, w)
    return w


def test_general_write_waits_for_both_readers_of_a_pending_write():
    # t1's write is read in t2 and in t3; t4's write of x may not come
    # between that write and either read
    t = parse_trace("t1 w x\nt2 r x\nt3 r x\nt4 w x\n")
    agrees_on_every_ideal(t)
    w = general_witness(t, [1, 2, 3, 4])
    assert w.index(4) > max(w.index(2), w.index(3)) or w.index(4) < w.index(1)


def test_general_reader_outside_the_universe_holds_no_channel():
    # t3's read of t1's write is outside the prefix, so once t2 has read,
    # nothing on x is pending and t4's write may follow
    t = parse_trace("t1 w x\nt2 r x\nt3 r x\nt4 w x\n")
    assert general_witness(t, [1, 2, 4]) == [1, 2, 4]
    assert frozenset([1, 2, 4]) in realizable_sets(t)


def test_general_held_lock_blocks_another_threads_acquire():
    # t1 has acquired l and not yet released it while t2's acquire of l is
    # in the frontier: t2's section goes wholly before or after t1's
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w y\nt2 rel l\n")
    agrees_on_every_ideal(t)
    w = general_witness(t, range(1, 7))
    assert not w.index(1) < w.index(4) < w.index(3)


def test_general_read_of_a_synthesized_write():
    # the read of x observes the synthesized initial write 1, so t2's write
    # waits for it; without the read, it need not
    t = parse_trace("t1 r x\nt2 w x\n")
    assert t.is_synthesized(1) and t.rf[2] == 1
    agrees_on_every_ideal(t)
    assert general_witness(t, [1, 2, 3]) == [1, 2, 3]
    assert general_witness(t, [1, 3]) == [1, 3]


# ---------------------------------------------------------------------------
# the tree backend
# ---------------------------------------------------------------------------


def test_triangle_topology_is_rejected():
    t = parse_trace("t1 w x\nt2 r x\nt2 w y\nt3 r y\nt3 w z\nt1 r z\n")
    p = feasibility(Ideal.from_members(t, range(1, 7))).poset
    with pytest.raises(ValueError):
        realize_tree(p)


def test_tree_witness_on_spec_example():
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    stats = {}
    w = realize_tree(p, stats=stats)
    assert w == [1, 2, 3, 4]
    assert verify_witness(FOUR, w)
    assert stats["closure_edges"] >= 0 and stats["resolution_edges"] >= 0


def test_tree_resolves_unordered_pairs_parent_first():
    # t1 is the root and t2 its child; the closure leaves the writes of x
    # unordered, so resolution puts t1's write 3 before t2's write 2 and the
    # least linear extension is [1, 3, 2] (child first would give [1, 2, 3])
    t = parse_trace("t1 w y\nt2 w x\nt1 w x\n")
    p = RfPoset(t, compute_trf(t))
    stats = {}
    assert realize_tree(p, stats=stats) == [1, 3, 2]
    assert stats["resolution_edges"] == 1


def test_tree_none_exactly_on_contradictory_closure():
    res = feasibility(Ideal.from_members(STUCK, STUCK_MEMBERS))
    assert realize_tree(res.poset) is None


@given(traces(max_events=10, max_threads=2))
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_closed_tree_inducible_posets_always_realize(trace):
    # an ideal's block conflict graph is a subgraph of the trace topology,
    # so on forest topologies the tree backend takes every feasible ideal,
    # and a witness must exist whenever the closure is consistent
    assume(len(trace) >= 1)
    assume(topology_is_forest(trace))
    for x, res in each_feasible_ideal(trace):
        if not res:
            continue
        w = realize_tree(res.poset)
        if closure(res.poset) is None:
            assert w is None
        else:
            assert w is not None
            assert frozenset(w) == x.members
            assert verify_witness(trace, w)


@given(traces(max_events=10, max_threads=3))
@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
def test_backends_agree_with_brute_force(trace):
    assume(len(trace) >= 1)
    reachable = realizable_sets(trace)
    for x, res in each_feasible_ideal(trace):
        if not res:
            assert x.members not in reachable
            continue
        w = realize_general(res.poset)
        assert (w is not None) == (x.members in reachable)
        if w is not None:
            assert frozenset(w) == x.members
            assert verify_witness(trace, w)
        if not block_graph_is_forest(res.poset):
            with pytest.raises(ValueError):
                realize_tree(res.poset)
            continue
        wt = realize_tree(res.poset)
        assert (wt is not None) == (w is not None)
        if wt is not None:
            assert frozenset(wt) == x.members
            assert verify_witness(trace, wt)


def test_tree_backend_takes_exactly_the_forest_posets_on_wide_corpus():
    # every feasible ideal of traces with up to 5 threads, 3 locks and
    # nesting 3, cyclic topologies included: the block conflict graph being
    # a forest is the tree backend's one precondition, and within it the
    # backend agrees with the closure and the general search
    from_cyclic = 0
    for s in range(72):
        t = gen_random_trace(
            70_000 + s, n=8 + s % 9, k=2 + s % 4, d_globals=2 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.35,
            nesting_max=1 + s % 3,
        )
        if len(t) > 16:
            continue
        cyclic = not topology_is_forest(t)
        for x, res in each_feasible_ideal(t):
            if not res:
                continue
            p = res.poset
            if not block_graph_is_forest(p):
                with pytest.raises(ValueError):
                    realize_tree(p)
                continue
            from_cyclic += cyclic
            w = realize_tree(p)
            wg = realize_general(p)
            assert (w is None) == (wg is None) == (closure(p) is None), (s, x.prefix)
            for witness in (w, wg):
                if witness is not None:
                    assert frozenset(witness) == x.members
                    assert verify_witness(t, witness)
    assert from_cyclic >= 2_000


def tree_children(p) -> list[tuple[int, int]]:
    """The (child, parent) block pairs of ``p``'s forest, as the tree backend
    walks them."""
    lengths = [len(block) for block in p.order.blocks]
    return _forest_order(_conflict_graph(_table(p.trace), lengths), range(len(lengths)))


def resolves_like_the_pairwise_loop(p) -> bool:
    """Check the tree backend's resolution of ``p`` against the pairwise
    reference: the same resolved order and the same witness.  False when the
    closure is contradictory, so there is nothing to resolve."""
    closed = closure(p)
    if closed is None:
        return False
    children = tree_children(p)
    edges = _resolve(_table(p.trace), closed.order, children)
    assert not any(closed.order.ordered(u, v) for u, v in edges)
    got = closed.order.copy()
    for u, v in edges:
        got.add_edge(u, v)
    want = resolve_by_pairs(p.trace, closed.order, children)
    assert (got.pred == want.pred).all()
    assert realize_tree(p) == want.linearize()
    return True


def trf_poset(trace):
    return RfPoset(trace, compute_trf(trace))


def cone_poset(trace, e1, e2):
    """The rf-poset the tree route realizes for ``(e1, e2)``, or None."""
    return feasibility(lcone(trace, e1) | lcone(trace, e2)).poset


def chain_trace(n):
    """A two-thread produce/consume chain of n events ending in racing writes."""
    return parse_trace("t1 w x\nt2 r x\n" * (n // 2 - 1) + "t1 w y\nt2 w y\n")


def star_trace(n):
    """A hub thread feeding three arm threads in turn, n events."""
    lines = []
    while len(lines) < n:
        for arm in ("t2", "t3", "t4"):
            lines += [f"t1 w slot_{arm}", f"{arm} r slot_{arm}"]
    return parse_trace("\n".join(lines[:n]) + "\n")


def ov_trace(seed, m, yes):
    """An OV reduction trace in 8 dimensions, every vector with coordinate 0
    set, except for one planted orthogonal pair when ``yes``."""
    rng = random.Random(seed)
    a = [[1] + [rng.randint(0, 1) for _ in range(7)] for _ in range(m)]
    b = [[1] + [rng.randint(0, 1) for _ in range(7)] for _ in range(m)]
    if yes:
        i, j = rng.randrange(m), rng.randrange(m)
        a[i][0] = 0
        b[j] = [1 - bit for bit in a[i]]
    inst = OvInstance(a, b, 8)
    assert inst.has_orthogonal_pair == yes
    return gen_ov_trace(inst)


@given(traces(max_events=12, max_threads=4, lock_bias=0.4))
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_resolution_matches_pairwise_loop_on_forest_traces(trace):
    # every feasible ideal of a forest topology has a forest block graph
    assume(len(trace) >= 1 and topology_is_forest(trace))
    for x, res in each_feasible_ideal(trace):
        if res:
            resolves_like_the_pairwise_loop(res.poset)


def test_resolution_matches_pairwise_loop_on_chain_and_star():
    for t in (chain_trace(200), star_trace(200)):
        assert len(t) == 200
        assert resolves_like_the_pairwise_loop(trf_poset(t))
        assert resolves_like_the_pairwise_loop(cone_poset(t, 199, 200))


def test_resolution_orders_a_child_read_after_parent_writes_only():
    # t2's read of x conflicts with t1's write of x, not with t1's read of
    # it, so nothing is to be added: the write is already below the read
    t = parse_trace("t1 w x\nt1 r x\nt2 w y\nt2 r x\n")
    assert resolves_like_the_pairwise_loop(trf_poset(t))


def test_resolution_matches_pairwise_loop_on_ov():
    resolved = 0
    for m in range(1, 9):
        for yes in (True, False):
            t, (e1, e2) = ov_trace(m, m, yes)
            resolved += resolves_like_the_pairwise_loop(trf_poset(t))
            p = cone_poset(t, e1, e2)
            if p is not None:
                resolved += resolves_like_the_pairwise_loop(p)
    assert resolved >= 24


def resolution_edges(p) -> tuple[int, int]:
    """The edges ``realize_tree(p)`` resolves under, as its stats count
    them, and the number of events in the child blocks."""
    stats = {}
    assert realize_tree(p, stats=stats) is not None
    return stats["resolution_edges"], sum(len(p.order.blocks[c]) for c, _ in tree_children(p))


def test_resolution_adds_at_most_one_edge_per_child_event():
    # the pairwise loop inserts one edge per unordered conflicting pair,
    # n * n of them on the two runs of writes
    n = 150
    runs = parse_trace("t1 w x\n" * n + "t2 w x\n" * n)
    for t in (runs, chain_trace(200)):
        edges, child_events = resolution_edges(trf_poset(t))
        assert 0 < edges <= child_events


# ---------------------------------------------------------------------------
# bounded backend
# ---------------------------------------------------------------------------


def test_bounded_replays_the_trace_at_zero():
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    w = realize_bounded(p, 0)
    assert w == [1, 2, 3, 4]
    assert reversal_count(FOUR, w) == 0


def test_bounded_finds_the_forced_acquire_flip():
    # realizing t1's open acquire after t2's closed section needs exactly
    # one flipped acquire pair
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l\n")
    x = Ideal.from_members(t, [1, 3, 4])
    assert min_distance_by_set(t)[x.members] == 1
    p = feasibility(x).poset
    assert realize_bounded(p, 0) is None
    stats = {}
    w = realize_bounded(p, 1, stats=stats)
    assert w == [3, 4, 1]
    assert verify_witness(t, w)
    assert reversal_pairs(t, w) == [(1, 3)]
    assert stats["reversals"] == [(1, 3)]


def test_bounded_rejects_unrealizable_ideal_at_every_budget():
    p = feasibility(Ideal.from_members(STUCK, STUCK_MEMBERS)).poset
    for budget in (0, 1, 2):
        assert realize_bounded(p, budget) is None


def test_bounded_rejects_bad_arguments():
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    with pytest.raises(ValueError):
        realize_bounded(p, -1)


@given(traces(max_events=10, max_threads=3))
@settings(deadline=None, max_examples=20, suppress_health_check=[HealthCheck.too_slow])
def test_bounded_promise_against_min_distance(trace):
    assume(len(trace) >= 1)
    distances = min_distance_by_set(trace)
    for x, res in each_feasible_ideal(trace):
        if not res:
            continue
        best = distances.get(x.members)
        for budget in (0, 1, 2):
            w = realize_bounded(res.poset, budget)
            if w is not None:
                # soundness: a returned witness realizes x within budget
                assert frozenset(w) == x.members
                assert verify_witness(trace, w)
                assert reversal_count(trace, w) <= budget
                assert best is not None and best <= budget
            elif best is not None and best <= budget:
                raise AssertionError(
                    f"missed witness at distance {best} with budget {budget}"
                )


def test_bounded_takes_one_branch_to_flip_two_pairs():
    # t1's section stays open, so t3's closed section, and t3's write of x
    # before it, must run before t1's acquire and read; the read must still
    # see t2's write, so t3's write moves before t2's as well.  The witness
    # flips the write pair and the acquire pair after a single branch;
    # searching on condition-1 edges first would take a wasted branch.
    t = parse_trace(
        "t2 w x\nt1 acq l\nt1 r x\nt1 rel l\nt3 w x\nt3 acq l\nt3 rel l\n"
    )
    p = feasibility(Ideal.from_members(t, [1, 2, 3, 5, 6, 7])).poset
    assert realize_bounded(p, 0) is None
    stats = {}
    assert realize_bounded(p, 1, stats=stats) is None
    assert stats["branches"] == 1
    stats = {}
    w = realize_bounded(p, 2, stats=stats)
    assert w == [5, 1, 6, 7, 2, 3]
    assert verify_witness(t, w)
    assert stats == {"branches": 1, "reversals": [(1, 5), (2, 6)]}


def test_bounded_inserts_replay_and_condition_two_edges_as_two_batches(monkeypatch):
    # with no cycle, the replay edges and the condition-2 edges, two
    # batches read off the node's order, go to one linearize call; no edge
    # is inserted on its own
    p = trf_poset(chain_trace(200))
    calls = {"add_edge": 0, "linearize": 0}
    for name in calls:
        real = getattr(PartialOrder, name)

        def spy(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(PartialOrder, name, spy)
    stats = {}
    assert realize_bounded(p, 0, stats=stats) is not None
    assert stats["branches"] == 0
    assert calls == {"add_edge": 0, "linearize": 1}


def branching_corpus():
    """Every feasible poset of small lock-heavy traces, read-heavy enough for
    the bounded search to branch."""
    for s in range(130):
        t = gen_random_trace(
            90_000 + s, n=10 + s % 5, k=3 + s % 2, d_globals=1 + s % 2,
            d_locks=1 + s % 2, read_ratio=0.45, lock_ratio=0.45,
            nesting_max=1 + s % 2,
        )
        if len(t) > 15:
            continue
        for x, res in each_feasible_ideal(t):
            if res:
                yield s, x, res.poset


def test_bounded_matches_pairwise_reference_on_branching_corpus():
    # the same witness and the same branch count as the all-pairs replay
    # with a per-observer read extension, on the branch path too
    branching = found = 0
    for s, x, p in branching_corpus():
        for budget in (1, 2, 3):
            got, want = {}, {}
            w = realize_bounded(p, budget, stats=got)
            assert w == bounded_by_pairs(p, budget, stats=want), (s, x.prefix, budget)
            assert got["branches"] == want["branches"], (s, x.prefix, budget)
            if got["branches"]:
                branching += 1
                found += w is not None
    assert branching >= 30 and found >= 2


def test_bounded_cyclic_root_inserts_nothing_but_each_branch_flip(monkeypatch):
    # at budget 1 only the root can branch.  It reads its cycle off the
    # CycleError linearize raises, so its own order gets no add_edge call;
    # each branch tried inserts its flip, once, into a copy of its own
    calls = []  # the order each call went to; kept alive, so ids stay apart
    real = PartialOrder.add_edge

    def spy(self, u, v):
        calls.append(self)
        return real(self, u, v)

    monkeypatch.setattr(PartialOrder, "add_edge", spy)
    cyclic = branches = 0
    for s, x, p in branching_corpus():
        guards = _Guards(p)
        edges = guards.replay(p.order) + guards.unprotected_after_replay(p.order)
        try:
            p.order.linearize(edges)
            continue
        except CycleError:
            pass
        calls.clear()
        stats = {}
        realize_bounded(p, 1, stats=stats)
        assert all(order is not p.order for order in calls), (s, x.prefix)
        assert len(set(map(id, calls))) == len(calls) >= stats["branches"], (s, x.prefix)
        cyclic += 1
        branches += stats["branches"]
    assert cyclic >= 25 and branches >= 10


def with_first_flip(p):
    """The poset's order with its first unordered conflicting writer pair
    flipped against the trace, as a branch of the bounded search does, or
    None when every such pair is ordered."""
    q = p.order
    writers = sorted(e for e in q.events() if p.trace.event(e).writes_like)
    for u, v in combinations(writers, 2):
        if conflicting(p.trace.event(u), p.trace.event(v)) and q.unordered(u, v):
            flipped = q.copy()
            flipped.add_edge(v, u)
            return flipped
    return None


def test_replay_orders_like_the_pairwise_replay():
    # where neither replay closes a cycle, both give the same order, a flip
    # against the trace included, and one pass of condition-2 edges then
    # closes it
    compared = flipped = 0
    for s, x, p in branching_corpus():
        guards = _Guards(p)
        for q in (p.order, with_first_flip(p)):
            if q is None:
                continue
            g, want = q.copy(), q.copy()
            try:
                for u, v in guards.replay(q):
                    g.add_edge(u, v)
                replay_by_pairs(p.trace, q, want)
            except CycleError:
                continue
            assert (g.pred == want.pred).all(), (s, x.prefix)
            # condition 2 read off q alone, less what the replay implies
            extension = [e for e in guards.unprotected_after_replay(q) if not g.ordered(*e)]
            assert extension == unprotected(guards, g), (s, x.prefix)
            compared += 1
            flipped += q is not p.order
            try:
                for u, v in unprotected(guards, g):
                    g.add_edge(u, v)
            except CycleError:
                continue
            assert is_closed(RfPoset(p.trace, g)), (s, x.prefix)
    assert compared >= 20_000 and flipped >= 8_000


def test_shrink_cross_rejects_an_empty_cycle():
    p = feasibility(Ideal.from_members(FOUR, [1, 2, 3, 4])).poset
    with pytest.raises(RuntimeError):
        shrink_cross([], p.order)


def test_bounded_predict_matches_min_distance_on_wide_corpus():
    # up to 5 threads, 3 locks and nesting 3, over 31 k (query, budget) runs:
    # the search alone must find a witness whenever one within budget exists.
    # At s = 204, 592, 628, 888 and 920 it returns None on some candidate,
    # so a witness it missed there would show.
    runs = 0
    for s in range(1000):
        t = gen_random_trace(
            50_000 + s, n=8 + s % 9, k=2 + s % 4, d_globals=2 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.35,
            nesting_max=1 + s % 3,
        )
        if len(t) > 16:
            continue
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            best = min_distance(t, e1, e2, cap=16)
            for budget in range(4):
                v = predict(t, e1, e2, algo="bounded", distance=budget)
                assert v.race == (best <= budget), (s, e1, e2, budget, best)
                if v.race:
                    assert reversal_count(t, v.witness) == v.distance <= budget
                runs += 1
    assert runs >= 30_000


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def test_linearize_matches_scan_on_ov_closed_orders():
    # the closed TRF and cone orders of OV traces in 3 dimensions, and the
    # resolved cone order the tree backend linearizes
    rng = random.Random(7)
    orders = 0
    for m in range(1, 5):
        for _ in range(6):
            a = [[rng.randint(0, 1) for _ in range(3)] for _ in range(m)]
            b = [[rng.randint(0, 1) for _ in range(3)] for _ in range(m)]
            t, (e1, e2) = gen_ov_trace(OvInstance(a, b, 3))
            for p in (trf_poset(t), cone_poset(t, e1, e2)):
                closed = None if p is None else closure(p)
                if closed is None:
                    continue
                edges = _resolve(_table(t), closed.order, tree_children(closed))
                resolved = closed.order.copy()
                for u, v in edges:
                    resolved.add_edge(u, v)
                assert closed.order.linearize(edges) == linearize_by_scan(resolved)
                for q in (closed.order, resolved):
                    assert q.linearize() == linearize_by_scan(q)
                    orders += 1
    assert orders >= 80


def test_linearize_matches_scan_on_bounded_corpus(monkeypatch):
    # every order the bounded search linearizes, under the edges it passes,
    # on the branch path too; at budget 2 that includes each root order
    # budget 0 would linearize
    real, calls = PartialOrder.linearize, []

    def spy(self, edges=()):
        edges = list(edges)
        out = real(self, edges)
        g = self.copy()
        for u, v in edges:
            g.add_edge(u, v)
        assert out == linearize_by_scan(g)
        calls.append(len(out))
        return out

    monkeypatch.setattr(PartialOrder, "linearize", spy)
    for s, x, p in branching_corpus():
        realize_bounded(p, 2)
    assert len(calls) >= 10_000


def test_linearize_matches_scan_on_chain_and_star():
    for t in (chain_trace(2000), star_trace(2000)):
        q = compute_trf(t)
        assert q.linearize() == linearize_by_scan(q) == list(range(1, 2001))


# ---------------------------------------------------------------------------
# reversal bookkeeping
# ---------------------------------------------------------------------------


def test_reversal_pairs_of_a_replay_are_empty():
    assert reversal_pairs(FOUR, [1, 2, 3, 4]) == []
    assert reversal_count(FOUR, [1, 2]) == 0


def test_reversal_pairs_spot_the_flips():
    t = parse_trace("t1 w x\nt2 w x\nt2 w x\n")
    assert reversal_pairs(t, [2, 3, 1]) == [(1, 2), (1, 3)]
    # order within the same thread can never flip
    assert reversal_pairs(t, [2, 1, 3]) == [(1, 2)]


@given(traces(max_events=14, max_threads=4, lock_bias=0.4), st.data())
@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
def test_reversal_pairs_match_pairwise_form(trace, data):
    # witnesses are random orders of random event subsets, so most of them
    # are not correct reorderings; lock channels are included
    ids = [ev.eid for ev in trace.events]
    subset = data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([]))
    witness = data.draw(st.permutations(subset))
    assert reversal_pairs(trace, witness) == reversal_pairs_by_combinations(trace, witness)


def test_reversal_pairs_of_a_long_single_thread_channel_are_empty():
    t = parse_trace("t1 w x\n" * 2000)
    assert reversal_pairs(t, list(range(1, 2001))) == []


def test_reversal_pairs_of_a_fully_reversed_channel_are_every_pair():
    m = 300
    t = parse_trace("t1 w x\nt2 w x\n" * (m // 2))
    assert reversal_pairs(t, list(range(m, 0, -1))) == list(combinations(range(1, m + 1), 2))
