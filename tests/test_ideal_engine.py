"""Trace ideals: cones, lock cones, feasibility, and candidate ideal sets."""

import functools
import hashlib
import random
import sys
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from racepred import (
    Feasibility,
    Ideal,
    TraceError,
    candidate_ideal_set,
    communication_topology,
    compute_trf,
    cone,
    enabled_events,
    feasibility,
    is_ideal,
    lcone,
    open_acquires,
    oracle_predict,
    parse_trace,
    serialize,
    trace_params,
)
from racepred import ideal_engine
from racepred.cli import predict, scan_pairs
from racepred.generators import IsInstance, gen_indset_trace, gen_random_trace
from racepred.ideal_engine import _table

from helpers import (
    candidate_set_by_members,
    conflicting_pairs,
    cone_by_members,
    down_close,
    full_candidate_set_by_members,
    lcone_by_members,
    lock_handoff_traces,
    lock_open_twice,
    open_acquires_by_members,
    realizable_sets,
    traces,
)


def topology_graph(trace) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(trace.threads)
    g.add_edges_from(communication_topology(trace))
    return g


def oracle_says(trace, e1, e2) -> bool:
    return oracle_predict(trace, e1, e2, cap=max(14, len(trace)))


THREE = parse_trace("t1 w x\nt1 r x\nt2 w x\n")


# ---------------------------------------------------------------------------
# is_ideal / enabled_events
# ---------------------------------------------------------------------------


def test_is_ideal_trivial_sets():
    assert is_ideal(THREE, [])
    assert is_ideal(THREE, [1, 2, 3])


def test_is_ideal_rejects_read_without_writer():
    # e2 reads x from e1; keeping the read alone breaks observation closure
    assert not is_ideal(THREE, [2])
    # and a plain thread-order gap is just as bad
    assert not is_ideal(parse_trace("t1 w x\nt1 w y\n"), [2])


def test_enabled_events_empty_and_full():
    assert enabled_events(Ideal.from_members(THREE, [])) == {1, 3}
    assert enabled_events(Ideal.from_members(THREE, [1, 2, 3])) == frozenset()


def test_enabled_events_after_first_write():
    assert enabled_events(Ideal.from_members(THREE, [1])) == {2, 3}


def test_ideal_from_members_rejects_non_ideal():
    with pytest.raises(TraceError):
        Ideal.from_members(THREE, [2])


def test_ideal_is_its_prefix_vector():
    x = Ideal.from_members(THREE, [1, 3])
    assert x.prefix == (1, 1)
    assert x == Ideal(THREE, (1, 1)) and hash(x) == hash(Ideal(THREE, (1, 1)))
    assert x != Ideal(THREE, (2, 1))
    # the same prefix on a separately parsed copy is another trace's ideal
    assert x != Ideal(parse_trace(serialize(THREE)), (1, 1))
    assert len({x, Ideal.from_members(THREE, [3, 1]), Ideal(THREE, (0, 0))}) == 2


def test_ideal_union_is_pointwise_max():
    t = parse_trace("t1 w x\nt2 r x\nt2 w y\nt3 w z\n")
    x = Ideal.from_members(t, [1, 2]) | Ideal.from_members(t, [4])
    assert x.prefix == (1, 1, 1) and x.members == {1, 2, 4}
    with pytest.raises(ValueError):
        x | Ideal(parse_trace(serialize(t)), (0, 0, 0))


@given(traces(max_events=12), st.data())
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_ideal_membership_and_size_agree_with_members(trace, data):
    eids = [ev.eid for ev in trace]
    seeds = data.draw(st.lists(st.sampled_from(eids), max_size=3) if eids else st.just([]))
    x = cone(trace, seeds)
    for y in (x, Ideal(trace, tuple(len(p) for p in trace.by_thread))):
        assert len(y) == len(y.members)
        for e in range(0, len(trace) + 2):
            assert (e in y) == (e in y.members)
        assert "1" not in y


@given(traces(max_events=10), st.data())
@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow])
def test_from_members_accepts_exactly_the_down_closed_sets(trace, data):
    eids = [ev.eid for ev in trace]
    # an arbitrary subset, and one prefix per thread (no gaps, so only
    # observation closure can fail)
    lengths = [data.draw(st.integers(0, len(proj))) for proj in trace.by_thread]
    prefixes = {e for proj, m in zip(trace.by_thread, lengths) for e in proj[:m]}
    subset = set(data.draw(st.lists(st.sampled_from(eids), unique=True) if eids else st.just([])))
    for s in (subset, prefixes):
        closed = down_close(trace, s) == s
        assert is_ideal(trace, s) == closed
        if closed:
            assert Ideal.from_members(trace, s).members == s
        else:
            with pytest.raises(TraceError):
                Ideal.from_members(trace, s)


def test_ideal_table_is_built_once_per_trace():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 r x\nt2 rel l")
    table = _table(t)
    assert _table(t) is table
    cone(t, [5])
    candidate_ideal_set(t, 2, 5)
    lcone(t, 5)
    feasibility(Ideal.from_members(t, [1, 2, 4]))
    assert _table(t) is table
    assert table.down[5] == (2, 2) and table.opens[1][2] == (4,)
    # a second parse of the same text is a separate trace with its own table
    other = parse_trace(serialize(t))
    assert _table(other) is not table
    # the same facts, arrays compared by value
    assert all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(_table(other), table, strict=True)
    )


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_cone_of_first_event_is_empty():
    assert cone(THREE, [1]).members == frozenset()
    assert cone(THREE, [3]).members == frozenset()


def test_cone_rejects_unknown_ids():
    # as lcone, Ideal.from_members and is_ideal do
    for events in ([999], [0], [-1], [2, 4]):
        with pytest.raises(TraceError, match="out of range"):
            cone(THREE, events)


def test_cone_takes_predecessor_closure():
    assert cone(THREE, [2]).members == {1}
    # reader's cone follows rf back into the other thread
    t = parse_trace("t1 w x\nt2 r x\nt2 w y\n")
    assert cone(t, [3]).members == {1, 2}


@given(traces(max_events=12))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cone_is_union_of_member_cones(trace):
    assume(len(trace) >= 2)
    eids = [ev.eid for ev in trace]
    a, b = eids[0], eids[-1]
    both = cone(trace, [a, b]).members
    assert both == cone(trace, [a]).members | cone(trace, [b]).members
    assert is_ideal(trace, both)


@given(traces(max_events=14, max_threads=4, max_locks=3), st.data())
@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow])
def test_cone_matches_event_by_event_closure(trace, data):
    eids = [ev.eid for ev in trace]
    s = data.draw(st.lists(st.sampled_from(eids), max_size=4) if eids else st.just([]))
    x = cone(trace, s)
    assert x.members == cone_by_members(trace, s)
    assert x == Ideal.from_members(trace, x.members)


@given(traces(max_events=12), st.data())
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_cone_is_minimal(trace, data):
    assume(len(trace) >= 1)
    eids = [ev.eid for ev in trace]
    s = data.draw(st.lists(st.sampled_from(eids), min_size=1, max_size=2, unique=True))
    x = cone(trace, s)
    assume(all(e not in x.members for e in s))
    assert all(e in enabled_events(x) for e in s)
    # dropping any maximal member leaves some queried event unenabled
    for m in x.members:
        rest = x.members - {m}
        if not is_ideal(trace, rest):
            continue
        reduced = Ideal.from_members(trace, rest)
        assert not all(e in enabled_events(reduced) for e in s)


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def test_two_open_acquires_on_one_lock():
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l\n")
    x = Ideal.from_members(t, [1, 3])
    assert feasibility(x).status is Feasibility.INFEASIBLE_LOCKS
    assert not feasibility(x)


def test_lock_free_ideal_is_feasible_with_plain_order():
    x = Ideal.from_members(THREE, [1, 2])
    res = feasibility(x)
    assert res.status is Feasibility.FEASIBLE
    want = compute_trf(THREE, (2, 0))
    got = res.poset.order
    evs = [1, 2]
    assert {(u, v) for u in evs for v in evs if u != v and want.ordered(u, v)} == {
        (u, v) for u in evs for v in evs if u != v and got.ordered(u, v)
    }


def test_mandated_release_edge_can_contradict_observation():
    # t2's critical section must close before t1's open acquire, but the
    # read inside it observes the write inside t1's section: cycle.
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 r x\nt2 rel l\n")
    x = Ideal.from_members(t, [1, 2, 4, 5, 6])
    assert feasibility(x).status is Feasibility.INFEASIBLE
    # brute force agrees: no correct reordering has exactly this event set
    assert x.members not in realizable_sets(t)


def test_open_acquires_reports_unmatched_only():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 r x\nt2 rel l\n")
    assert open_acquires(Ideal.from_members(t, [1, 2, 4, 5, 6])) == [1]
    assert open_acquires(Ideal.from_members(t, [1, 2, 3])) == []


# ---------------------------------------------------------------------------
# lock causal cones
# ---------------------------------------------------------------------------


def test_lcone_spec_steps():
    t = parse_trace("t1 w x\nt2 r x\nt2 w y\n")
    assert lcone(t, 3).members == {1, 2}


def test_lcone_of_isolated_first_event_is_empty():
    t = parse_trace("t1 w x\nt2 w y\n")
    assert lcone(t, 2).members == frozenset()


def test_lcone_rejects_cyclic_topology():
    t = parse_trace(
        "t1 w x\nt2 r x\nt2 w y\nt3 r y\nt3 w z\nt1 r z\n"
    )
    assert not nx.is_forest(topology_graph(t))
    with pytest.raises(TraceError):
        lcone(t, 1)


def test_lcone_closes_clashing_parent_sections():
    # t1 holds l at its last event; t2's earlier section on l must be
    # pulled in whole so the cone stays lock-feasible
    t = parse_trace(
        "t2 acq l\nt2 w x\nt2 rel l\nt1 acq l\nt1 r x\nt1 w y\nt1 rel l\n"
    )
    x = lcone(t, 6)  # w y, while t1 still holds l
    assert x.members == {1, 2, 3, 4, 5}
    assert feasibility(x).status is not Feasibility.INFEASIBLE_LOCKS


def test_lcone_matches_member_replay_on_seeded_forest_corpus():
    # seeded forest traces, each cone checked against a replay of the spec
    # on member sets; the floors keep parents' open sections and grown
    # children in the corpus
    rng = random.Random(31)
    forests = cones = clashed = 0
    for seed in range(600):
        t = gen_random_trace(
            seed,
            n=rng.randint(8, 40),
            k=rng.randint(2, 5),
            d_globals=rng.randint(1, 3),
            d_locks=rng.randint(1, 3),
            read_ratio=rng.random(),
            lock_ratio=rng.uniform(0.3, 0.9),
            nesting_max=rng.randint(1, 3),
        )
        if not _table(t).forest:
            continue
        forests += 1
        for ev in t:
            # the replay's grown set is an ideal too, as lcone argues
            want = lcone_by_members(t, ev.eid)
            assert want is not None and want == lcone(t, ev.eid).members, (seed, ev.eid)
            cones += 1
            # the cone closes a section that the frontiers alone leave open
            clashed += want != lcone_by_members(t, ev.eid, False)
    assert forests >= 180 and cones >= 4000 and clashed >= 70, (forests, cones, clashed)


@given(traces(max_events=12))
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_lcone_is_lock_feasible_ideal(trace):
    assume(len(trace) >= 1)
    assume(nx.is_forest(topology_graph(trace)))
    for ev in trace:
        x = lcone(trace, ev.eid)
        assert is_ideal(trace, x.members)
        assert feasibility(x).status is not Feasibility.INFEASIBLE_LOCKS


# ---------------------------------------------------------------------------
# candidate ideal set
# ---------------------------------------------------------------------------


def test_candidate_set_rejects_bad_queries():
    with pytest.raises(TraceError):
        candidate_ideal_set(THREE, 1, 1)
    t = parse_trace("t1 acq l\nt1 rel l\nt2 w x\n")
    with pytest.raises(TraceError):
        candidate_ideal_set(t, 1, 3)  # lock event is not a race endpoint


def test_candidate_set_lock_free_is_just_the_cone():
    got = candidate_ideal_set(THREE, 1, 3)
    assert [sorted(x.members) for x in got] == [[]]
    t = parse_trace("t1 w x\nt1 w y\nt2 r y\nt2 w x\n")
    got = candidate_ideal_set(t, 1, 4)
    assert [sorted(x.members) for x in got] == [sorted(cone(t, [1, 4]).members)]


def test_candidate_set_closes_open_section():
    # the cone of (5, 8) leaves t3's acquire open; the only growth step
    # adds its release (and nothing else), and both are feasible
    t = parse_trace(
        "t3 acq l\nt3 w y\nt3 rel l\n"
        "t1 r y\nt1 w x\n"
        "t2 acq l\nt2 rel l\nt2 w x\n"
    )
    got = candidate_ideal_set(t, 5, 8)
    assert [sorted(x.members) for x in got] == [
        [1, 2, 4, 6, 7],
        [1, 2, 3, 4, 6, 7],
    ]
    assert all(feasibility(x) for x in got)
    assert oracle_predict(t, 5, 8)
    # the seed itself carries the race: its one witness enables both events
    assert got[0].members in realizable_sets(t)


@given(traces(max_events=12), st.data())
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_candidate_members_enable_the_pair(trace, data):
    pairs = list(conflicting_pairs(trace))
    assume(pairs)
    e1, e2 = data.draw(st.sampled_from(pairs))
    for x in candidate_ideal_set(trace, e1, e2):
        assert is_ideal(trace, x.members)
        if e1 in x.members or e2 in x.members:
            continue  # TRF-ordered pair; the seed can swallow an endpoint
        enabled = enabled_events(x)
        assert e1 in enabled and e2 in enabled


@given(traces(max_events=12), st.data())
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_candidate_count_within_parameter_bound(trace, data):
    pairs = list(conflicting_pairs(trace))
    assume(pairs)
    e1, e2 = data.draw(st.sampled_from(pairs))
    got = candidate_ideal_set(trace, e1, e2)
    p = trace_params(trace)
    bound = max(1, min(len(trace), p.k * p.gamma * p.zeta) ** max(0, p.k - 2))
    assert len(got) <= bound
    assert len({x.members for x in got}) == len(got)


@given(traces(max_events=11, max_threads=3), st.data())
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_race_iff_some_candidate_realizes(trace, data):
    pairs = list(conflicting_pairs(trace))
    assume(pairs)
    e1, e2 = data.draw(st.sampled_from(pairs))
    reachable = realizable_sets(trace)
    via_candidates = any(
        e1 not in x.members and e2 not in x.members and x.members in reachable
        for x in candidate_ideal_set(trace, e1, e2)
    )
    assert via_candidates == oracle_says(trace, e1, e2)


@given(traces(max_events=11, max_threads=3), st.data())
@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_race_iff_lock_cone_union_realizes(trace, data):
    assume(len(trace) >= 1)
    assume(nx.is_forest(topology_graph(trace)))
    pairs = list(conflicting_pairs(trace))
    assume(pairs)
    e1, e2 = data.draw(st.sampled_from(pairs))
    union = lcone(trace, e1).members | lcone(trace, e2).members
    assert is_ideal(trace, union)
    via_union = (
        e1 not in union and e2 not in union and union in realizable_sets(trace)
    )
    assert via_union == oracle_says(trace, e1, e2)


def test_candidate_set_matches_member_bfs_on_wide_corpus():
    # up to 5 threads, 3 locks and nesting 3: the prefix-vector sweep must
    # return the member-set sweep's ideals, in the same order
    pairs = grown = 0
    for s in range(600):
        t = gen_random_trace(
            60_000 + s, n=20 + s % 13, k=2 + s % 4, d_globals=1 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.5,
            nesting_max=1 + s % 3,
        )
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            got = [x.members for x in candidate_ideal_set(t, e1, e2)]
            assert got == candidate_set_by_members(t, e1, e2), (s, e1, e2)
            pairs += 1
            grown += len(got) > 1
    assert pairs >= 30_000 and grown >= 2_000


def _cycle(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def _complete(n):
    return list(combinations(range(1, n + 1), 2))


INDSET_FAMILIES = (  # (nodes, edges, target size)
    (6, _cycle(6), 3),
    (7, _cycle(7), 3),
    (8, _cycle(8), 3),
    (5, _cycle(5), 3),
    (5, _complete(5), 2),
    (6, sorted(set(_complete(6)) - {(min(e), max(e)) for e in _cycle(6)}), 3),
)


@pytest.mark.parametrize("n, edges, c", INDSET_FAMILIES)
def test_candidate_set_matches_member_bfs_on_indset(n, edges, c):
    # lock-heavy reduction traces: thousands of candidates per query
    rng = random.Random(f"indset:{n}:{len(edges)}:{c}")
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    inst = IsInstance(n, frozenset((relabel[u], relabel[v]) for u, v in edges), c)
    t, (e1, e2) = gen_indset_trace(inst)
    got = [x.members for x in candidate_ideal_set(t, e1, e2)]
    assert len(_indset_full(n, tuple(edges), c)) > 400
    assert got == candidate_set_by_members(t, e1, e2)


# ---------------------------------------------------------------------------
# lock-clash pruning keeps every lock-feasible candidate
# ---------------------------------------------------------------------------


def _wide_trace(s):
    """Trace ``s`` of the wide corpus: up to 5 threads, 3 locks, nesting 3."""
    return gen_random_trace(
        60_000 + s, n=20 + s % 13, k=2 + s % 4, d_globals=1 + s % 2,
        d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.5,
        nesting_max=1 + s % 3,
    )


@functools.cache
def _indset_full(n, edges, c):
    """The unpruned sweep of one INDSET_FAMILIES entry, as member sets."""
    t, (e1, e2) = _indset(n, edges, c)
    return full_candidate_set_by_members(t, e1, e2)


def _lost_and_extra(trace, e1, e2, full):
    """Lock-feasible ideals of the full sweep that the pruned sweep misses,
    ideals of the pruned sweep that the full sweep never reaches, and the
    pruned sweep's size."""
    got = {x.members for x in candidate_ideal_set(trace, e1, e2)}
    feasible = {
        y for y in full
        if e1 not in y and e2 not in y
        and lock_open_twice(trace, open_acquires_by_members(trace, y)) is None
    }
    return feasible - got, got - set(full), len(got)


def test_pruned_sweep_keeps_every_lock_feasible_ideal_on_wide_corpus():
    pairs = pruned = 0
    for s in range(600):
        t = _wide_trace(s)
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            full = full_candidate_set_by_members(t, e1, e2)
            lost, extra, kept = _lost_and_extra(t, e1, e2, full)
            assert not lost and not extra, (s, e1, e2)
            pairs += 1
            pruned += kept < len(full)
    assert pairs >= 30_000 and pruned >= 20  # few random traces clash


@pytest.mark.parametrize("n, edges, c", INDSET_FAMILIES)
def test_pruned_sweep_keeps_every_lock_feasible_ideal_on_indset(n, edges, c):
    t, (e1, e2) = _indset(n, edges, c)
    full = _indset_full(n, tuple(edges), c)
    lost, extra, kept = _lost_and_extra(t, e1, e2, full)
    assert not lost and not extra
    assert kept < len(full)


@given(st.one_of(traces(max_events=12), lock_handoff_traces()), st.data())
@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow])
def test_pruned_sweep_keeps_every_lock_feasible_ideal(trace, data):
    pairs = list(conflicting_pairs(trace))
    assume(pairs)
    e1, e2 = data.draw(st.sampled_from(pairs))
    full = full_candidate_set_by_members(trace, e1, e2)
    lost, extra, _ = _lost_and_extra(trace, e1, e2, full)
    assert not lost and not extra


def test_pruned_sweep_grows_through_every_acquire_of_the_clashing_lock():
    # the cone holds l open in t1, around w x (2), and in t3; only t3's
    # section closes without taking in a query event, and that is the witness
    t = parse_trace(
        "t1 acq l\nt1 w x\nt1 rel l\nt3 acq l\nt3 w y\nt3 rel l\nt2 r y\nt2 w x\n"
    )
    got = [x.members for x in candidate_ideal_set(t, 2, 8)]
    assert got == [{1, 4, 5, 7}, {1, 4, 5, 6, 7}] == full_candidate_set_by_members(t, 2, 8)
    assert predict(t, 2, 8, algo="general").race


@pytest.mark.parametrize("n, edges, c", [INDSET_FAMILIES[3], INDSET_FAMILIES[5]])
def test_pruned_sweep_examines_a_quarter_of_the_full_sweep(n, edges, c):
    # C5-c3 and coC6-c3 are no-instances: predict examines every candidate
    t, (e1, e2) = _indset(n, edges, c)
    v = predict(t, e1, e2, algo="general")
    assert not v.race
    assert 4 * v.stats["ideals"] <= len(_indset_full(n, tuple(edges), c))


# ---------------------------------------------------------------------------
# the lazy candidate sweep
# ---------------------------------------------------------------------------


def _indset(n, edges, c, salt="indset"):
    """The relabelled reduction trace and query of one INDSET_FAMILIES entry,
    its relabelling drawn from a generator seeded by ``salt``."""
    rng = random.Random(f"{salt}:{n}:{len(edges)}:{c}")
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    inst = IsInstance(n, frozenset((relabel[u], relabel[v]) for u, v in edges), c)
    return gen_indset_trace(inst)


def _calls(monkeypatch, name, caller=None):
    """Record the results of ``ideal_engine.<name>``, made from ``caller`` if given."""
    fn = getattr(ideal_engine, name)
    seen = []

    def counted(*args):
        out = fn(*args)
        if caller is None or sys._getframe(1).f_code.co_name == caller:
            seen.append(out)
        return out

    monkeypatch.setattr(ideal_engine, name, counted)
    return seen


def _leaves_out(trace, prefix, *eids):
    place = {e: (b, pos) for b, row in enumerate(trace.by_thread) for pos, e in enumerate(row)}
    return all(prefix[place[e][0]] <= place[e][1] for e in eids)


def test_candidate_sweep_stops_at_a_seed_holding_a_query_event(monkeypatch):
    # w x (3) is TRF-below the thread predecessor of t2's w x (5), so the
    # seed holds it; both of the seed's open sections would only grow it
    t = parse_trace(
        "t2 acq l\nt1 acq m\nt1 w x\nt2 r x\nt2 w x\nt2 rel l\nt1 rel m\n"
    )
    _table(t)
    opens = _calls(monkeypatch, "_open_in")
    joins = _calls(monkeypatch, "_join")
    got = candidate_ideal_set(t, 3, 5)
    assert opens == [] and joins == [got[0].prefix]  # the seed's one join only
    assert [x.members for x in got] == [{1, 2, 3, 4}] == candidate_set_by_members(t, 3, 5)
    assert open_acquires(got[0]) == [1, 2]
    explain: list[str] = []
    v = predict(t, 3, 5, algo="general", explain=explain)
    assert not v.race and v.stats["ideals"] == 0
    assert explain == [
        "candidate ideal with 4 events: holds a query event, which cannot then be enabled"
    ]


def test_tree_route_skips_a_lock_cone_union_holding_a_query_event():
    # the same trace on the tree route: the one lock-cone union holds w x (3)
    t = parse_trace(
        "t2 acq l\nt1 acq m\nt1 w x\nt2 r x\nt2 w x\nt2 rel l\nt1 rel m\n"
    )
    explain: list[str] = []
    v = predict(t, 3, 5, algo="tree", explain=explain)
    assert not v.race and v.stats["ideals"] == 0
    assert explain == [
        "lock-cone ideal with 4 events: holds a query event, which cannot then be enabled"
    ]


@pytest.mark.parametrize("n, edges, c", INDSET_FAMILIES[:3])
def test_candidate_sweep_stops_at_the_first_witness(monkeypatch, n, edges, c):
    t, (e1, e2) = _indset(n, edges, c)
    assert len(candidate_ideal_set(t, e1, e2)) > 400
    expanded = _calls(monkeypatch, "_open_in", caller="_candidates")
    v = predict(t, e1, e2, algo="general")
    assert v.race
    assert len(expanded) <= v.stats["ideals"] + 1


def _sweep_joins(monkeypatch, trace, e1, e2):
    """Every join of one full candidate sweep, and the candidates it found."""
    _table(trace)
    with monkeypatch.context() as m:
        joins = _calls(m, "_join")
        got = candidate_ideal_set(trace, e1, e2)
    assert joins[0] == got[0].prefix  # the seed
    return joins[1:], got


def test_candidate_sweep_joins_only_what_it_keeps(monkeypatch):
    # a join whose result would hold a query event is skipped, not made
    made = 0
    for family in INDSET_FAMILIES:
        t, (e1, e2) = _indset(*family)
        joins, got = _sweep_joins(monkeypatch, t, e1, e2)
        assert all(_leaves_out(t, y, e1, e2) for y in joins), family
        assert {x.prefix for x in got[1:]} <= set(joins)
        made += len(joins)
    pairs = 0
    for s in range(120):
        t = gen_random_trace(
            60_000 + s, n=40 + s % 29, k=2 + s % 7, d_globals=1 + s % 2,
            d_locks=1 + s % 3, read_ratio=0.35, lock_ratio=0.5,
            nesting_max=1 + s % 3,
        )
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            joins, _ = _sweep_joins(monkeypatch, t, e1, e2)
            assert all(_leaves_out(t, y, e1, e2) for y in joins), (s, e1, e2)
            pairs += 1
            made += len(joins)
    assert pairs >= 200 and made >= 10_000


def test_explain_has_one_line_per_candidate_on_a_no_instance():
    t, (e1, e2) = _indset(5, _cycle(5), 3)  # C5 has no independent 3-set
    explain: list[str] = []
    v = predict(t, e1, e2, algo="general", explain=explain)
    assert not v.race
    assert len(explain) == len(candidate_ideal_set(t, e1, e2)) == v.stats["ideals"]


@pytest.mark.parametrize("n, edges, c", [INDSET_FAMILIES[3], INDSET_FAMILIES[5]])
def test_sweep_reads_each_candidate_once(monkeypatch, n, edges, c):
    # C5-c3 and coC6-c3 are no-instances: predict classifies every candidate,
    # and reads each one's open acquires once, counting every caller
    t, (e1, e2) = _indset(n, edges, c)
    every = candidate_ideal_set(t, e1, e2)
    reads = _calls(monkeypatch, "_open_in")
    explain: list[str] = []
    v = predict(t, e1, e2, algo="general", explain=explain)
    assert not v.race and v.stats["ideals"] == len(every)
    assert len(reads) <= v.stats["ideals"] + 1
    # a candidate holding a lock open twice is still reported as such
    clashing = 0
    for x, line in zip(every, explain, strict=True):
        if lock_open_twice(t, open_acquires_by_members(t, x.members)) is not None:
            assert line == f"candidate ideal with {len(x)} events: infeasible_locks"
            clashing += 1
    assert clashing >= 100


def _triples_match_member_reads(trace, e1, e2):
    """Check each triple the sweep yields against the member-set reads; the
    number of triples checked and of those holding a lock open twice."""
    triples = clashing = 0
    for i, (x, opens, clash) in enumerate(ideal_engine._candidates(trace, e1, e2)):
        if opens is None:  # the lone seed holding a query event
            assert i == 0 and clash is None and (e1 in x or e2 in x)
            continue
        assert opens == open_acquires_by_members(trace, x.members)
        assert clash == lock_open_twice(trace, opens)
        triples += 1
        clashing += clash is not None
    return triples, clashing


def test_sweep_triples_match_member_reads():
    # every yielded ideal comes with its open acquires by event id and the
    # first lock two of them hold, as the member-set reference reads them
    triples = clashing = 0
    for s in range(600):
        t = _wide_trace(s)
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread != t.event(e2).thread:
                got = _triples_match_member_reads(t, e1, e2)
                triples, clashing = triples + got[0], clashing + got[1]
    assert triples >= 30_000 and clashing >= 700
    triples = clashing = 0
    for family in INDSET_FAMILIES:
        t, (e1, e2) = _indset(*family)
        got = _triples_match_member_reads(t, e1, e2)
        triples, clashing = triples + got[0], clashing + got[1]
    assert triples >= 4_000 and clashing >= 4_000


# sha256 of the explain lines of every INDSET_FAMILIES query, relabelled
# by seeds 1 and 2, on the general route
EXPLAIN_PIN = "54f939ceb7e0ff172aed691a9b8eccd8217b18fe10cd70967f99477d129013fc"


def test_explain_lines_match_the_pinned_digest():
    h = hashlib.sha256()
    lines_seen = 0
    for seed in (1, 2):
        for n, edges, c in INDSET_FAMILIES:
            t, (e1, e2) = _indset(n, edges, c, f"explain:{seed}")
            lines: list[str] = []
            v = predict(t, e1, e2, algo="general", explain=lines)
            h.update(f"{seed} {n} {len(edges)} {c} {v.race}\n".encode())
            h.update("".join(f"{line}\n" for line in lines).encode())
            lines_seen += len(lines)
    assert lines_seen >= 2_500
    assert h.hexdigest() == EXPLAIN_PIN


def test_explain_stops_at_the_witness_on_a_yes_instance():
    t, (e1, e2) = _indset(7, _cycle(7), 3)
    explain: list[str] = []
    v = predict(t, e1, e2, algo="general", explain=explain)
    assert v.race
    every = candidate_ideal_set(t, e1, e2)
    assert len(explain) == v.stats["ideals"] + (e1 in every[0] or e2 in every[0])
    assert len(explain) < len(every)
    assert "witness found" in explain[-1]
