"""Trace parsing, validation, derived parameters, and the pair-isolation wrapper."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings

from racepred import (
    Trace,
    TraceError,
    communication_topology,
    conflicting,
    has_any_race,
    oracle_predict,
    parse_trace,
    serialize,
    trace_params,
    wrap_pair,
)
from racepred.generators import gen_random_trace
from racepred.trace_model import INIT_THREAD, Event, _conflict_edges, _table, from_events

from helpers import (
    conflict_edges_by_groups,
    conflicting_pairs,
    gamma_by_scan,
    trace_events,
    traces,
    zeta_by_scan,
)


# ----------------------------------------------------------------------
# parsing and validation
# ----------------------------------------------------------------------


def test_parse_assigns_ids_and_rf():
    t = parse_trace("t1 w x\nt2 r x")
    assert len(t) == 2
    assert [ev.eid for ev in t] == [1, 2]
    assert t.rf[2] == 1


def test_parse_lock_matching_sequential():
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l")
    assert t.match[1] == 2
    assert t.match[3] == 4
    assert t.match[2] == 1  # match works in both directions
    assert t.rf[2] == 1  # releases observe their acquire


def test_parse_rejects_overlapping_critical_sections():
    with pytest.raises(TraceError):
        parse_trace("t1 acq l\nt2 acq l\nt1 rel l\nt2 rel l")


def test_parse_rejects_reentrant_acquire():
    with pytest.raises(TraceError):
        parse_trace("t1 acq l\nt1 acq l\nt1 rel l\nt1 rel l")


def test_parse_rejects_unmatched_release():
    with pytest.raises(TraceError):
        parse_trace("t1 rel l")


def test_parse_rejects_open_critical_section():
    with pytest.raises(TraceError):
        parse_trace("t1 acq l")


def test_parse_rejects_badly_nested_release():
    # innermost lock must be released first
    with pytest.raises(TraceError):
        parse_trace("t1 acq l\nt1 acq m\nt1 rel l\nt1 rel m")


def test_parse_rejects_mixed_role_location():
    with pytest.raises(TraceError):
        parse_trace("t1 w a\nt1 acq a\nt1 rel a")


def test_parse_rejects_malformed_lines():
    with pytest.raises(TraceError):
        parse_trace("t1 w")
    with pytest.raises(TraceError):
        parse_trace("t1 w x y")
    with pytest.raises(TraceError):
        parse_trace("thread1 w x")  # thread names are t<digits>
    with pytest.raises(TraceError):
        parse_trace("t1 write x")
    with pytest.raises(TraceError):
        parse_trace("t1 w 9bad")


def test_trace_rejects_ids_out_of_order_and_unknown_kinds():
    # the table's arrays are indexed by event id, and an unknown kind would
    # otherwise replay as a release
    for events in (
        [Event(2, "t1", "w", "x"), Event(1, "t2", "w", "x")],
        [Event(1, "t1", "w", "x"), Event(3, "t2", "w", "x")],
        [Event(0, "t1", "w", "x")],
        [Event(1, "t1", "acq", "l"), Event(2, "t1", "unlock", "l")],
    ):
        with pytest.raises(TraceError):
            Trace(events)
    assert len(Trace([Event(1, "t1", "w", "x"), Event(2, "t2", "w", "x")])) == 2


@pytest.mark.parametrize(
    ("events", "message"),
    [
        (
            [Event(1, "main thread", "w", "x y"), Event(2, "main thread", "r", "x y")],
            "bad thread name 'main thread' (event 1)",
        ),
        ([Event(1, "t1", "w", "x"), Event(2, "t1", "w", "x y")], "bad location 'x y' (event 2)"),
        ([Event(1, "t1", "w", "x"), Event(2, "t2\n", "r", "x")], "bad thread name 't2\\n' (event 2)"),
        ([Event(1, "t1", "acq", "l\n"), Event(2, "t1", "rel", "l\n")], "bad location 'l\\n' (event 1)"),
    ],
)
def test_trace_rejects_names_the_file_format_cannot_hold(events, message):
    # serialize would write them as text that parse_trace rejects
    with pytest.raises(TraceError) as err:
        Trace(events)
    assert str(err.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("t1 r x", "read of 'x' (event 1) has no earlier write"),
        (
            "t1 acq l\nt2 acq l\nt2 rel l\nt1 rel l",
            "acquire of 'l' (event 2) while held by t1 since event 1",
        ),
        ("t1 acq l\nt1 acq l", "acquire of 'l' (event 2) while held by itself since event 1"),
        ("t1 rel l", "release of 'l' (event 1) without a matching acquire in t1"),
        ("t1 acq l\nt2 rel l\nt1 rel l", "release of 'l' (event 2) without a matching acquire in t2"),
        (
            "t1 acq l\nt1 acq m\nt1 rel l\nt1 rel m",
            "release of 'l' (event 3) violates lock nesting in t1",
        ),
        ("t1 acq l\nt1 acq m", "unreleased acquires at end of trace: [1, 2]"),
        ("t1 w a\nt1 acq a\nt1 rel a", "location 'a' used as both a global and a lock (event 2)"),
        (
            "t0 w y\nt1 r x",
            "thread 't0' is reserved for synthesized initial writes but appears in the input",
        ),
        ("thread1 w x", "bad thread name 'thread1' (event 1)"),
        ("t1 write x", "bad operation 'write' (event 1)"),
        ("t1 w 9bad", "bad location '9bad' (event 1)"),
        ("t1 w", "line 1: expected '<thread> <op> <location>', got 't1 w'"),
    ],
)
def test_trace_error_messages_are_pinned(text, message):
    # one fault each; synthesis stays on except where the read must fail
    with pytest.raises(TraceError) as err:
        parse_trace(text, synthesize_init=text != "t1 r x")
    assert str(err.value) == message


@pytest.mark.parametrize(
    ("text", "synthesize_init", "message"),
    [
        # event 1 reads x with no earlier write, and event 2 uses x as a lock
        ("t1 r x\nt1 acq x\nt1 rel x", False, "read of 'x' (event 1) has no earlier write"),
        # a semantic fault before a bad name or kind
        ("t1 rel l\nbad w x", True, "release of 'l' (event 1) without a matching acquire in t1"),
        ("t1 rel l\nt1 write x", True, "release of 'l' (event 1) without a matching acquire in t1"),
        (
            "t1 acq l\nt1 acq l\nt1 w 9x",
            True,
            "acquire of 'l' (event 2) while held by itself since event 1",
        ),
        (
            "t1 w a\nt1 acq a\nt1 rel a\nt1 read a",
            True,
            "location 'a' used as both a global and a lock (event 2)",
        ),
        # the synthesized write of 9x, read first, is event 1
        ("t1 w a\nt1 r 9x", True, "bad location '9x' (event 1)"),
    ],
)
def test_first_faulty_event_in_trace_order_is_reported(text, synthesize_init, message):
    # one pass over the events checks them all and stops at the first fault
    with pytest.raises(TraceError) as err:
        parse_trace(text, synthesize_init=synthesize_init)
    assert str(err.value) == message


def test_parse_comments_and_blank_lines():
    t = parse_trace("# header\n\nt1 w x   # trailing\n\n  \nt2 r x\n")
    assert len(t) == 2
    assert t.source_lines[1] == 3
    assert t.source_lines[2] == 6


def test_init_synthesis_for_read_first_globals():
    t = parse_trace("t1 r x\nt1 w y")
    # one t0 write for x (read first), none for y (written first)
    assert t.num_synthesized == 1
    assert t.events[0].thread == INIT_THREAD
    assert t.events[0].is_write and t.events[0].loc == "x"
    assert t.is_synthesized(1)
    assert not t.is_synthesized(2)
    assert t.rf[2] == 1  # the read observes the synthesized write


def test_init_synthesis_order_follows_first_reads():
    t = parse_trace("t1 r b\nt1 r a")
    assert [(ev.loc, ev.thread) for ev in t.events[:2]] == [("b", "t0"), ("a", "t0")]


def test_init_synthesis_disabled_errors():
    with pytest.raises(TraceError):
        parse_trace("t1 r x", synthesize_init=False)


def test_init_thread_reserved_when_synthesis_needed():
    with pytest.raises(TraceError):
        parse_trace("t0 w y\nt1 r x")
    # fine when nothing needs synthesizing
    t = parse_trace("t0 w x\nt1 r x", synthesize_init=False)
    assert t.num_synthesized == 0


def test_rf_skips_nonconflicting_and_picks_latest():
    t = parse_trace("t1 w x\nt1 w y\nt2 w x\nt2 r x")
    assert t.rf[4] == 3


def test_serialize_round_trip():
    text = "t1 w x\nt2 r x\nt2 acq l\nt2 rel l\n"
    t = parse_trace(text)
    assert serialize(t) == text


def test_serialize_skips_synthesized_by_default():
    t = parse_trace("t1 r x")
    assert serialize(t) == "t1 r x\n"
    assert serialize(t, include_synthesized=True) == "t0 w x\nt1 r x\n"


@settings(max_examples=60)
@given(trace_events())
def test_serialize_parse_round_trip_random(items):
    t = from_events(items)
    again = parse_trace(serialize(t))
    assert [(e.thread, e.kind, e.loc) for e in again] == [
        (e.thread, e.kind, e.loc) for e in t
    ]
    assert again.num_synthesized == t.num_synthesized
    assert again.rf == t.rf


@settings(max_examples=60)
@given(trace_events())
def test_rf_total_and_latest_conflicting_write(items):
    t = from_events(items)
    for ev in t:
        if ev.is_read:
            w = t.rf[ev.eid]
            assert t.event(w).is_write and t.event(w).loc == ev.loc
            assert w < ev.eid
            for between in range(w + 1, ev.eid):
                bev = t.event(between)
                assert not (bev.is_write and bev.loc == ev.loc)
        elif ev.is_release:
            a = t.rf[ev.eid]
            assert t.event(a).is_acquire
            assert t.event(a).thread == ev.thread


def test_conflicting_predicate():
    w = Event(1, "t1", "w", "x")
    w2 = Event(2, "t2", "w", "x")
    r = Event(3, "t2", "r", "x")
    r2 = Event(4, "t1", "r", "x")
    wy = Event(5, "t2", "w", "y")
    assert conflicting(w, r)
    assert conflicting(w, w2)
    assert not conflicting(w, w)  # an event never conflicts with itself
    assert not conflicting(r, r2)  # two reads never conflict
    assert not conflicting(w, wy)  # different locations
    a1 = Event(5, "t1", "acq", "l")
    a2 = Event(6, "t2", "acq", "l")
    rel = Event(7, "t2", "rel", "l")
    assert conflicting(a1, a2)
    assert conflicting(a1, rel)
    assert not conflicting(rel, rel)


# ----------------------------------------------------------------------
# derived parameters
# ----------------------------------------------------------------------


def test_params_lock_free_conflicting_writes():
    t = parse_trace("t1 w x\nt2 w x")
    p = trace_params(t)
    assert (p.n, p.k) == (2, 2)
    assert p.d == 1
    assert p.gamma == 0 and p.zeta == 0  # no acquires at all
    assert p.topology == frozenset({("t1", "t2")})
    assert p.is_tree


def test_params_agree_across_parses_and_read_one_table():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 r x\nt2 rel l")
    # the report is not kept on the trace; the down-set table is its one cache
    trace_params(t)
    assert _table(t) is _table(t)
    assert _table(t).adj == {0: {1}, 1: {0}}
    # a second parse of the same text is a separate trace with the same report
    other = parse_trace(serialize(t))
    assert trace_params(other) == trace_params(t)


def test_params_nested_locks_gamma():
    t = parse_trace("t1 acq l\nt1 acq m\nt1 rel m\nt1 rel l")
    assert trace_params(t).gamma == 2


def test_params_triangle_topology_not_tree():
    t = parse_trace("t1 w x\nt2 w x\nt2 w y\nt3 w y\nt3 w z\nt1 w z")
    p = trace_params(t)
    assert p.topology == frozenset({("t1", "t2"), ("t2", "t3"), ("t1", "t3")})
    assert not p.is_tree


def test_topology_locks_connect_all_users():
    t = parse_trace(
        "t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l\nt3 acq l\nt3 rel l"
    )
    assert communication_topology(t) == frozenset(
        {("t1", "t2"), ("t1", "t3"), ("t2", "t3")}
    )


def test_topology_read_read_is_no_edge():
    t = parse_trace("t1 w x\nt2 r x\nt3 r x")
    # t2/t3 only read x; the writer t1 conflicts with both
    assert communication_topology(t) == frozenset({("t1", "t2"), ("t1", "t3")})


@settings(max_examples=80, deadline=None)
@given(trace_events(max_events=14, max_threads=4, max_locks=2))
# the later thread writes and the earlier one only reads
@example([("t1", "r", "x"), ("t2", "w", "x")])
def test_topology_is_the_thread_pairs_of_conflicting_events(items):
    t = from_events(items)
    brute = {
        (min(a.thread, b.thread), max(a.thread, b.thread))
        for a, b in itertools.combinations(t.events, 2)
        if a.thread != b.thread and conflicting(a, b)
    }
    assert communication_topology(t) == brute
    graph = nx.Graph(brute)
    graph.add_nodes_from(t.threads)
    assert _table(t).forest == (not t.threads or nx.is_forest(graph))


@settings(max_examples=80, deadline=None)
@given(trace_events(max_events=14, max_threads=4, max_locks=2))
def test_channel_index_matches_a_grouping_of_the_events(items):
    t = from_events(items)
    table = _table(t)
    k, span = len(t.threads), table.span
    assert table.channels == tuple(sorted(t.globals_ | t.locks))
    assert span == max(map(len, t.by_thread), default=0) + 2
    place = {ev.eid: (ev.loc, t.thread_index[ev.thread], t.thread_pos[ev.eid]) for ev in t.events}
    users = sorted(place.values())
    writers = sorted(place[ev.eid] for ev in t.events if ev.kind in ("w", "acq"))
    for keys, want in ((table.users, users), (table.writers, writers)):
        # a sentinel, then (channel·k + thread)·span + position, ascending
        assert keys[0] == -1 and keys.tolist() == sorted(keys.tolist())
        segments, positions = divmod(keys[1:], span)
        channels, threads = divmod(segments, k)
        assert list(zip([table.channels[c] for c in channels], threads, positions)) == want
    assert table.chan.tolist() == [-1, *(table.channels.index(ev.loc) for ev in t.events)]
    assert table.writes_like.tolist() == [False, *(ev.kind in ("w", "acq") for ev in t.events)]


def test_table_source_is_the_observation_map():
    # source[e] is the writer or acquire event e observes, or 0, on random
    # traces and on copies without each global's first write, whose earlier
    # reads observe a synthesized write
    observers = synthesized = 0
    for s in range(40):
        t = gen_random_trace(
            s, n=14, k=3, d_globals=2, d_locks=1, read_ratio=0.4,
            lock_ratio=0.3, nesting_max=2,
        )
        items = [(ev.thread, ev.kind, ev.loc) for ev in t.events]
        first = {loc: i for i, (_, kind, loc) in reversed(list(enumerate(items))) if kind == "w"}
        cut = from_events(item for i, item in enumerate(items) if i not in first.values())
        for u in (t, cut):
            source = _table(u).source
            assert source.dtype == np.int64 and len(source) == len(u) + 1
            assert {e: w for e, w in enumerate(source.tolist()) if w} == u.rf, s
            observers += len(u.rf)
            synthesized += sum(w <= u.num_synthesized for w in u.rf.values())
    assert observers >= 400 and synthesized >= 40


def replayed_facts(t: Trace):
    """``(threads, down, opens, rf, match, thread_pos)`` of a trace,
    recomputed from its event list alone: one last writer per location and
    one lock stack per thread, threads numbered in order of first event."""
    threads = list(dict.fromkeys(ev.thread for ev in t.events))
    zero = (0,) * len(threads)
    down = [zero]
    last = {p: zero for p in threads}
    stacks = {p: [] for p in threads}
    opens = {p: [()] for p in threads}
    writer, rf, match, pos = {}, {}, {}, {}
    for ev in t.events:
        b = threads.index(ev.thread)
        vec = list(last[ev.thread])
        pos[ev.eid] = vec[b]
        if ev.kind == "w":
            writer[ev.loc] = ev.eid
        elif ev.kind == "r":
            rf[ev.eid] = writer[ev.loc]
            vec = [max(a, c) for a, c in zip(vec, down[writer[ev.loc]])]
        elif ev.kind == "acq":
            stacks[ev.thread].append(ev.eid)
        else:
            acq = stacks[ev.thread].pop()
            rf[ev.eid] = match[ev.eid] = acq
            match[acq] = ev.eid
        vec[b] += 1
        last[ev.thread] = tuple(vec)
        down.append(tuple(vec))
        opens[ev.thread].append(tuple(stacks[ev.thread]))
    return threads, down, [tuple(opens[p]) for p in threads], rf, match, pos


def check_replayed_facts(t: Trace) -> None:
    threads, down, opens, rf, match, pos = replayed_facts(t)
    table = _table(t)
    assert t.threads == tuple(threads)
    assert table.down == down
    assert table.opens == tuple(opens)
    assert (t.rf, t.match, t.thread_pos) == (rf, match, pos)


@settings(max_examples=80, deadline=None)
@given(traces(max_events=16, max_threads=4, max_locks=3))
def test_table_and_derived_maps_match_a_replay_of_the_events(t):
    check_replayed_facts(t)


def test_table_and_derived_maps_match_a_replay_of_random_traces():
    depth = 0
    for s in range(40):
        t = gen_random_trace(
            s, n=40, k=2 + s % 3, d_globals=3, d_locks=3, read_ratio=0.4,
            lock_ratio=0.4, nesting_max=3,
        )
        check_replayed_facts(t)
        depth = max(depth, max(len(stack) for row in _table(t).opens for stack in row))
    assert depth >= 3  # nested sections are covered, innermost last


@settings(max_examples=60, deadline=None)
@given(trace_events(max_events=8, max_threads=3, max_locks=2))
def test_conflict_edges_of_every_prefix_match_the_event_groups(items):
    t = from_events(items)
    table = _table(t)
    for prefix in itertools.product(*(range(len(proj) + 1) for proj in t.by_thread)):
        groups = [proj[:m] for proj, m in zip(t.by_thread, prefix)]
        assert _conflict_edges(table, prefix) == conflict_edges_by_groups(groups)


def test_disconnected_components_each_tree():
    t = parse_trace("t1 w x\nt2 w x\nt3 w y\nt4 w y")
    assert trace_params(t).is_tree


def test_zeta_single_dependence_chain():
    # t2's critical section reads what t1's wrote, chaining the acquires
    t = parse_trace(
        "t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 r x\nt2 rel l"
    )
    p = trace_params(t)
    assert p.gamma == 1
    assert p.zeta == zeta_by_scan(t)


@settings(max_examples=50, deadline=None)
@given(trace_events(max_events=12, max_threads=3, max_locks=2))
def test_gamma_zeta_match_independent_scan(items):
    t = from_events(items)
    p = trace_params(t)
    assert p.gamma == gamma_by_scan(t)
    assert p.zeta == zeta_by_scan(t)


def test_zeta_counts_a_section_released_right_past_the_range():
    # t1's section is before t2's release only through its write, and t1's
    # release is the first t1 event not below t2's release: the edge stands
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq m\nt2 r x\nt2 rel m")
    assert trace_params(t).zeta == zeta_by_scan(t) == 2


def test_zeta_matches_scan_on_seeded_corpus():
    # traces past the hypothesis test's 12 events, where chains of
    # dependences run through several threads and nested sections
    rng = np.random.default_rng(31)
    deep = 0
    for seed in range(300):
        t = gen_random_trace(
            seed,
            n=int(rng.integers(20, 61)),
            k=int(rng.integers(2, 7)),
            d_globals=int(rng.integers(1, 4)),
            d_locks=int(rng.integers(1, 5)),
            read_ratio=float(rng.random()),
            lock_ratio=float(rng.uniform(0.2, 0.8)),
            nesting_max=int(rng.integers(1, 4)),
        )
        zeta = trace_params(t).zeta
        assert zeta == zeta_by_scan(t), seed
        deep += zeta > 1
    assert deep >= 80  # the corpus must exercise the dependence edges


# ----------------------------------------------------------------------
# pair isolation
# ----------------------------------------------------------------------


def test_wrap_pair_two_access_trace():
    t = parse_trace("t1 w x\nt2 w x")
    wrapped, n1, n2 = wrap_pair(t, 1, 2)
    assert len(wrapped) == 6  # each target becomes acq, target, rel
    assert wrapped.event(n1).loc == "x" and wrapped.event(n2).loc == "x"
    # the two wrap locks are distinct and fresh
    locks = sorted(wrapped.locks)
    assert len(locks) == 2


def test_wrap_pair_other_access_gets_both_locks():
    t = parse_trace("t1 w x\nt1 w y\nt2 w x")
    wrapped, n1, n2 = wrap_pair(t, 1, 3)
    assert len(wrapped) == 11  # 3 + 5 + 3
    kinds = [(ev.kind) for ev in wrapped]
    assert kinds == ["acq", "w", "rel", "acq", "acq", "w", "rel", "rel", "acq", "w", "rel"]


def test_wrap_pair_preserves_trace_locks():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 r x")
    wrapped, n1, n2 = wrap_pair(t, 2, 4)
    assert "l" in wrapped.locks
    assert wrapped.event(n1).is_write
    assert wrapped.event(n2).is_read


def test_wrap_pair_rejects_non_conflicting():
    t = parse_trace("t1 w x\nt2 w y")
    with pytest.raises(TraceError):
        wrap_pair(t, 1, 2)
    t2 = parse_trace("t1 acq l\nt1 rel l")
    with pytest.raises(TraceError):
        wrap_pair(t2, 1, 2)


def test_wrap_pair_race_preserved():
    t = parse_trace("t1 w x\nt2 w x")
    assert oracle_predict(t, 1, 2)
    wrapped, _, _ = wrap_pair(t, 1, 2)
    # value from the brute-force oracle on the wrapped trace
    assert has_any_race(wrapped, cap=20)


def test_wrap_pair_non_race_preserved():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w x\nt2 rel l")
    assert not oracle_predict(t, 2, 5)
    wrapped, _, _ = wrap_pair(t, 2, 5)
    assert not has_any_race(wrapped, cap=20)


@settings(max_examples=25, deadline=None)
@given(trace_events(max_events=6, max_threads=2, max_globals=2, max_locks=1))
def test_wrap_pair_equivalence_random(items):
    t = from_events(items)
    for e1, e2 in conflicting_pairs(t):
        if t.is_synthesized(e1) or t.is_synthesized(e2):
            continue
        wrapped, _, _ = wrap_pair(t, e1, e2)
        assert oracle_predict(t, e1, e2) == has_any_race(wrapped, cap=64)
