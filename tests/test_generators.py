"""Reduction-instance and random trace generators."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racepred import oracle_predict, parse_trace, trace_params
from racepred.generators import (
    IsInstance,
    OvInstance,
    gen_indset_trace,
    gen_ov_trace,
    gen_random_trace,
    parse_edge_list,
    parse_vectors,
    strip_isolated_nodes,
)
from racepred.trace_model import conflicting, serialize


def oracle_says(trace, e1, e2) -> bool:
    return oracle_predict(trace, e1, e2, cap=len(trace))


# ---------------------------------------------------------------------------
# orthogonal-vectors instances
# ---------------------------------------------------------------------------


def test_ov_instance_validation():
    with pytest.raises(ValueError):
        OvInstance(a=((1,),), b=(), dim=1)  # unequal sizes
    with pytest.raises(ValueError):
        OvInstance(a=(), b=(), dim=1)  # empty
    with pytest.raises(ValueError):
        OvInstance(a=((1, 0),), b=((1,),), dim=1)  # wrong length
    with pytest.raises(ValueError):
        OvInstance(a=((2,),), b=((1,),), dim=1)  # non-binary
    with pytest.raises(ValueError):
        OvInstance(a=((1,),), b=((1,),), dim=0)


def test_orthogonal_pair_check():
    assert OvInstance(a=((1, 0),), b=((0, 1),), dim=2).has_orthogonal_pair
    assert not OvInstance(a=((1, 1),), b=((1, 0),), dim=2).has_orthogonal_pair
    # all-zero vectors are orthogonal to everything
    assert OvInstance(a=((0, 0),), b=((1, 1),), dim=2).has_orthogonal_pair


def test_parse_vectors():
    assert parse_vectors("10\n01\n# note\n\n") == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        parse_vectors("10\n2x\n")


def test_ov_trace_shape():
    trace, (e1, e2) = gen_ov_trace(OvInstance(a=((1,),), b=((0,),), dim=1))
    assert len(trace) == 17
    p = trace_params(trace)
    assert p.k == 2
    assert p.num_locks == 1
    assert p.num_globals <= 9
    assert trace.event(e1).kind == "w" and trace.event(e1).loc == "z"
    assert trace.event(e2).kind == "r" and trace.event(e2).loc == "z"
    assert conflicting(trace.event(e1), trace.event(e2))
    # events grow linearly with the instance
    big, _ = gen_ov_trace(OvInstance(a=((1, 0, 1),) * 4, b=((0, 1, 0),) * 4, dim=3))
    assert len(big) <= 20 * 4 * 3


def test_ov_trace_round_trips():
    trace, _ = gen_ov_trace(OvInstance(a=((1, 0), (0, 1)), b=((1, 1), (0, 0)), dim=2))
    assert serialize(parse_trace(serialize(trace))) == serialize(trace)


def test_ov_race_iff_orthogonal_pair_spec_examples():
    trace, (e1, e2) = gen_ov_trace(OvInstance(a=((1,),), b=((0,),), dim=1))
    assert oracle_says(trace, e1, e2)  # orthogonal -> race
    trace, (e1, e2) = gen_ov_trace(OvInstance(a=((1,),), b=((1,),), dim=1))
    assert not oracle_says(trace, e1, e2)  # not orthogonal -> no race


@pytest.mark.parametrize("m,dim", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_ov_race_iff_orthogonal_pair_sweep(m, dim):
    for bits in product((0, 1), repeat=2 * m * dim):
        a = tuple(tuple(bits[j * dim : (j + 1) * dim]) for j in range(m))
        b = tuple(tuple(bits[(m + j) * dim : (m + j + 1) * dim]) for j in range(m))
        inst = OvInstance(a=a, b=b, dim=dim)
        trace, (e1, e2) = gen_ov_trace(inst)
        assert oracle_says(trace, e1, e2) == inst.has_orthogonal_pair, (a, b)


# ---------------------------------------------------------------------------
# independent-set instances
# ---------------------------------------------------------------------------


def test_is_instance_validation():
    with pytest.raises(ValueError):
        IsInstance(n=2, edges=frozenset({(1, 1)}), c=1)  # self-loop
    with pytest.raises(ValueError):
        IsInstance(n=2, edges=frozenset({(1, 3)}), c=1)  # out of range
    with pytest.raises(ValueError):
        IsInstance(n=2, edges=frozenset({(1, 2)}), c=0)
    with pytest.raises(ValueError):
        IsInstance(n=3, edges=frozenset({(1, 2)}), c=1)  # node 3 isolated
    # no nodes: no independent set of any size, so no trace may encode one
    for c in range(1, 6):
        with pytest.raises(ValueError, match="^the graph needs at least one node$"):
            IsInstance(n=0, edges=frozenset(), c=c)
    with pytest.raises(ValueError, match="^the graph needs at least one node$"):
        IsInstance(*strip_isolated_nodes(3, set(), 5))


def test_is_instance_neighbors_and_enumeration():
    tri = IsInstance(n=3, edges=frozenset({(1, 2), (1, 3), (2, 3)}), c=2)
    assert tri.neighbors(1) == [2, 3]
    assert not tri.has_independent_set
    path = IsInstance(n=3, edges=frozenset({(1, 2), (2, 3)}), c=2)
    assert path.has_independent_set  # {1, 3}
    assert not IsInstance(n=2, edges=frozenset({(1, 2)}), c=3).has_independent_set


def test_strip_isolated_nodes():
    # node 2 is isolated; 1-3 survive as 1-2, and c drops by one
    assert strip_isolated_nodes(3, {(1, 3)}, 2) == (2, frozenset({(1, 2)}), 1)
    # three isolated nodes join any independent set for free
    n, edges, c = strip_isolated_nodes(6, {(2, 5), (5, 6)}, 3)
    assert (n, edges, c) == (3, frozenset({(1, 2), (2, 3)}), 0)
    assert strip_isolated_nodes(2, {(1, 2)}, 1) == (2, frozenset({(1, 2)}), 1)


def test_parse_edge_list():
    assert parse_edge_list("1 2\n2 3 # edge\n") == (3, frozenset({(1, 2), (2, 3)}))
    # blank, whitespace-only and comment-only lines are skipped
    assert parse_edge_list("# edges\n\n1 2\n  \n   # end\n") == (2, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        parse_edge_list("1\n")
    with pytest.raises(ValueError):
        parse_edge_list("0 1\n")
    # ids are ASCII digits only, as the error says
    for text in ("1 \u0663\n", "1 \u00b2\n"):
        body = text.strip()
        with pytest.raises(ValueError) as info:
            parse_edge_list(text)
        assert str(info.value) == f"line 1: expected 'u v', got {body!r}"


def test_indset_trace_shape():
    inst = IsInstance(n=2, edges=frozenset({(1, 2)}), c=1)
    trace, (e1, e2) = gen_indset_trace(inst)
    assert len(trace) == 17
    assert trace_params(trace).k == 2 * inst.c + 2
    assert trace.event(e1).kind == "w" and trace.event(e1).loc == "x"
    assert trace.event(e2).kind == "r" and trace.event(e2).loc == "x"
    assert e1 == 1  # the lone write opens the trace
    # thread count scales with c, not with the graph
    big, _ = gen_indset_trace(
        IsInstance(n=4, edges=frozenset({(1, 2), (2, 3), (3, 4)}), c=3)
    )
    assert trace_params(big).k == 8


def test_indset_trace_round_trips():
    inst = IsInstance(n=3, edges=frozenset({(1, 2), (2, 3)}), c=2)
    trace, _ = gen_indset_trace(inst)
    assert serialize(parse_trace(serialize(trace))) == serialize(trace)


def test_indset_race_iff_independent_set():
    cases = [
        (IsInstance(n=3, edges=frozenset({(1, 2), (1, 3), (2, 3)}), c=2), False),
        (IsInstance(n=3, edges=frozenset({(1, 2), (2, 3)}), c=2), True),
        (IsInstance(n=2, edges=frozenset({(1, 2)}), c=1), True),
        (IsInstance(n=2, edges=frozenset({(1, 2)}), c=2), False),
    ]
    for inst, want in cases:
        assert inst.has_independent_set == want
        trace, (e1, e2) = gen_indset_trace(inst)
        assert oracle_says(trace, e1, e2) == want, inst


# ---------------------------------------------------------------------------
# random corpus generator
# ---------------------------------------------------------------------------


def test_random_trace_determinism():
    a = gen_random_trace(11, 30, 3, 3, 1, 0.4, 0.2, 2)
    b = gen_random_trace(11, 30, 3, 3, 1, 0.4, 0.2, 2)
    assert serialize(a) == serialize(b)
    c = gen_random_trace(12, 30, 3, 3, 1, 0.4, 0.2, 2)
    assert serialize(c) != serialize(a)


def test_random_trace_minimum_is_one_event_per_thread():
    trace = gen_random_trace(1, 0, 4, 2, 0, 0.5, 0.0, 1)
    assert len(trace) == 4
    assert len(trace.threads) == 4


def test_random_locks_only_trace_skips_picks_with_no_lock_move():
    # while one thread holds the only lock the other has no legal move, and
    # with no globals to fall back on its pick is dropped
    trace = gen_random_trace(3, 20, 2, 0, 1, 0.5, 1.0, 1)
    assert len(trace) < 20  # at most one release is appended, so a pick was dropped
    assert {ev.kind for ev in trace} == {"acq", "rel"}
    assert len(trace.threads) == 2
    assert serialize(parse_trace(serialize(trace))) == serialize(trace)


def test_random_locks_only_trace_is_whole_sections_within_its_bounds():
    # the bounds gen_random_trace's docstring states for d_globals=0
    short = idle = 0
    for seed in range(300):
        n, k, d_locks, nesting = seed % 30, 1 + seed % 5, 1 + seed % 3, 1 + seed % 2
        trace = gen_random_trace(seed, n, k, 0, d_locks, 0.5, 1.0, nesting)
        assert 2 <= len(trace) <= max(n, k) + d_locks
        kinds = [ev.kind for ev in trace]
        assert set(kinds) == {"acq", "rel"} and kinds.count("acq") == kinds.count("rel")
        assert trace_params(trace).gamma <= nesting
        short += len(trace) < max(n, k)
        idle += len(trace.threads) < k
    assert short >= 100 and idle >= 20
    trace = gen_random_trace(0, 6, 4, 0, 1, 0.5, 1.0, 1)
    assert (len(trace), len(trace.threads)) == (4, 2)


def test_random_trace_without_locks_has_zero_nesting():
    for seed in range(5):
        trace = gen_random_trace(seed, 25, 3, 3, 2, 0.5, 0.0, 2)
        p = trace_params(trace)
        assert p.gamma == 0
        assert p.num_locks == 0


def test_random_trace_parameter_errors():
    with pytest.raises(ValueError):
        gen_random_trace(1, 10, 0, 2, 1, 0.5, 0.5, 2)  # no threads
    with pytest.raises(ValueError):
        gen_random_trace(1, 10, 2, 2, 1, 1.5, 0.5, 2)  # ratio out of range
    with pytest.raises(ValueError):
        gen_random_trace(1, 10, 2, 2, 0, 0.5, 0.5, 2)  # locks needed but none
    with pytest.raises(ValueError):
        gen_random_trace(1, 10, 2, 2, 1, 0.5, 0.5, 0)  # nesting_max too small
    with pytest.raises(ValueError):
        gen_random_trace(1, 10, 2, 0, 1, 0.5, 0.5, 2)  # globals needed but none


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    k=st.integers(1, 5),
    d_globals=st.integers(1, 4),
    d_locks=st.integers(1, 3),
    read_ratio=st.floats(0, 1),
    lock_ratio=st.floats(0, 1),
    nesting_max=st.integers(1, 3),
)
@settings(deadline=None, max_examples=60)
def test_random_trace_is_valid_and_bounded(
    seed, n, k, d_globals, d_locks, read_ratio, lock_ratio, nesting_max
):
    trace = gen_random_trace(
        seed, n, k, d_globals, d_locks, read_ratio, lock_ratio, nesting_max
    )
    # construction already validates; check the advertised bounds and format
    p = trace_params(trace)
    assert max(n, k) <= len(trace) <= max(n, k) + d_locks
    assert len(trace.threads) == k
    assert p.num_globals <= d_globals
    assert p.num_locks <= d_locks
    assert p.gamma <= nesting_max
    assert serialize(parse_trace(serialize(trace))) == serialize(trace)
