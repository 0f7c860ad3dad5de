"""The brute-force reference: enumeration, prediction, witness checking, distance."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from racepred import (
    OracleCapError,
    enumerate_correct_reorderings,
    has_any_race,
    min_distance,
    oracle_predict,
    oracle_witness,
    parse_trace,
    verify_witness,
    witness_error,
)
from racepred.generators import gen_random_trace
from racepred.oracle import _Replay
from racepred.trace_model import from_events

from helpers import conflicting_pairs, realizable_sets, trace_events, witness_error_by_passes


def all_reorderings(text, **kw):
    return [tuple(w) for w in enumerate_correct_reorderings(parse_trace(text), **kw)]


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_enumerate_single_event():
    assert sorted(all_reorderings("t1 w x")) == [(), (1,)]


def test_enumerate_two_conflicting_writes():
    outs = all_reorderings("t1 w x\nt2 w x")
    assert sorted(outs) == [(), (1,), (1, 2), (2,), (2, 1)]


def test_enumerate_respects_reads_from():
    outs = all_reorderings("t1 w x\nt2 r x")
    for out in outs:
        if 2 in out:
            assert out.index(1) < out.index(2)
    assert (1, 2) in outs and (2,) not in outs


def test_enumerate_includes_empty_and_full():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 r x")
    outs = [tuple(w) for w in enumerate_correct_reorderings(t)]
    assert () in outs
    assert (1, 2, 3, 4) in outs


def test_enumerate_cap_guard():
    t = parse_trace("\n".join(f"t1 w x{i}" for i in range(15)))
    with pytest.raises(OracleCapError):
        list(enumerate_correct_reorderings(t))
    assert len(list(enumerate_correct_reorderings(t, cap=15))) == 16


def test_every_walk_reports_a_trace_too_deep_for_the_recursion_limit():
    # each walk places all 1 500 writes before it can stop
    t = parse_trace("t1 w y\n" * 1500 + "t1 w x\nt2 w x\n")
    walks = (
        lambda: list(enumerate_correct_reorderings(t, cap=len(t))),
        lambda: oracle_predict(t, 1501, 1502, cap=len(t)),
        lambda: min_distance(t, 1501, 1502, cap=len(t)),
        lambda: has_any_race(t, cap=len(t)),
    )
    for walk in walks:
        with pytest.raises(OracleCapError, match="too deep for the brute-force walk"):
            walk()
    # a walk that stops early on a long trace still answers
    t = parse_trace("t1 w x\n" + "t1 w y\n" * 1500 + "t2 w x\n")
    assert oracle_witness(t, 1, 1502, cap=len(t)) == []


@settings(max_examples=40, deadline=None)
@given(trace_events(max_events=8))
def test_enumerated_reorderings_are_correct_reorderings(items):
    t = from_events(items)
    for w in enumerate_correct_reorderings(t):
        assert witness_error(t, w) is None


def test_memoised_realizable_sets_match_the_enumeration():
    # the shared test helper walks replay states once each; the plain
    # enumeration of every interleaving stays the reference
    for s in range(200):
        t = gen_random_trace(
            70_000 + s, n=3 + s % 5, k=2 + s % 3, d_globals=1 + s % 2,
            d_locks=1 + s % 2, read_ratio=0.35, lock_ratio=0.3,
            nesting_max=1 + s % 2,
        )
        want = {frozenset(w) for w in enumerate_correct_reorderings(t)}
        assert realizable_sets(t) == want, s


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------


def test_predict_trivial_race():
    t = parse_trace("t1 w x\nt2 w x")
    assert oracle_predict(t, 1, 2)
    assert oracle_witness(t, 1, 2) == []  # the empty reordering already works


def test_predict_lock_protected_pair_is_no_race():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w x\nt2 rel l")
    # exhaustive enumeration finds no reordering with both critical sections open
    assert not oracle_predict(t, 2, 5)


def test_predict_rf_chain_blocks_race():
    t = parse_trace("t1 w x\nt1 w y\nt2 r y\nt2 w x")
    # enabling e4 pulls in e3, whose read forces e2 and hence e1 executed
    assert not oracle_predict(t, 1, 4)


def test_predict_symmetric():
    t = parse_trace("t1 w x\nt1 w y\nt2 r y\nt2 w x")
    for e1, e2 in conflicting_pairs(t):
        assert oracle_predict(t, e1, e2) == oracle_predict(t, e2, e1)


def test_predict_same_thread_never_races():
    t = parse_trace("t1 w x\nt1 r x")
    assert not oracle_predict(t, 1, 2)


def test_witness_is_checkable():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 r x")
    w = oracle_witness(t, 2, 4)
    assert w is not None
    assert verify_witness(t, w, 2, 4)


# ----------------------------------------------------------------------
# witness checking
# ----------------------------------------------------------------------


def test_verify_empty_witness():
    t = parse_trace("t1 w x\nt2 w x")
    assert verify_witness(t, [], 1, 2)


def test_verify_rejects_missing_predecessor():
    t = parse_trace("t1 w x\nt1 w y\nt2 r y")
    assert "program order" in witness_error(t, [2])


def test_verify_rejects_changed_rf():
    t = parse_trace("t1 w x\nt2 w x\nt1 r x")
    # [1, 3] keeps program order, but without e2 the read observes e1
    assert witness_error(t, [1, 3]) == "read 3 observes a different writer than in the trace"
    assert not verify_witness(t, [1, 3])
    assert verify_witness(t, [1, 2, 3])


def test_verify_rejects_duplicate_and_unknown_ids():
    t = parse_trace("t1 w x")
    assert not verify_witness(t, [1, 1])
    assert not verify_witness(t, [7])


@pytest.mark.parametrize("witness", [None, [1.0], ["a"], [4, 5, 6, True]])
def test_verify_rejects_malformed_witnesses(witness):
    # the README's trace, where [4, 5, 6, 1] is a witness for (2, 7)
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w y\nt2 rel l\nt2 w x\n")
    assert verify_witness(t, [4, 5, 6, 1], 2, 7)
    assert "not a sequence of integer event ids" in witness_error(t, witness, 2, 7)
    assert not verify_witness(t, witness, 2, 7)


def test_verify_rejects_lock_violations():
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l")
    assert not verify_witness(t, [1, 3])  # two open criticals on l
    assert verify_witness(t, [1, 2, 3])


def test_program_order_fault_beats_an_earlier_read_or_lock_fault():
    t = parse_trace("t1 w x\nt2 w x\nt1 r x\nt2 w y")
    # read 3 observes e1, not e2; then e4 runs ahead of e2 in t2
    assert witness_error(t, [1, 3, 4]) == "program order broken in t2: got event 4, expected 2"
    assert witness_error(t, [1, 3]) == "read 3 observes a different writer than in the trace"
    t = parse_trace("t1 acq l\nt1 rel l\nt2 acq l\nt2 rel l\nt3 w x\nt3 w y")
    assert witness_error(t, [1, 3, 6]) == "program order broken in t3: got event 6, expected 5"
    assert witness_error(t, [1, 3, 5]) == "critical sections overlap on l"


WITNESS_FAULTS = (
    "not a sequence",
    "repeats an event id",
    "unknown event id",
    "program order broken",
    "observes a different writer",
    "critical sections overlap",
    "must stay out",
    "is not enabled",
)


def _random_reordering(rng, t):
    """A maximal correct reordering of ``t``, drawn step by step."""
    replay = _Replay(t)
    while steps := [e for e in replay.candidates() if replay.can_append(e)]:
        replay.append(rng.choice(steps))
    return replay.placed


def _random_interleaving(rng, t):
    """The threads merged in a random order: program order holds, reads and
    locks may not."""
    rows = [list(row) for row in t.by_thread]
    out = []
    while any(rows):
        out.append(rng.choice([row for row in rows if row]).pop(0))
    return out


def _witness_case(rng, t, pool):
    """One witness for the checker gate: a truncated reordering or
    interleaving from ``pool``, maybe shuffled, swapped, repeated, or given
    a non-integer or unknown item."""
    n = len(t)
    base = rng.choice(pool)
    base = base[: rng.randint(0, len(base))]
    shape = rng.randrange(7)
    if shape == 0:  # shuffled
        rng.shuffle(base)
    elif shape == 1 and len(base) > 1:  # one swap
        i, j = rng.sample(range(len(base)), 2)
        base[i], base[j] = base[j], base[i]
    elif shape == 2 and base:  # one repeated id
        base.insert(rng.randint(0, len(base)), rng.choice(base))
    elif shape == 3:  # one non-integer item
        base.insert(rng.randint(0, len(base)), rng.choice((1.0, "a", True)))
    elif shape == 4:  # one unknown id
        base.insert(rng.randint(0, len(base)), rng.choice((0, -1, n + 1, n + 7)))
    return base


def test_witness_error_matches_the_pass_by_pass_reference_on_seeded_corpus():
    # witness_error must give every witness and query the return value of
    # the four-pass reference, message for message
    rng = random.Random(2811)
    seen = Counter()
    mismatches = []
    for s in range(200):
        t = gen_random_trace(
            81_000 + s, n=6 + s % 30, k=2 + s % 4, d_globals=1 + s % 3, d_locks=1 + s % 2,
            read_ratio=0.4, lock_ratio=0.2 + 0.1 * (s % 3), nesting_max=1 + s % 2,
        )
        pool = [f(rng, t) for f in (_random_reordering, _random_interleaving) for _ in range(20)]
        for _ in range(420):
            w = _witness_case(rng, t, pool)
            q = (None, None) if rng.random() < 0.4 else (
                rng.randint(1, len(t)), rng.randint(1, len(t)))
            want = witness_error_by_passes(t, w, *q)
            if witness_error(t, w, *q) != want:
                mismatches.append((s, w, q, want))
            seen[want and next(f for f in WITNESS_FAULTS if f in want)] += 1
    assert mismatches == []
    assert sum(seen.values()) >= 80_000
    assert {f: seen[f] for f in (None, *WITNESS_FAULTS) if seen[f] < 500} == {}, seen


def test_verify_query_enabledness():
    t = parse_trace("t1 w x\nt1 w y\nt2 w y")
    # e2 needs e1 executed first
    assert not verify_witness(t, [], 2, 3)
    assert verify_witness(t, [1], 2, 3)
    # a query event may not be inside the witness
    assert not verify_witness(t, [1, 2], 2, 3)


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------


def test_min_distance_zero_for_trivial_race():
    t = parse_trace("t1 w x\nt2 w x")
    assert min_distance(t, 1, 2) == 0


def test_min_distance_infinite_for_non_race():
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w x\nt2 rel l")
    assert min_distance(t, 2, 5) == math.inf


def test_min_distance_forced_critical_section_swap():
    # the race needs t2's whole critical section before t1's open acquire,
    # flipping exactly one conflicting acquire pair
    t = parse_trace("t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 rel l\nt2 w x")
    assert oracle_witness(t, 2, 6) == [4, 5, 1]
    assert min_distance(t, 2, 6) == 1


def reversal_count(t, witness) -> int:
    """δ recomputed directly from the reversal-pair definition."""
    from racepred import conflicting

    pos = {e: i for i, e in enumerate(witness)}
    count = 0
    for w2 in witness:
        for w1 in witness:
            if w1 < w2 and pos[w2] < pos[w1]:
                a, b = t.event(w1), t.event(w2)
                if a.writes_like and b.writes_like and conflicting(a, b):
                    count += 1
    return count


@settings(max_examples=30, deadline=None)
@given(trace_events(max_events=7, max_threads=3))
def test_min_distance_matches_exhaustive_recount(items):
    t = from_events(items)
    pairs = [
        (e1, e2)
        for e1, e2 in conflicting_pairs(t)
        if not (t.is_synthesized(e1) or t.is_synthesized(e2))
    ]
    if not pairs:
        return
    reorderings = list(enumerate_correct_reorderings(t))
    for e1, e2 in pairs:
        best = math.inf
        for w in reorderings:
            if verify_witness(t, w, e1, e2):
                best = min(best, reversal_count(t, w))
        assert min_distance(t, e1, e2) == best
        assert oracle_predict(t, e1, e2) == (best is not math.inf)
