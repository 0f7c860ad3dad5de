"""Acceptance sweep: the end-to-end laws the engine must satisfy.

``pytest tests/test_acceptance.py -v`` prints one PASSED/FAILED line per
criterion; each test additionally prints an ``ACCEPTANCE n PASS`` line
with the measured scale.  All sweeps are exact (no tolerances); only the
polynomial-smoke criterion asserts wall-clock time.  Every predict call
routes through :func:`checked_predict`, which re-verifies each returned
witness against the trace semantics, so witness validity is enforced
across every criterion, not just its own.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from functools import cache
from itertools import combinations, permutations, product

from racepred import (
    CycleError,
    Ideal,
    RfPoset,
    candidate_ideal_set,
    closure,
    enumerate_correct_reorderings,
    feasibility,
    has_any_race,
    is_closed,
    min_distance,
    oracle_predict,
    parse_trace,
    reversal_count,
    trace_params,
    verify_witness,
    wrap_pair,
)
from racepred.cli import Verdict, predict, scan_pairs
from racepred.generators import (
    IsInstance,
    OvInstance,
    gen_indset_trace,
    gen_ov_trace,
    gen_random_trace,
)
from racepred.ideal_engine import is_ideal

TALLY: Counter = Counter()


def checked_predict(trace, e1, e2, **kw) -> Verdict:
    """predict() plus an external witness re-check for every reported race."""
    verdict = predict(trace, e1, e2, **kw)
    if verdict.race:
        assert verdict.witness is not None
        assert verify_witness(trace, verdict.witness, e1, e2), (
            verdict.algorithm,
            e1,
            e2,
        )
        TALLY["witnesses"] += 1
        TALLY[verdict.algorithm] += 1
    return verdict


def oracle_cap(trace) -> int:
    return max(14, len(trace))


def _report(num: int, detail: str, start: float) -> None:
    print(f"ACCEPTANCE {num:>2} PASS  {detail}  [{time.perf_counter() - start:.1f}s]")


# ---------------------------------------------------------------------------
# the shared corpus: seeded random traces with n <= 12, k <= 3,
# <= 3 globals, <= 1 lock, nesting depth 1 (so gamma <= 1 <= 2)
# ---------------------------------------------------------------------------

_SHAPES = (
    (9, 2, 2, 1, 0.40, 0.30),
    (9, 3, 3, 1, 0.35, 0.25),
    (8, 2, 1, 1, 0.50, 0.40),
    (10, 3, 2, 0, 0.40, 0.00),
    (9, 2, 3, 1, 0.30, 0.20),
)


@cache
def corpus() -> tuple:
    traces = []
    for seed in range(520):
        n, k, g, locks, rr, lr = _SHAPES[seed % len(_SHAPES)]
        t = gen_random_trace(
            seed, n=n, k=k, d_globals=g, d_locks=locks,
            read_ratio=rr, lock_ratio=lr, nesting_max=1,
        )
        assert len(t) <= 12 and len(t.threads) <= 3
        assert trace_params(t).gamma <= 2
        traces.append(t)
    return tuple(traces)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_general_matches_bruteforce_on_corpus():
    start = time.perf_counter()
    traces = corpus()
    pairs = 0
    for t in traces:
        cap = oracle_cap(t)
        for e1, e2 in scan_pairs(t):
            g = checked_predict(t, e1, e2, algo="general")
            b = checked_predict(t, e1, e2, algo="bruteforce", oracle_cap=cap)
            assert g.race == b.race, (e1, e2, g.race, b.race)
            pairs += 1
    assert len(traces) >= 500 and pairs >= 500
    _report(1, f"general == bruteforce on {len(traces)} traces, {pairs} pairs, exact", start)


def test_criterion_02_tree_route_agrees_on_forest_corpus():
    start = time.perf_counter()
    trees = [t for t in corpus() if trace_params(t).is_tree]
    pairs = 0
    for t in trees:
        cap = oracle_cap(t)
        for e1, e2 in scan_pairs(t):
            single = checked_predict(t, e1, e2, algo="tree")  # lock-cone union ideal
            sweep = checked_predict(t, e1, e2, algo="general")  # candidate-set sweep
            brute = checked_predict(t, e1, e2, algo="bruteforce", oracle_cap=cap)
            assert single.race == sweep.race == brute.race, (e1, e2)
            pairs += 1
    assert len(trees) >= 200 and pairs >= 200
    _report(
        2,
        f"tree == general == bruteforce (and single-ideal == candidate-sweep) "
        f"on {len(trees)} forest traces, {pairs} pairs, exact",
        start,
    )


def test_criterion_03_ov_trace_races_iff_orthogonal_pair():
    start = time.perf_counter()
    instances = 0
    for dim in (1, 2, 3):
        space = list(product((0, 1), repeat=dim))
        for m in (1, 2, 3, 4):
            if m > len(space):
                continue
            sets = list(combinations(space, m))
            for a in sets:
                for b in sets:
                    inst = OvInstance(a, b, dim)
                    trace, (e1, e2) = gen_ov_trace(inst)
                    verdict = checked_predict(trace, e1, e2)
                    direct = any(  # the product check, written out
                        all(x * y == 0 for x, y in zip(u, v)) for u in a for v in b
                    )
                    assert verdict.race == direct, (a, b)
                    assert inst.has_orthogonal_pair == direct
                    instances += 1
    _report(
        3,
        f"race <=> orthogonal pair on {instances} instances "
        f"(every distinct-vector-set pair, |A|=|B|<=4, D<=3), exact",
        start,
    )


def _independent_set_exists(n: int, edges: frozenset, c: int) -> bool:
    return any(
        all(tuple(sorted(pair)) not in edges for pair in combinations(pick, 2))
        for pick in combinations(range(1, n + 1), c)
    )


def test_criterion_04_indset_trace_races_iff_independent_set():
    start = time.perf_counter()
    # every labeled graph on <= 5 nodes with no isolated vertex, grouped by
    # isomorphism class; the engine runs on the canonical member and on one
    # random non-canonical member per class (the law's two sides are label-
    # invariant, and the second run spot-checks that for the generator too)
    classes: dict[tuple, list[frozenset]] = {}
    for n in range(2, 6):
        universe = list(combinations(range(1, n + 1), 2))
        for bits in range(2 ** len(universe)):
            edges = frozenset(universe[i] for i in range(len(universe)) if bits >> i & 1)
            if len({u for e in edges for u in e}) != n:
                continue
            canon = min(
                tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
                for p in permutations(range(1, n + 1))
            )
            classes.setdefault((n, canon), []).append(edges)

    rng = random.Random(4)
    labeled = engine_runs = 0
    for (n, canon), members in sorted(classes.items()):
        canon_edges = frozenset(canon)
        for c in (2, 3):
            expected = _independent_set_exists(n, canon_edges, c)
            probes = [canon_edges]
            others = [e for e in members if e != canon_edges]
            if others:
                probes.append(rng.choice(others))
            for edges in probes:
                inst = IsInstance(n, edges, c)
                trace, (e1, e2) = gen_indset_trace(inst)
                verdict = checked_predict(trace, e1, e2)
                assert verdict.race == _independent_set_exists(n, edges, c), (n, edges, c)
                engine_runs += 1
            for edges in members:
                assert _independent_set_exists(n, edges, c) == expected
                labeled += 1
    assert labeled >= 2 * 814  # every labeled graph checked for both c values
    _report(
        4,
        f"race <=> independent set on all {labeled} labeled-graph instances "
        f"({len(classes)} isomorphism classes, {engine_runs} engine runs), exact",
        start,
    )


def _ordered_pairs(po) -> set[tuple[int, int]]:
    evs = list(po.events())
    return {(u, v) for u in evs for v in evs if u != v and po.ordered(u, v)}


def test_criterion_05_closure_properties_on_random_rf_posets():
    start = time.perf_counter()
    rng = random.Random(5)
    samples: list[tuple] = []  # (trace, poset)
    for seed in range(40):
        t = gen_random_trace(
            seed, n=8, k=3, d_globals=2, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        )
        projections = [t.projection(p) for p in t.threads]
        for lens in product(*(range(len(pr) + 1) for pr in projections)):
            members = frozenset(
                ev.eid for pr, l in zip(projections, lens) for ev in pr[:l]
            )
            if len(members) > 8 or not is_ideal(t, members):
                continue
            res = feasibility(Ideal.from_members(t, members))
            if not res:
                continue
            samples.append((t, res.poset))
            if len(members) >= 2:  # a refined variant with one extra edge
                u, v = rng.sample(sorted(members), 2)
                refined = res.poset.order.copy()
                try:
                    refined.add_edge(u, v)
                except CycleError:
                    continue
                samples.append((t, RfPoset(t, refined)))
    assert len(samples) >= 1000

    witness_buckets: dict[int, dict[frozenset, list[list[int]]]] = {}

    def witnesses(trace, members) -> list[list[int]]:
        buckets = witness_buckets.get(id(trace))
        if buckets is None:
            buckets = {}
            for seq in enumerate_correct_reorderings(trace, cap=len(trace)):
                buckets.setdefault(frozenset(seq), []).append(seq)
            witness_buckets[id(trace)] = buckets
        return buckets.get(members, [])

    bottoms = 0
    for t, poset in samples:
        closed = closure(poset)
        if closed is not None:
            assert is_closed(closed)
            assert _ordered_pairs(poset.order) <= _ordered_pairs(closed.order)
            again = closure(closed)
            assert _ordered_pairs(again.order) == _ordered_pairs(closed.order)
        else:
            bottoms += 1
            members = frozenset(poset.order.events())
            for seq in witnesses(t, members):
                position = {e: i for i, e in enumerate(seq)}
                assert any(
                    position[u] > position[v]
                    for (u, v) in _ordered_pairs(poset.order)
                ), "a linearization realized a poset whose closure is bottom"
    _report(
        5,
        f"closure idempotent + refining on {len(samples)} rf-posets; "
        f"{bottoms} bottoms, none realizable, exact",
        start,
    )


def test_criterion_06_candidate_set_bound_holds_on_corpus():
    start = time.perf_counter()
    checked = 0
    for t in corpus():
        params = trace_params(t)
        if params.k < 2:
            continue
        alpha = params.k * params.gamma * params.zeta
        bound = max(1, min(params.n, alpha) ** (params.k - 2))
        for e1, e2 in scan_pairs(t):
            assert len(candidate_ideal_set(t, e1, e2)) <= bound, (e1, e2, bound)
            checked += 1
    assert checked >= 500
    _report(
        6,
        f"|candidate set| <= min(n, k*gamma*zeta)^(k-2) on {checked} corpus queries, exact",
        start,
    )


def test_criterion_07_bounded_promise_on_small_corpus():
    start = time.perf_counter()
    queries = 0
    for seed in range(60):
        t = gen_random_trace(
            1000 + seed, n=7, k=2 + seed % 2, d_globals=2, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        )
        assert len(t) <= 10
        cap = oracle_cap(t)
        for e1, e2 in scan_pairs(t):
            best = min_distance(t, e1, e2, cap=cap)
            for budget in (0, 1, 2):
                v = checked_predict(t, e1, e2, algo="bounded", distance=budget)
                if v.race:
                    delta = reversal_count(t, v.witness)
                    assert delta <= budget
                    assert v.distance == delta
                assert v.race == (best <= budget), (seed, e1, e2, budget, best)
                queries += 1
    assert queries >= 300
    _report(
        7,
        f"bounded witnesses verify with delta <= budget, and min_distance <= budget "
        f"always yields one: {queries} (query, budget) runs, exact",
        start,
    )


def test_criterion_08_every_emitted_witness_verifies():
    start = time.perf_counter()
    # a dedicated mixed-backend sweep (checked_predict re-verifies each
    # witness externally); earlier criteria route through the same check
    found = 0
    for seed in range(40):
        t = gen_random_trace(
            2000 + seed, n=9, k=2 + seed % 2, d_globals=2, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        )
        cap = oracle_cap(t)
        runs = [("auto", {}), ("general", {}), ("bruteforce", {"oracle_cap": cap}),
                ("bounded", {"distance": 2})]
        if trace_params(t).is_tree:
            runs.append(("tree", {}))
        for e1, e2 in scan_pairs(t):
            for algo, kw in runs:
                found += checked_predict(t, e1, e2, algo=algo, **kw).race
    assert found > 0
    _report(
        8,
        f"100% of witnesses re-verified: {found} in this sweep, "
        f"{TALLY['witnesses']} across all criteria so far, exact",
        start,
    )


def test_criterion_09_wrap_pair_preserves_the_answer():
    start = time.perf_counter()
    queries = 0
    for t in corpus():
        if len(t) > 10:  # keep the wrapped-trace oracle cheap
            continue
        cap = oracle_cap(t)
        for e1, e2 in scan_pairs(t):
            direct = oracle_predict(t, e1, e2, cap=cap)
            wrapped, _, _ = wrap_pair(t, e1, e2)
            assert direct == has_any_race(wrapped, cap=len(wrapped)), (e1, e2)
            queries += 1
        if queries >= 120:
            break
    assert queries >= 100
    _report(
        9,
        f"pair query == any-race on the wrapped trace for {queries} corpus queries, exact",
        start,
    )


def test_criterion_10_polynomial_smoke():
    start = time.perf_counter()
    # 2-thread, 2000-event, lock-free: a produce/consume chain ending in
    # two conflicting writes
    items = []
    for _ in range(999):
        items.append("t1 w x")
        items.append("t2 r x")
    items += ["t1 w y", "t2 w y"]
    chain = parse_trace("\n".join(items))
    assert len(chain) == 2000 and not chain.locks and len(chain.threads) == 2
    t0 = time.perf_counter()
    v = checked_predict(chain, 1999, 2000, algo="general")
    general_s = time.perf_counter() - t0
    assert v.race and v.algorithm == "general"
    assert general_s < 5.0, f"general took {general_s:.2f}s"

    # 4-thread star topology, 2000 events, queried deep in the trace
    items = []
    while len(items) < 2004:
        for arm in ("t2", "t3", "t4"):
            items.append(f"t1 w slot_{arm}")
            items.append(f"{arm} r slot_{arm}")
    star = parse_trace("\n".join(items[:2000]))
    params = trace_params(star)
    assert len(star) == 2000 and len(star.threads) == 4 and params.is_tree
    t0 = time.perf_counter()
    v = checked_predict(star, 1999, 2000, algo="tree")
    tree_s = time.perf_counter() - t0
    assert v.race and v.algorithm == "tree"
    assert tree_s < 10.0, f"tree took {tree_s:.2f}s"
    _report(
        10,
        f"general 2000-event query {general_s:.2f}s (< 5s); "
        f"tree star 2000-event query {tree_s:.2f}s (< 10s)",
        start,
    )
