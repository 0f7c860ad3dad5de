"""Layered race-prediction benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ov --seed 1 --seconds 20 --trace 0

One run is one process and one workload, single-threaded.  A workload is a
seeded pass of trace texts and queries (see ``workloads.py``).  The run
decides whole passes, as many as bring it closest to ``--seconds``.  Within a
pass each text is parsed with ``parse_trace`` right before it is decided (the
set-up, timed on its own), then decided through ``racepred.cli.predict`` or
``racepred.cli.scan``.  Every verdict is checked, outside the timed region,
against an answer the engine does not supply, and every reported race has its
witness re-checked with ``verify_witness``.  The end-to-end times are wall
times scaled to a nominal host speed, sampled on a timer while the run goes
(see ``speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` decides one pass
untraced, then the same pass with every layer's public functions wrapped (see
``tracer.py``), and prints the per-layer metrics; the spans go to
``perfbench/out/spans_<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 2 means
the benchmark could not run (for example, no ``src/racepred`` next to it).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# parse rounds after each pass, on top of the pass's own, for ``setup_s``
SETUP_ROUNDS = 4


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


class Checker:
    """Counts attempted and failed verdicts.

    A failure is a wrong verdict, a race whose witness ``verify_witness``
    rejects, or an exception; each counts once and the run goes on.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)

    def verdict(self, trace, label: str, query, v) -> None:
        self.attempted += 1
        if v.race != query.expect_race:
            self.fail(1, f"{label}: race={v.race}, expected {query.expect_race}")
        elif v.race and not witness_ok(trace, v.witness, query.e1, query.e2):
            self.fail(1, f"{label}: witness rejected")

    def scan(self, trace, label: str, pairs: list, races: int, verdicts) -> None:
        self.attempted += len(pairs)
        got = [v.query for v in verdicts]
        if got != pairs:
            self.fail(len(pairs), f"{label}: scan answered other pairs than asked")
            return
        found = sum(v.race for v in verdicts)
        if found != races:
            self.fail(abs(found - races), f"{label}: {found} racy pairs, pinned {races}")
        for v in verdicts:
            e1, e2 = v.query
            if v.race and trace.event(e1).thread == trace.event(e2).thread:
                self.fail(1, f"{label}: same-thread pair {v.query} reported racy")
            elif v.race and not witness_ok(trace, v.witness, e1, e2):
                self.fail(1, f"{label}: witness rejected for {v.query}")


def witness_ok(trace, witness, e1: int, e2: int) -> bool:
    from racepred.oracle import verify_witness

    try:
        return verify_witness(trace, witness, e1, e2)
    except Exception:  # a malformed witness (say, None) is a rejected one
        return False


def conflicting_pairs(trace) -> list[tuple[int, int]]:
    """The pairs ``scan`` must answer, recomputed here from the trace alone."""
    accesses = [
        ev
        for ev in trace.events
        if ev.kind in ("w", "r") and not trace.is_synthesized(ev.eid)
    ]
    return [
        (a.eid, b.eid)
        for i, a in enumerate(accesses)
        for b in accesses[i + 1 :]
        if a.loc == b.loc and "w" in (a.kind, b.kind)
    ]


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------


class Tally:
    """Decisions and parses of the passes, with their wall-clock intervals.

    ``ops`` holds one ``(started, ended, latencies_ms)`` per timed ``predict``
    or ``scan`` call, ``parses`` one ``(round, started, ended)`` per text
    parsed; a round parses every text of the pass once.
    ``latencies_ms`` is ``None`` for a ``predict`` call and the wall time of
    each pair, as ``predict`` measured it, for a ``scan`` call.
    """

    def __init__(self) -> None:
        self.decisions = 0
        self.seconds = 0.0
        self.ops: list[tuple[float, float, list[float] | None]] = []
        self.parses: list[tuple[int, float, float]] = []
        self.rounds = 0
        self.setup_s: list[float] = []  # wall time of each pass's parses


def decide_pass(pass_, checker: Checker, tally: Tally, pairs: dict) -> None:
    """Parse and decide every instance of the pass once.

    ``pairs`` caches, per scan text, the pairs ``scan`` must answer.
    """
    from racepred.cli import predict, scan
    from racepred.trace_model import parse_trace

    clock = time.perf_counter
    round_no = tally.rounds
    tally.rounds += 1
    setup = 0.0
    for inst in pass_:
        started = clock()
        trace = parse_trace(inst.text)
        ended = clock()
        setup += ended - started
        tally.parses.append((round_no, started, ended))
        if trace.num_synthesized:
            raise RuntimeError(f"{inst.label} reads before writing; query ids would shift")
        if inst.scan_races is not None:
            if inst.text not in pairs:
                pairs[inst.text] = conflicting_pairs(trace)
            asked = pairs[inst.text]
            started = clock()
            try:
                verdicts = scan(trace)
            except Exception as exc:  # a failed operation, not a crash
                checker.attempted += len(asked)
                checker.fail(len(asked), f"{inst.label}: {exc!r}")
                continue
            ended = clock()
            tally.seconds += ended - started
            tally.decisions += len(verdicts)
            # predict's own wall time for each pair of the scan
            tally.ops.append((started, ended, [v.stats["wall_ms"] for v in verdicts]))
            checker.scan(trace, inst.label, asked, inst.scan_races, verdicts)
            continue
        for q in inst.queries:
            started = clock()
            try:
                v = predict(trace, q.e1, q.e2, algo=q.algo, distance=q.distance)
            except Exception as exc:  # a failed operation, not a crash
                checker.attempted += 1
                checker.fail(1, f"{inst.label}: {exc!r}")
                continue
            ended = clock()
            tally.seconds += ended - started
            tally.decisions += 1
            tally.ops.append((started, ended, None))
            checker.verdict(trace, inst.label, q, v)
    tally.setup_s.append(setup)


def parse_rounds(pass_, tally: Tally, rounds: int) -> None:
    """Parse every text of the pass ``rounds`` more times, timing each text."""
    from racepred.trace_model import parse_trace

    clock = time.perf_counter
    for _ in range(rounds):
        round_no = tally.rounds
        tally.rounds += 1
        for inst in pass_:
            started = clock()
            parse_trace(inst.text)
            tally.parses.append((round_no, started, clock()))


# ----------------------------------------------------------------------
# set-up and the two kinds of run
# ----------------------------------------------------------------------


def end_to_end(pass_, checker: Checker, seconds: float) -> dict:
    """Decide whole passes for about ``seconds``; time them at nominal speed.

    Every wall time, less the speed samples taken within it, is scaled by
    the host's speed around it (``speed.py``), so the figures are the times
    the run would take on a host that runs the kernel in ``NOMINAL_S``.  The
    raw wall-clock figures go to standard error.
    """
    from speed import NOMINAL_S, Speed

    tally = Tally()
    pairs: dict = {}
    with Speed() as speed:
        started = time.perf_counter()
        decide_pass(pass_, checker, tally, pairs)
        parse_rounds(pass_, tally, SETUP_ROUNDS)
        # as many whole passes as bring the run closest to the requested length
        passes = max(1, round(seconds / (time.perf_counter() - started)))
        for _ in range(passes - 1):
            decide_pass(pass_, checker, tally, pairs)
            parse_rounds(pass_, tally, SETUP_ROUNDS)
    if not tally.ops:
        raise SystemExit("error: no decision completed; nothing to measure")
    wall_s = decision_s = 0.0
    lat: list[float] = []
    for begun, ended, latencies in tally.ops:
        own = speed.own(begun, ended)
        scale = speed.scale(begun, ended)
        wall_s += own
        decision_s += own * scale
        if latencies is None:  # a predict call, timed here
            lat.append(own * scale * 1000.0)
        else:  # predict's own wall times within a scan, samples included
            lat += [ms * scale for ms in latencies]
    setup_s = [0.0] * tally.rounds
    for round_no, begun, ended in tally.parses:
        setup_s[round_no] += speed.own(begun, ended) * speed.scale(begun, ended)
    # p99 is informational: only scan has the 1 000+ decisions it needs
    p99 = statistics.quantiles(lat, n=100)[98] if len(lat) > 1 else lat[0]
    print(
        f"{passes} passes, {tally.decisions} decisions, {len(speed.took)} speed samples "
        f"(host at {NOMINAL_S / statistics.median(speed.took):.3f} of nominal); "
        f"wall: {tally.decisions / wall_s:.3f}/s; "
        f"nominal: p99 {p99:.2f} ms over {len(lat)} samples; "
        f"error rate {checker.failed}/{checker.attempted}",
        file=sys.stderr,
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "decisions_per_s": (tally.decisions / decision_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced(pass_, checker: Checker, workload: str) -> dict:
    from tracer import LAYERS, ROUTES, Recorder

    pairs: dict = {}
    plain = Tally()
    decide_pass(pass_, checker, plain, pairs)
    rec = Recorder()
    rec.install()
    try:
        spans = Tally()
        decide_pass(pass_, checker, spans, pairs)
    finally:
        rec.uninstall()
    rec.save(HERE / "out" / f"spans_{workload}.npz")

    calls, self_s = rec.self_times()
    by_name = {n: (int(c), float(s) * 1000.0) for n, c, s in zip(rec.names, calls, self_s)}
    counts = rec.counts

    def n_calls(name: str) -> int:
        return by_name.get(name, (0, 0.0))[0]

    def self_ms(name: str) -> float:
        return by_name.get(name, (0, 0.0))[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    nodes = counts["realizability.realize_general.search_nodes"]
    out = {
        "orders.closure.self_ms": (self_ms("orders.closure"), "ms"),
        "orders.closure.edges_added": (counts["orders.closure.edges_added"], "count"),
        "orders.closure.contradictions": (counts["orders.closure.contradictions"], "count"),
        "orders.compute_trf.calls": (n_calls("orders.compute_trf"), "count"),
        "orders.compute_trf.self_ms": (self_ms("orders.compute_trf"), "ms"),
        "trace_model.trace_params.calls": (n_calls("trace_model.trace_params"), "count"),
        "trace_model.trace_params.self_ms": (self_ms("trace_model.trace_params"), "ms"),
        "ideal_engine.cone.calls": (n_calls("ideal_engine.cone"), "count"),
        "ideal_engine.cone.self_ms": (self_ms("ideal_engine.cone"), "ms"),
        "ideal_engine.candidate_ideal_set.self_ms": (
            self_ms("ideal_engine.candidate_ideal_set"), "ms"),
        "ideal_engine.candidate_ideal_set.ideals": (
            counts["ideal_engine.candidate_ideal_set.ideals"], "count"),
        "ideal_engine.feasibility.self_ms": (self_ms("ideal_engine.feasibility"), "ms"),
        "ideal_engine.feasibility.feasible_ratio": (
            ratio(counts["ideal_engine.feasibility.feasible"],
                  n_calls("ideal_engine.feasibility")), "ratio"),
        "ideal_engine.lcone.self_ms": (self_ms("ideal_engine.lcone"), "ms"),
        "realizability.realize_general.calls": (
            n_calls("realizability.realize_general"), "count"),
        "realizability.realize_general.self_ms": (
            self_ms("realizability.realize_general"), "ms"),
        "realizability.realize_general.search_nodes": (nodes, "count"),
        "realizability.realize_general.us_per_state": (
            ratio(self_ms("realizability.realize_general") * 1000.0, nodes), "us"),
        "realizability.realize_general.witness_ratio": (
            ratio(counts["realizability.realize_general.witnesses"],
                  n_calls("realizability.realize_general")), "ratio"),
        "realizability.realize_tree.self_ms": (self_ms("realizability.realize_tree"), "ms"),
        "realizability.realize_tree.resolution_edges": (
            counts["realizability.realize_tree.resolution_edges"], "count"),
        "realizability.check_tree_inducible.fallbacks": (
            counts["realizability.check_tree_inducible.fallbacks"], "count"),
        "realizability.realize_bounded.self_ms": (
            self_ms("realizability.realize_bounded"), "ms"),
        "realizability.realize_bounded.branches": (
            counts["realizability.realize_bounded.branches"], "count"),
        "oracle.witness_error.calls": (n_calls("oracle.witness_error"), "count"),
        "oracle.witness_error.self_ms": (self_ms("oracle.witness_error"), "ms"),
        "cli.predict.self_ms": (self_ms("cli.predict"), "ms"),
        "cli.predict.ideals_examined": (counts["cli.predict.ideals_examined"], "count"),
    }
    for route in ROUTES:
        out[f"cli.route.{route}"] = (counts[f"cli.route.{route}"], "count")
    layer_ms = dict.fromkeys(LAYERS, 0.0)
    for name, (_, ms) in by_name.items():
        layer_ms[name.split(".", 1)[0]] += ms
    for layer, ms in layer_ms.items():
        out[f"layer.{layer}.self_ms"] = (ms, "ms")
    out["trace.decisions"] = (spans.decisions, "count")
    # the bench times set-up (parsing) and decisions; spans cover both
    timed = spans.seconds + sum(spans.setup_s)
    out["trace.decision_s"] = (spans.seconds, "s")
    out["trace.self_share"] = (ratio(sum(layer_ms.values()) / 1000.0, timed), "ratio")
    out["trace.overhead_s"] = (timed - plain.seconds - sum(plain.setup_s), "s")
    return out


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ov", "scan", "indset", "long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "racepred" / "__init__.py").is_file():
        print(f"error: no racepred package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    pass_ = workloads.WORKLOADS[args.workload](args.seed)
    checker = Checker()
    if args.trace:
        metrics = traced(pass_, checker, args.workload)
    else:
        metrics = end_to_end(pass_, checker, args.seconds)
    for note in checker.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
