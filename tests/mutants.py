"""Checked-in mutants: small faults that named tests must catch.

Each mutant replaces one exact snippet of a source file with another and
names the tests that must then fail.  Run the list from the repository root:

    python tests/mutants.py

The runner copies ``src/``, ``tests/``, ``perfbench/`` (whose workloads the
verdict gate decides) and ``pyproject.toml`` to a temporary directory outside
the checkout.  It first runs every named test there on the
unchanged code, which must pass, and then applies one mutant at a time and
runs its tests with ``pytest -x``.  A mutant is killed when a test fails.
Each run is its own process group, with a wall-clock timeout and an
address-space cap set in the child, and the whole group is killed when the
run ends, so no process outlives it.  The runner prints one line per mutant
and exits non-zero unless every mutant is killed.

pytest does not collect this file.  ``tests/test_mutants.py`` checks in
tier 1 that each old snippet occurs exactly once in its file, so a refactor
that moves the code makes the list fail instead of rot.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TIMEOUT_S = 600  # per run
MEMORY_CAP = 4 << 30  # bytes of address space per run


@dataclass(frozen=True)
class Mutant:
    """Replace ``old`` by ``new`` in ``path`` (from the repository root);
    one of ``tests`` must then fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


IDEAL_ENGINE = "src/racepred/ideal_engine.py"
ORACLE = "src/racepred/oracle.py"
ORDERS = "src/racepred/orders.py"
REALIZABILITY = "src/racepred/realizability.py"
TRACE_MODEL = "src/racepred/trace_model.py"
ROUND_GATES = (
    "tests/test_orders.py::test_closure_rounds_match_slot_reference_on_edge_cases",
    "tests/test_orders.py::test_closure_rounds_match_slot_reference_on_ov",
)
NEEDS_GATES = (
    "tests/test_realizability.py::test_needs_test_matches_pred_rows_on_wide_corpus",
    "tests/test_realizability.py::test_general_matches_watcher_search_on_wide_corpus",
)
ZETA_GATES = (
    "tests/test_trace_model.py::test_zeta_counts_a_section_released_right_past_the_range",
    "tests/test_trace_model.py::test_zeta_matches_scan_on_seeded_corpus",
)
LCONE_CORPUS = "tests/test_ideal_engine.py::test_lcone_matches_member_replay_on_seeded_forest_corpus"

MUTANTS = (
    # closure round, condition 1: a writer at pred[w, b] itself counts as
    # after w, and one at pred[r, b] as not before r
    Mutant(
        "round-cond1-side",
        ORDERS,
        'lo, hi = self.keys.searchsorted(order.pred.take(at) + offset, side="right")',
        'lo, hi = self.keys.searchsorted(order.pred.take(at) + offset, side="left")',
        ROUND_GATES,
    ),
    # closure round, condition 1: in w's own block the run takes w itself
    Mutant(
        "round-cond1-own",
        ORDERS,
        "offset = base + np.concatenate((self.own, np.zeros_like(self.own)))",
        "offset = base",
        ROUND_GATES,
    ),
    # closure round, condition 2: the first writer above r taken for the
    # first above w
    Mutant(
        "round-cond2-swap",
        ORDERS,
        "side=\"right\").reshape(2, -1)\n"
        "        first, end = self._above(order, self._cond2).reshape(2, -1)",
        "side=\"right\").reshape(2, -1)\n"
        "        end, first = self._above(order, self._cond2).reshape(2, -1)",
        ROUND_GATES,
    ),
    # insert: the rows already above u found in the column of v's block,
    # so rows that need u's predecessors keep their old entries
    Mutant(
        "insert-above-u",
        ORDERS,
        "hi = start + bisect_left(pred[start:end, bu], pu)",
        "hi = start + bisect_left(pred[start:end, bv], pu)",
        (
            "tests/test_orders.py::test_add_edge_matches_mask_reference_on_a_chain_round",
            "tests/test_orders.py::test_add_edge_matches_mask_reference",
        ),
    ),
    # linearize: the id-ordered prefix cut at the first late row, not at
    # the least late id
    Mutant(
        "linearize-prefix-row-order",
        ORDERS,
        "stop = int(ids[late].min(initial=_NO_ID))",
        "stop = int(ids[late][:1].min(initial=_NO_ID))",
        (
            "tests/test_orders.py::test_linearize_under_edges_matches_scan_of_the_edge_loop",
            "tests/test_orders.py::test_linearize_is_least_linear_extension",
        ),
    ),
    # linearize: a self-loop edge no longer makes its event late
    Mutant(
        "linearize-late-strict",
        ORDERS,
        "ids.take(pred + self._first) >= ids[:, None]",
        "ids.take(pred + self._first) > ids[:, None]",
        ("tests/test_orders.py::test_linearize_under_edges_matches_scan_of_the_edge_loop",),
    ),
    # guards: the first writer above an event taken one past a writer whose
    # entry equals the event's position
    Mutant(
        "guards-above-side",
        ORDERS,
        "+ self._offsets).searchsorted(query) - start",
        '+ self._offsets).searchsorted(query, side="right") - start',
        ("tests/test_orders.py::test_first_above_is_the_first_writer_above",),
    ),
    # bounded replay: the prefix of earlier writers runs to the later of its
    # two ends, past writers the order already puts after v
    Mutant(
        "replay-prefix-end",
        ORDERS,
        "hi = np.minimum(self._above(order, queries), later)",
        "hi = np.maximum(self._above(order, queries), later)",
        ("tests/test_realizability.py::test_replay_orders_like_the_pairwise_replay",),
    ),
    # general search: a writer's observers counted over the whole trace, so
    # one whose reader lies outside the universe holds its channel forever
    Mutant(
        "general-observers-whole-trace",
        REALIZABILITY,
        "delta = np.bincount(source, minlength",
        "delta = np.bincount(table.source, minlength",
        (
            "tests/test_realizability.py"
            "::test_general_reader_outside_the_universe_holds_no_channel",
        ),
    ),
    # general search: a writer counts at most one observer, so its channel
    # frees after the first read
    Mutant(
        "general-one-observer",
        REALIZABILITY,
        "delta = np.bincount(source, minlength=len(table.source))[ids] - (source > 0)",
        "delta = np.minimum(np.bincount(source, minlength=len(table.source))[ids], 1)"
        " - (source > 0)",
        (
            "tests/test_realizability.py"
            "::test_general_write_waits_for_both_readers_of_a_pending_write",
        ),
    ),
    # general search: a state's children queued in block order, not by
    # event id, so states are discovered in another order
    Mutant(
        "general-children-unsorted",
        REALIZABILITY,
        "children.sort()",
        "pass",
        (
            "tests/test_realizability.py"
            "::test_general_matches_watcher_search_on_every_feasible_ideal",
            "tests/test_realizability.py::test_general_matches_watcher_search_on_chain_and_star",
        ),
    ),
    # general search: strides built from the block lengths, not the lengths
    # plus one, so distinct states share a key
    Mutant(
        "general-stride-radix",
        REALIZABILITY,
        "stride = [prod(n + 1 for n in lengths[:b]) for b in range(k)]",
        "stride = [prod(lengths[:b]) for b in range(k)]",
        (
            "tests/test_realizability.py"
            "::test_general_matches_watcher_search_on_every_feasible_ideal",
        ),
    ),
    # general search: a block's first row needs only the entries that
    # exceed the previous block's last row, so a head whose predecessor
    # there is unplaced is taken as enabled
    Mutant(
        "needs-first-row-previous-block",
        REALIZABILITY,
        "above[order._pos == 0] = -1",
        "above[order._pos < 0] = -1",
        NEEDS_GATES,
    ),
    # general search: a row's needs taken against the row below it
    Mutant(
        "needs-row-below",
        REALIZABILITY,
        "above[1:] = pred[:-1]",
        "above[:-1] = pred[1:]",
        NEEDS_GATES,
    ),
    # candidate sweep: an ideal holding a lock open twice grown only by
    # closing the first open acquire of that lock
    Mutant(
        "sweep-first-clashing-acquire",
        IDEAL_ENGINE,
        "opens = [a for a in opens if trace.events[a - 1].loc == clash]",
        "opens = [a for a in opens if trace.events[a - 1].loc == clash][:1]",
        (
            "tests/test_ideal_engine.py"
            "::test_pruned_sweep_grows_through_every_acquire_of_the_clashing_lock",
        ),
    ),
    # linearize: a waiting head woken one placement before its predecessor
    # is placed
    Mutant(
        "linearize-wake-early",
        ORDERS,
        "waiting.setdefault((c, row[c] + 1), [])",
        "waiting.setdefault((c, row[c]), [])",
        ("tests/test_orders.py::test_linearize_under_edges_matches_scan_of_the_edge_loop",),
    ),
    # tree resolution: the parent's successors read from the child's column
    Mutant(
        "resolve-column",
        REALIZABILITY,
        "above = fixed.pred[starts[par] : starts[par + 1], child].searchsorted(p2)",
        "above = fixed.pred[starts[child] : starts[child + 1], par].searchsorted(p2)",
        ("tests/test_realizability.py::test_resolution_matches_pairwise_loop_on_ov",),
    ),
    # tree resolution: a child read or release resolved against the parent's
    # reads too, not only its writes and acquires
    Mutant(
        "resolve-users-only",
        REALIZABILITY,
        "writers[writers.searchsorted(end) - 1])",
        "users[users.searchsorted(end) - 1])",
        (
            "tests/test_realizability.py"
            "::test_resolution_orders_a_child_read_after_parent_writes_only",
        ),
    ),
    # prefix cut: a thread's event at its prefix length counted in the
    # universe, so the guards take a writer past the block's end
    Mutant(
        "prefix-cut-inclusive",
        TRACE_MODEL,
        "keys[keys % span < np.asarray(prefix, dtype=np.int64)",
        "keys[keys % span <= np.asarray(prefix, dtype=np.int64)",
        ("tests/test_orders.py::test_first_above_is_the_first_writer_above",),
    ),
    # trace check: a release that closes an outer section while an inner one
    # is open is accepted
    Mutant(
        "trace-nesting-unchecked",
        TRACE_MODEL,
        "if opened[ev.thread].pop() is not held:",
        "if opened[ev.thread].pop() is None:",
        ("tests/test_trace_model.py::test_parse_rejects_badly_nested_release",),
    ),
    # trace check: an unknown kind is let through, and replays as a release
    Mutant(
        "trace-kind-unchecked",
        TRACE_MODEL,
        "if kind not in KINDS:",
        "if False:",
        (
            "tests/test_trace_model.py::test_trace_rejects_ids_out_of_order_and_unknown_kinds",
            "tests/test_trace_model.py::test_trace_error_messages_are_pinned",
        ),
    ),
    # trace check: a location name is accepted when only its start is an
    # identifier
    Mutant(
        "trace-location-prefix-match",
        TRACE_MODEL,
        "_LOCATION_RE.fullmatch(loc)",
        "_LOCATION_RE.match(loc)",
        ("tests/test_trace_model.py::test_trace_rejects_names_the_file_format_cannot_hold",),
    ),
    # down-set table: a release leaves its acquire on the thread's open stack
    Mutant(
        "table-release-keeps-open",
        TRACE_MODEL,
        "stack = stack[:-1]  # the trace guarantees proper nesting",
        "stack = stack  # the trace guarantees proper nesting",
        (
            "tests/test_trace_model.py::test_table_and_derived_maps_match_a_replay_of_the_events",
            "tests/test_trace_model.py"
            "::test_table_and_derived_maps_match_a_replay_of_random_traces",
        ),
    ),
    # lock-dependence factor: a section whose release is the first event of
    # its thread past the range is taken as released before acq2's release
    Mutant(
        "zeta-release-strict",
        TRACE_MODEL,
        "if pos[match[a1]] >= hi[b]",
        "if pos[match[a1]] > hi[b]",
        ZETA_GATES,
    ),
    # lock cone: a parent holding one event passes nothing below it on
    Mutant(
        "lcone-frontier-first-event",
        IDEAL_ENGINE,
        "prefix[b1] = table.down[table.ids[b2][m - 1] if m else 0][b1]",
        "prefix[b1] = table.down[table.ids[b2][m - 1] if m > 1 else 0][b1]",
        ("tests/test_ideal_engine.py::test_lcone_spec_steps", LCONE_CORPUS),
    ),
    # lock cone: the parent's open locks read at its empty prefix, so no
    # clashing child section is closed
    Mutant(
        "lcone-parent-locks-unread",
        IDEAL_ENGINE,
        "held = {trace.events[a - 1].loc for a in table.opens[b2][m]}",
        "held = {trace.events[a - 1].loc for a in table.opens[b2][0]}",
        ("tests/test_ideal_engine.py::test_lcone_closes_clashing_parent_sections", LCONE_CORPUS),
    ),
    # witness check: a read may observe another writer than in the trace
    Mutant(
        "witness-rf-unchecked",
        ORACLE,
        "if last_writer.get(ev.loc) != trace.rf[ev.eid]:",
        "if False:",
        ("tests/test_oracle.py::test_verify_rejects_changed_rf",),
    ),
    # bounded search: a witness at exactly the budget is refused, which
    # flips the race bits of the benchmark's zero-budget queries
    Mutant(
        "bounded-budget-strict",
        REALIZABILITY,
        "return (w, flips) if len(flips) <= budget else None",
        "return (w, flips) if len(flips) < budget else None",
        (
            "tests/test_verdict_gate.py"
            "::test_workload_verdicts_are_correct_and_match_the_pinned_race_bits",
        ),
    ),
    # topology: a pair conflicts only when the lower thread writes
    Mutant(
        "topology-one-way",
        TRACE_MODEL,
        "np.triu(shared + shared.T, 1)",
        "np.triu(shared, 1)",
        ("tests/test_trace_model.py::test_topology_is_the_thread_pairs_of_conflicting_events",),
    ),
)


def _cap_memory() -> None:
    """Runs in the child before exec: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[str, str, float]:
    """Run ``tests`` in ``copy`` with ``-x``: the outcome (passed, failed,
    timeout or error), the failing test or the output's last line, and the
    seconds taken."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(copy / "src"), env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    started = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        preexec_fn=_cap_memory,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", f"no result after {TIMEOUT_S} s", time.monotonic() - started
    finally:
        try:  # whatever the tests started
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    seconds = time.monotonic() - started
    lines = out.strip().splitlines() or [""]
    if proc.returncode == 0:
        return "passed", lines[-1], seconds
    if proc.returncode == 1:
        failed = [line for line in lines if line.startswith("FAILED ")]
        return "failed", failed[0] if failed else lines[-1], seconds
    return "error", f"exit status {proc.returncode}: {lines[-1]}", seconds


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="racepred-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", "out")
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)

        every = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        outcome, detail, seconds = _pytest(copy, every)
        print(f"control   {outcome:8} {seconds:6.1f} s  {detail}", flush=True)
        if outcome != "passed":
            print("the named tests must pass on the unchanged code", file=sys.stderr)
            return 2

        missed = []
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                outcome, detail, seconds = "error", "old snippet not found exactly once", 0.0
            else:
                target.write_text(original.replace(m.old, m.new))
                try:
                    outcome, detail, seconds = _pytest(copy, m.tests)
                finally:
                    target.write_text(original)
            verdict = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
            print(f"{verdict:9} {m.name:28} {seconds:6.1f} s  {detail}", flush=True)
            if verdict != "killed":
                missed.append(m.name)
    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} mutants killed", flush=True)
    if missed:
        print("not killed: " + ", ".join(missed), file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
