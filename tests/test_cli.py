"""Command-line interface: verdicts, exit codes, scanning, generation."""

import ast
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import racepred
from racepred import (
    PartialOrder,
    RfPoset,
    Trace,
    TraceError,
    closure,
    compute_trf,
    min_distance,
    oracle_predict,
    parse_trace,
    serialize,
    trace_params,
    verify_witness,
    witness_error,
)
from racepred.cli import CliError, Verdict, main, predict, scan, scan_pairs
from racepred.generators import OvInstance, gen_ov_trace, gen_random_trace

from helpers import child_env

TWO_WRITES = "t1 w x\nt2 w x\n"
LOCK_PROTECTED = "t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w x\nt2 rel l\n"
TRIANGLE = "t1 w x\nt2 r x\nt2 w y\nt3 r y\nt3 w z\nt1 r z\n"
# t2's closed critical section must move before t1's open acquire, so any
# witness enabling (2, 7) reverses the trace order of the two acquires
FORCED_FLIP = (
    "t1 acq l\nt1 w x\nt1 rel l\nt2 acq l\nt2 w y\nt2 rel l\nt2 w x\n"
)
# three threads pairwise sharing a lock close a cycle; the one conflicting
# pair is events 13 and 14 of t1
LOCK_CYCLE_SAME_THREAD = (
    "t1 acq a\nt1 rel a\nt2 acq a\nt2 rel a\nt2 acq b\nt2 rel b\n"
    "t3 acq b\nt3 rel b\nt3 acq c\nt3 rel c\nt1 acq c\nt1 rel c\n"
    "t1 w x\nt1 w x\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_trace(tmp_path, text, name="trace.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# predict: verdicts and the JSON schema
# ---------------------------------------------------------------------------


def test_predict_two_writes_trivial_race(tmp_path, capsys):
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, _ = run_cli(["predict", "--trace", path, "--e1", "1", "--e2", "2"], capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict == {
        "query": {"e1": 1, "e2": 2},
        "race": True,
        "witness": [],
        "algorithm": "tree",
        "distance": None,
        "stats": verdict["stats"],
    }
    assert set(verdict["stats"]) == {"ideals", "search_nodes", "closure_edges", "wall_ms"}


def test_predict_lock_protected_pair_matches_oracle(tmp_path, capsys):
    trace = parse_trace(LOCK_PROTECTED)
    assert oracle_predict(trace, 2, 5) is False  # independent recomputation
    path = write_trace(tmp_path, LOCK_PROTECTED)
    code, out, _ = run_cli(["predict", "--trace", path, "--e1", "2", "--e2", "5"], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["race"] is False
    assert verdict["witness"] is None
    assert verdict["distance"] is None


def test_predict_auto_routes_by_topology(tmp_path, capsys):
    locked = write_trace(tmp_path, LOCK_PROTECTED, "locked.txt")
    _, out, _ = run_cli(["predict", "--trace", locked, "--e1", "2", "--e2", "5"], capsys)
    assert json.loads(out)["algorithm"] == "tree"
    tri = write_trace(tmp_path, TRIANGLE, "tri.txt")
    _, out, _ = run_cli(["predict", "--trace", tri, "--e1", "1", "--e2", "2"], capsys)
    assert json.loads(out)["algorithm"] == "general"


def test_predict_does_not_depend_on_primed_trace_facts():
    # the tree route reads the down-set table and its topology, which a trace
    # keeps; a cold trace and one primed by trace_params must give the same verdicts
    forests = 0
    for seed in range(30):
        text = serialize(gen_random_trace(
            seed, n=10, k=2 + seed % 2, d_globals=2, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        ))
        primed = parse_trace(text)
        if not trace_params(primed).is_tree:
            continue
        forests += 1
        for e1, e2 in scan_pairs(primed):
            if primed.event(e1).thread == primed.event(e2).thread:
                continue  # decided without any trace fact
            cold = predict(parse_trace(text), e1, e2).to_json()
            warm = predict(primed, e1, e2).to_json()
            del cold["stats"]["wall_ms"], warm["stats"]["wall_ms"]
            assert cold == warm, (seed, e1, e2)
            assert warm["algorithm"] == "tree"
    assert forests >= 10


def test_queries_never_compute_zeta(monkeypatch):
    # gamma and zeta only feed the stats report; no route may pay for zeta
    cases = [
        (LOCK_PROTECTED, "auto", None),  # a forest
        (TRIANGLE, "auto", None),  # a cycle
        (LOCK_PROTECTED, "tree", None),
        (TRIANGLE, "general", None),
        (FORCED_FLIP, "bounded", 1),
        (TRIANGLE, "bruteforce", None),
    ]

    def answers():
        out = []
        for text, algo, distance in cases:
            t = parse_trace(text)
            e1, e2 = next(scan_pairs(t))  # a cross-thread pair in each of these traces
            verdicts = [predict(t, e1, e2, algo=algo, distance=distance)]
            verdicts += scan(parse_trace(text), algo=algo, distance=distance)
            for v in verdicts:
                del v.stats["wall_ms"]
                out.append(v.to_json())
        return out

    want = answers()

    def no_zeta(trace):
        raise AssertionError("zeta computed on the query path")

    monkeypatch.setattr("racepred.trace_model._lock_dependence_factor", no_zeta)
    with pytest.raises(AssertionError, match="zeta computed"):
        trace_params(parse_trace(TRIANGLE))  # the stats report still asks for it
    assert answers() == want
    assert {v["algorithm"] for v in want} == {"tree", "general", "bounded", "bruteforce"}


def test_predict_same_thread_pair_skips_search():
    trace = parse_trace("t1 w x\nt1 r x\nt2 w y\n")
    verdict = predict(trace, 1, 2, algo="auto")
    assert verdict.race is False
    assert verdict.algorithm == "auto"
    assert verdict.stats["ideals"] == 0
    assert verdict.stats["search_nodes"] == 0


def test_predict_agrees_across_backends_on_random_corpus():
    for seed in range(12):
        trace = gen_random_trace(
            seed, n=9, k=3, d_globals=3, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        )
        for e1, e2 in scan_pairs(trace):
            verdicts = {
                algo: predict(trace, e1, e2, algo=algo, oracle_cap=len(trace))
                for algo in ("auto", "general", "bruteforce")
            }
            answers = {algo: v.race for algo, v in verdicts.items()}
            assert len(set(answers.values())) == 1, (seed, e1, e2, answers)
            for v in verdicts.values():
                if v.race:
                    assert verify_witness(trace, v.witness, e1, e2)


def test_predict_matches_oracle_on_wide_corpus():
    # up to 5 threads, 3 locks and nesting 3: auto (tree or general) and
    # general must agree with the exhaustive search on every cross-thread
    # pair; the floors keep the corpus from shrinking unnoticed
    seen = Counter()
    for s in range(1000):
        t = gen_random_trace(
            60_000 + s, n=13, k=2 + s % 4, d_globals=1 + s % 3,
            d_locks=1 + (s // 4) % 3, read_ratio=0.4, lock_ratio=0.35,
            nesting_max=1 + (s // 12) % 3,
        )
        assert len(t) <= 16, s
        params = trace_params(t)
        seen["forest" if params.is_tree else "cyclic"] += 1
        seen["gamma>=2"] += params.gamma >= 2
        seen["locks>=2"] += params.num_locks >= 2
        for e1, e2 in scan_pairs(t):
            if t.event(e1).thread == t.event(e2).thread:
                continue
            want = oracle_predict(t, e1, e2, cap=len(t))
            for algo in ("auto", "general"):
                v = predict(t, e1, e2, algo=algo)
                assert v.race == want, (s, e1, e2, algo)
                if v.race:
                    assert verify_witness(t, v.witness, e1, e2), (s, e1, e2, algo)
            seen["pairs"] += 1
            seen["quiet"] += not want
    floors = {"pairs": 14_700, "quiet": 1_950, "forest": 295, "cyclic": 600,
              "gamma>=2": 140, "locks>=2": 555}
    assert all(seen[key] >= floor for key, floor in floors.items()), seen


def test_predict_witness_reverifies_with_endpoints_enabled(tmp_path, capsys):
    path = write_trace(tmp_path, TRIANGLE)
    _, out, _ = run_cli(["predict", "--trace", path, "--e1", "1", "--e2", "2"], capsys)
    verdict = json.loads(out)
    assert verdict["race"] is True
    trace = parse_trace(TRIANGLE)
    assert verify_witness(trace, verdict["witness"], 1, 2)


# ---------------------------------------------------------------------------
# predict: the bounded backend
# ---------------------------------------------------------------------------


def test_bounded_reports_witness_distance(tmp_path, capsys):
    trace = parse_trace(FORCED_FLIP)
    assert min_distance(trace, 2, 7) == 1.0  # independent recomputation
    path = write_trace(tmp_path, FORCED_FLIP)
    base = ["predict", "--trace", path, "--e1", "2", "--e2", "7", "--algo", "bounded"]

    code, out, _ = run_cli(base + ["--distance", "0"], capsys)
    assert code == 0 and json.loads(out)["race"] is False

    code, out, _ = run_cli(base + ["--distance", "1"], capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict["race"] is True
    assert verdict["distance"] == 1
    assert verify_witness(trace, verdict["witness"], 2, 7)


def test_bounded_distance_zero_replay(tmp_path, capsys):
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, _ = run_cli(
        ["predict", "--trace", path, "--e1", "1", "--e2", "2",
         "--algo", "bounded", "--distance", "0"],
        capsys,
    )
    assert code == 1
    assert json.loads(out)["distance"] == 0


# ---------------------------------------------------------------------------
# predict: query addressing
# ---------------------------------------------------------------------------


def test_predict_reads_sidecar_query(tmp_path, capsys):
    path = write_trace(tmp_path, TWO_WRITES + "# query 1 2\n")
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 1
    assert json.loads(out)["query"] == {"e1": 1, "e2": 2}


def test_predict_by_line_follows_init_synthesis_shift(tmp_path, capsys):
    # the synthesized initial write becomes event 1, shifting file events up
    path = write_trace(tmp_path, "# leading comment\nt1 r x\n\nt2 w x\n")
    code, out, _ = run_cli(
        ["predict", "--trace", path, "--e1", "2", "--e2", "4", "--by-line"], capsys
    )
    assert code == 1
    assert json.loads(out)["query"] == {"e1": 2, "e2": 3}


def test_predict_by_line_names_each_event_line_on_seeded_files(tmp_path, capsys):
    # seeded traces written with comment-only, blank and whitespace-only
    # lines between events and trailing comments on some; on odd seeds a
    # read of a fresh global comes first, so init synthesis shifts every id
    pairs = shifted = 0
    for seed in range(100):
        rng = random.Random(f"by-line:{seed}")
        trace = gen_random_trace(seed, rng.randint(20, 40), rng.randint(2, 4), 3, 2, 0.5, 0.3, 2)
        events = serialize(trace).splitlines()
        if seed % 2:
            events.insert(0, "t1 r fresh")
        lines: list[str] = []
        at: list[int] = []  # the line number of each event line, in order
        for event in events:
            while rng.random() < 0.4:
                lines.append(rng.choice(["# a comment", "", "  \t ", "   # indented"]))
            if rng.random() < 0.3:
                event += "   # trailing"
            lines.append(event)
            at.append(len(lines))
        text = "\n".join(lines) + "\n"
        path = write_trace(tmp_path, text)
        shift = seed % 2
        shifted += parse_trace(text).num_synthesized
        fields = [event.split("#")[0].split() for event in events]
        conflicts = [
            (i, j)
            for i, j in itertools.combinations(range(len(events)), 2)
            if fields[i][0] != fields[j][0]
            and fields[i][2] == fields[j][2]
            and {fields[i][1], fields[j][1]} in ({"w"}, {"w", "r"})
        ]
        for i, j in rng.sample(conflicts, min(20, len(conflicts))):
            if rng.random() < 0.5:
                i, j = j, i
            argv = ["predict", "--trace", path, "--by-line", "--e1", str(at[i]), "--e2", str(at[j])]
            code, out, err = run_cli(argv, capsys)
            assert code in (0, 1), err
            assert json.loads(out)["query"] == {"e1": shift + i + 1, "e2": shift + j + 1}
            pairs += 1
        noise = [n for n, line in enumerate(lines, 1) if n not in at and "#" in line]
        if noise:
            bad = str(rng.choice(noise))
            argv = ["predict", "--trace", path, "--by-line", "--e1", bad, "--e2", str(at[-1])]
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"error: no trace event on line {bad} of {path}\n"
    assert pairs >= 1800 and shifted == 50


def test_explain_narrates_on_stderr(tmp_path, capsys):
    path = write_trace(tmp_path, LOCK_PROTECTED)
    code, out, err = run_cli(
        ["predict", "--trace", path, "--e1", "2", "--e2", "5", "--explain"], capsys
    )
    assert code == 0
    json.loads(out)  # stdout stays machine-readable
    assert "lock-cone ideal" in err


def test_every_route_reports_one_stats_shape_and_explain_shape():
    same = predict(parse_trace("t1 w x\nt1 r x\n"), 1, 2)
    assert same.algorithm == "auto"
    line = re.compile(
        r"(lock-cone|candidate) ideal with \d+ events: "
        r"(holds a query event, which cannot then be enabled|infeasible\w*|"
        r"(witness found|no witness), \d+ search nodes, \d+ closure edges)"
    )
    verdicts = [same]
    for text, e1, e2, algo, distance, want in [
        (LOCK_PROTECTED, 2, 5, "tree", None, False),
        (TWO_WRITES, 1, 2, "tree", None, True),
        (TRIANGLE, 1, 2, "general", None, True),
        (FORCED_FLIP, 2, 7, "bounded", 1, True),
        (FORCED_FLIP, 2, 7, "bruteforce", None, True),
    ]:
        explain: list[str] = []
        v = predict(parse_trace(text), e1, e2, algo=algo, distance=distance, explain=explain)
        assert (v.algorithm, v.race) == (algo, want)
        if algo != "bruteforce":
            assert explain and all(line.fullmatch(s) for s in explain), explain
        verdicts.append(v)
    for v in verdicts:
        assert set(v.stats) == {"ideals", "search_nodes", "closure_edges", "wall_ms"}
        assert v.race == (v.witness is not None)


# ---------------------------------------------------------------------------
# predict: error exits
# ---------------------------------------------------------------------------


NOT_A_FOREST = (
    "the tree backend needs a forest communication topology; "
    "this trace has a cycle (use --algo general or auto)"
)
USAGE_ERRORS = [
    (
        TWO_WRITES,
        ["--e1", "1", "--e2", "2", "--algo", "bounded"],
        "--algo bounded needs a reversal budget: pass --distance L",
    ),
    (
        TWO_WRITES,
        ["--e1", "1", "--e2", "2", "--distance", "1"],
        "--distance only applies to --algo bounded",
    ),
    (
        TWO_WRITES,
        ["--e1", "1", "--e2", "2", "--algo", "bounded", "--distance", "-1"],
        "--distance must be non-negative",
    ),
    # an acquire is not a global access
    (LOCK_PROTECTED, ["--e1", "1", "--e2", "2"], "events 1 and 2 are not both global reads/writes"),
    ("t1 w x\nt2 w y\n", ["--e1", "1", "--e2", "2"], "events 1 and 2 do not conflict"),
    (TWO_WRITES, ["--e1", "1", "--e2", "9"], "event id 9 out of range 1..2"),
    (
        TWO_WRITES,
        [],
        "no query given: pass --e1 and --e2, or use a trace with a '# query <id1> <id2>' comment",
    ),
    (TWO_WRITES, ["--e1", "1", "--e2", "7", "--by-line"], "no trace event on line 7 of {path}"),
    (TRIANGLE, ["--e1", "1", "--e2", "2", "--algo", "tree"], NOT_A_FOREST),
    # one query id must not fall back to the sidecar's pair
    (TWO_WRITES + "t1 w x\n# query 1 2\n", ["--e1", "3"], "pass both --e1 and --e2"),
    (TWO_WRITES + "t1 w x\n# query 1 2\n", ["--e2", "3"], "pass both --e1 and --e2"),
    # a same-thread pair on a cyclic topology
    (LOCK_CYCLE_SAME_THREAD, ["--e1", "13", "--e2", "14", "--algo", "tree"], NOT_A_FOREST),
]


@pytest.mark.parametrize(
    "text,argv_tail,message",
    USAGE_ERRORS,
    # a case is named by its trace and its place in the list, not its message
    ids=[f"{text}-argv_tail{i}" for i, (text, _, _) in enumerate(USAGE_ERRORS)],
)
def test_predict_usage_errors_exit_2(tmp_path, capsys, text, argv_tail, message):
    # the whole line is pinned: a crash would print "error: internal failure: ..."
    path = write_trace(tmp_path, text)
    code, out, err = run_cli(["predict", "--trace", path] + argv_tail, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "argv,text,message",
    [
        # a sidecar comment whose ids are not integers
        (["predict"], TWO_WRITES + "# query 1 x\n", "malformed query comment: '# query 1 x'"),
        (["predict", "--by-line"], TWO_WRITES, "--by-line needs explicit --e1 and --e2 line numbers"),
        (["gen", "random", "--read-ratio", "2"], None, "ratios must lie in [0, 1]"),
        (["gen", "random", "--k", "0"], None, "need at least one thread"),
    ],
)
def test_error_paths_exit_2_with_one_message_line(tmp_path, capsys, argv, text, message):
    if text is not None:
        argv = argv + ["--trace", write_trace(tmp_path, text)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_bruteforce_reports_a_trace_too_deep_to_walk(tmp_path, capsys):
    # the exhaustive walk recurses once per placed event: 1 500 writes ahead
    # of the pair run past the recursion limit, 700 do not
    argv = ["predict", "--algo", "bruteforce", "--oracle-cap", "100000", "--trace"]
    deep = write_trace(tmp_path, "t1 w y\n" * 1500 + TWO_WRITES)
    code, out, err = run_cli(argv + [deep, "--e1", "1501", "--e2", "1502"], capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: trace has 1502 events, too deep for the brute-force walk, which "
        f"recurses once per placed event, under the recursion limit {sys.getrecursionlimit()}\n"
    )
    shallow = write_trace(tmp_path, "t1 w y\n" * 700 + TWO_WRITES, "shallow.txt")
    code, out, err = run_cli(argv + [shallow, "--e1", "701", "--e2", "702"], capsys)
    assert (code, err, json.loads(out)["witness"]) == (1, "", list(range(1, 701)))


def test_library_rejects_an_unknown_algorithm():
    # the command line's choices never let this name through
    message = "unknown algorithm 'nope'; pick one of auto, general, tree, bounded, bruteforce"
    with pytest.raises(CliError) as exc:
        predict(parse_trace(TWO_WRITES), 1, 2, algo="nope")
    assert str(exc.value) == message


def test_parse_failure_exits_2(tmp_path, capsys):
    path = write_trace(tmp_path, "t1 w\n")
    code, _, err = run_cli(["predict", "--trace", path, "--e1", "1", "--e2", "2"], capsys)
    assert code == 2 and "parse failure" in err

    path = write_trace(tmp_path, "t1 r x\n", "noinit.txt")
    code, _, err = run_cli(
        ["predict", "--trace", path, "--e1", "1", "--e2", "1", "--no-init-synthesis"],
        capsys,
    )
    assert code == 2 and "no earlier write" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["predict", "--trace", str(tmp_path / "absent.txt"), "--e1", "1", "--e2", "2"],
        capsys,
    )
    assert code == 2 and err.startswith("error:")


NON_UTF8 = b"t1 w x\n\xff\xfe w y\n"


def test_non_utf8_trace_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(NON_UTF8)
    code, out, err = run_cli(["predict", "--trace", str(path), "--e1", "1", "--e2", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_trace_subprocess_has_no_traceback(tmp_path, source):
    path = tmp_path / "bad.txt"
    path.write_bytes(NON_UTF8)
    proc = subprocess.run(
        [sys.executable, "-m", "racepred", "predict", "--e1", "1", "--e2", "2",
         "--trace", str(path) if source == "file" else "-"],
        input=NON_UTF8 if source == "stdin" else None,
        capture_output=True,
        env=child_env(PYTHONIOENCODING="utf-8"),
    )
    assert proc.returncode == 2
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error:") and proc.stderr.count(b"\n") == 1


def test_internal_failure_exits_2_not_race(tmp_path, capsys, monkeypatch):
    # a witness rejected by the soundness guard must not surface as exit 1
    monkeypatch.setattr("racepred.cli.witness_error", lambda *args: "forced rejection")
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, err = run_cli(["predict", "--trace", path, "--e1", "1", "--e2", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "invalid witness" in err and err.count("\n") == 1


def test_closure_that_makes_no_progress_exits_2_not_hangs(tmp_path, capsys, monkeypatch):
    # an insert that orders nothing leaves a round's demanded edges unordered
    # forever; the closure's progress check turns that loop into an internal
    # failure, on the library call and through the CLI
    inst = OvInstance(((1, 0, 1), (0, 1, 1)), ((1, 1, 0), (1, 0, 1)), 3)
    trace, (e1, e2) = gen_ov_trace(inst)
    monkeypatch.setattr(PartialOrder, "_insert", lambda self, iu, iv: True)
    with pytest.raises(RuntimeError, match="closure round left .* unordered"):
        closure(RfPoset(trace, compute_trf(trace)))
    path = write_trace(tmp_path, serialize(trace))
    code, out, err = run_cli(["predict", "--trace", path, "--e1", str(e1), "--e2", str(e2)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: internal failure: RuntimeError: closure round left")
    assert err.count("\n") == 1


def test_race_without_witness_exits_2(tmp_path, capsys, monkeypatch):
    # a race is a witness, and one that executes a query event is refused by
    # the real soundness guard, which, unlike an assert, ``python -O`` keeps
    bad = [1]
    trace = parse_trace(TWO_WRITES)
    assert "query event 1 must stay out" in witness_error(trace, bad, 1, 2)
    monkeypatch.setattr("racepred.cli.realize_tree", lambda p, stats: bad)
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, err = run_cli(["predict", "--trace", path, "--e1", "1", "--e2", "2"], capsys)
    assert code == 2 and out == ""
    assert "invalid witness: query event 1 must stay out" in err


# fuzz input: raw bytes, token noise, or well-formed event lines with query
# comments, some of which parse and reach the search
_ODD = ["t1", "acq", "rel", "r", "w", "#", "query", "1", "-1", "\t", "\x00", "é", "线"]
_NOISE = st.lists(
    st.lists(st.sampled_from(_ODD) | st.text(max_size=3), max_size=5).map(" ".join),
    max_size=12,
)
_EVENTS = st.lists(
    st.sampled_from(
        [f"{t} {op}" for t in ("t1", "t2", "t3") for op in ("r x", "w x", "w y", "acq l", "rel l")]
    )
    | st.tuples(st.integers(-1, 12), st.integers(-1, 12)).map(lambda q: "# query %d %d" % q),
    max_size=12,
)
FUZZ_INPUT = st.binary(max_size=120) | (_NOISE | _EVENTS).map(lambda lines: "\n".join(lines).encode())


@given(FUZZ_INPUT)
@settings(deadline=None, max_examples=150)
def test_parse_trace_fuzz_gives_trace_or_trace_error(data):
    try:
        assert isinstance(parse_trace(data.decode("latin-1")), Trace)
    except TraceError:
        pass


@given(FUZZ_INPUT, st.sampled_from(["predict", "scan", "stats"]))
@settings(
    deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_cli_fuzz_exits_0_1_2_without_traceback(tmp_path, data, command):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--trace", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert "internal failure" not in err.getvalue()


def test_oracle_cap_exceeded_exits_2(tmp_path, capsys):
    trace = gen_random_trace(
        3, n=20, k=2, d_globals=2, d_locks=0, read_ratio=0.3,
        lock_ratio=0.0, nesting_max=1,
    )
    pairs = [
        (a, b)
        for a, b in scan_pairs(trace)
        if trace.event(a).thread != trace.event(b).thread
    ]
    assert pairs, "corpus trace must hold a cross-thread conflicting pair"
    path = write_trace(tmp_path, serialize(trace))
    e1, e2 = pairs[0]
    code, _, err = run_cli(
        ["predict", "--trace", path, "--e1", str(e1), "--e2", str(e2),
         "--algo", "bruteforce", "--oracle-cap", "10"],
        capsys,
    )
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_two_writes_finds_exactly_one(tmp_path, capsys):
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, _ = run_cli(["scan", "--trace", path], capsys)
    assert code == 1
    assert "1 racy pairs among 1 conflicting pairs" in out


def test_scan_single_thread_trace_has_zero_races(tmp_path, capsys):
    path = write_trace(tmp_path, "t1 r x\nt1 w x\nt1 w x\nt1 w y\n")
    code, out, _ = run_cli(["scan", "--trace", path], capsys)
    assert code == 0
    assert "0 racy pairs" in out.splitlines()[-1]


@pytest.mark.parametrize(
    "argv_tail,kwargs,message",
    [
        (["--algo", "bounded"], {"algo": "bounded"}, "--algo bounded needs a reversal budget"),
        (["--distance", "2"], {"distance": 2}, "--distance only applies to --algo bounded"),
    ],
)
def test_scan_rejects_bad_algo_options_without_pairs(tmp_path, capsys, argv_tail, kwargs, message):
    text = "t1 w x\nt1 w y\n"  # no conflicting pair to reach
    path = write_trace(tmp_path, text)
    code, out, err = run_cli(["scan", "--trace", path] + argv_tail, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    with pytest.raises(CliError, match=message):
        scan(parse_trace(text), **kwargs)


def test_scan_tree_on_cyclic_topology_exits_2(tmp_path, capsys):
    # the same-thread pair needs no search, but the forced backend still
    # does not apply to the trace
    path = write_trace(tmp_path, LOCK_CYCLE_SAME_THREAD)
    code, out, err = run_cli(["scan", "--trace", path, "--algo", "tree"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: the tree backend needs a forest")
    assert run_cli(["scan", "--trace", path], capsys)[0] == 0


def test_scan_tree_on_cyclic_topology_without_pairs_exits_2(tmp_path, capsys):
    # three threads on one lock form a cycle; with no global pair to answer,
    # the forced backend still does not apply to the trace
    text = "".join(f"t{i} acq m\nt{i} rel m\n" for i in (1, 2, 3))
    path = write_trace(tmp_path, text)
    code, out, err = run_cli(["scan", "--trace", path, "--algo", "tree"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: the tree backend needs a forest")
    assert run_cli(["scan", "--trace", path], capsys)[0] == 0


def test_scan_skips_synthesized_initial_writes():
    # pairing the synthesized write with the first read would claim a race
    # that no reordering of the observed program can exhibit
    trace = parse_trace("t1 r x\nt2 w x\n")
    assert trace.is_synthesized(1)
    assert list(scan_pairs(trace)) == [(2, 3)]


def test_scan_json_lists_every_pair(tmp_path, capsys):
    path = write_trace(tmp_path, TRIANGLE)
    code, out, _ = run_cli(["scan", "--trace", path, "--json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"pairs", "races"}
    assert payload["races"] == sum(p["race"] for p in payload["pairs"])
    trace = parse_trace(TRIANGLE)
    assert len(payload["pairs"]) == len(list(scan_pairs(trace)))
    for entry in payload["pairs"]:
        assert set(entry) == {"query", "race", "witness", "algorithm", "distance", "stats"}


def test_scan_matches_oracle_on_random_corpus():
    for seed in (0, 1, 2):
        trace = gen_random_trace(
            seed, n=8, k=2, d_globals=2, d_locks=1,
            read_ratio=0.4, lock_ratio=0.3, nesting_max=1,
        )
        for verdict in scan(trace):
            e1, e2 = verdict.query
            assert verdict.race == oracle_predict(trace, e1, e2, cap=len(trace))


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_lock_free_two_thread_recommends_tree(tmp_path, capsys):
    path = write_trace(tmp_path, TWO_WRITES)
    code, out, _ = run_cli(["stats", "--trace", path, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == 0
    assert payload["zeta"] == 0
    assert payload["is_tree"] is True
    assert payload["recommended"] == "tree"
    assert payload["topology"] == [["t1", "t2"]]


def test_stats_triangle_recommends_general(tmp_path, capsys):
    path = write_trace(tmp_path, TRIANGLE)
    code, out, _ = run_cli(["stats", "--trace", path, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_tree"] is False
    assert payload["recommended"] == "general"
    assert payload["n"] == 6 and payload["k"] == 3


def test_stats_text_mode_mentions_every_parameter(tmp_path, capsys):
    path = write_trace(tmp_path, LOCK_PROTECTED)
    code, out, _ = run_cli(["stats", "--trace", path], capsys)
    assert code == 0
    for key in ("n", "k", "d", "gamma", "zeta", "topology", "is_tree", "backend"):
        assert any(line.startswith(key) for line in out.splitlines()), key


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def gen_to_file(argv, tmp_path, capsys, name="gen.txt"):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def test_gen_ov_emits_query_that_tracks_orthogonality(tmp_path, capsys):
    a = tmp_path / "a.vec"
    b = tmp_path / "b.vec"
    a.write_text("10\n01\n")
    b.write_text("11\n01\n")  # a1=(1,0) is orthogonal to b2=(0,1)
    path = gen_to_file(["gen", "ov", "--a", str(a), "--b", str(b)], tmp_path, capsys)
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 1 and json.loads(out)["race"] is True

    b.write_text("11\n10\n")  # only the last pairing (0,1)·(1,0) is orthogonal
    path = gen_to_file(["gen", "ov", "--a", str(a), "--b", str(b)], tmp_path, capsys)
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 1 and json.loads(out)["race"] is True

    a.write_text("11\n")
    b.write_text("10\n")
    path = gen_to_file(["gen", "ov", "--a", str(a), "--b", str(b)], tmp_path, capsys)
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 0 and json.loads(out)["race"] is False


def test_gen_ov_rejects_bad_vectors(tmp_path, capsys):
    a = tmp_path / "a.vec"
    b = tmp_path / "b.vec"
    a.write_text("10\n1\n")
    b.write_text("11\n")
    code, _, err = run_cli(["gen", "ov", "--a", str(a), "--b", str(b)], capsys)
    assert code == 2 and err.startswith("error:")
    a.write_text("")
    code, _, err = run_cli(["gen", "ov", "--a", str(a), "--b", str(b)], capsys)
    assert code == 2 and "non-empty" in err


def test_gen_indset_emits_query_that_tracks_independent_sets(tmp_path, capsys):
    graph = tmp_path / "g.el"
    graph.write_text("1 2\n2 3\n")  # path: {1, 3} is independent
    path = gen_to_file(["gen", "indset", "--graph", str(graph), "--c", "2"], tmp_path, capsys)
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 1 and json.loads(out)["race"] is True

    graph.write_text("1 2\n2 3\n1 3\n")  # triangle: no two independent nodes
    path = gen_to_file(["gen", "indset", "--graph", str(graph), "--c", "2"], tmp_path, capsys)
    code, out, _ = run_cli(["predict", "--trace", path], capsys)
    assert code == 0 and json.loads(out)["race"] is False


def test_gen_indset_strips_isolated_nodes(tmp_path, capsys):
    graph = tmp_path / "g.el"
    graph.write_text("1 3\n")  # node 2 is isolated and joins any independent set
    code, _, err = run_cli(["gen", "indset", "--graph", str(graph), "--c", "1"], capsys)
    assert code == 2 and "isolated vertices alone" in err
    code, out, _ = run_cli(["gen", "indset", "--graph", str(graph), "--c", "2"], capsys)
    assert code == 0
    trace = parse_trace(out)
    assert len(trace.threads) == 2 * 1 + 2  # one walker after shrinking c to 1


@pytest.mark.parametrize("c", ["0", "-1"])
def test_gen_indset_rejects_a_target_below_one(tmp_path, capsys, c):
    graph = tmp_path / "g.el"
    graph.write_text("1 3\n")  # node 2 is isolated, but the target is at fault
    code, out, err = run_cli(["gen", "indset", "--graph", str(graph), "--c", c], capsys)
    assert code == 2 and out == ""
    assert err == "error: target set size must be at least 1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        # no edges, so no nodes: a no-instance for every c
        ("# only a comment\n", "the graph needs at least one node"),
        ("", "the graph needs at least one node"),
        # non-ASCII digits
        ("1 \u0663\n", "line 1: expected 'u v', got '1 \u0663'"),
        ("1 \u00b2\n", "line 1: expected 'u v', got '1 \u00b2'"),
    ],
)
def test_gen_indset_rejects_graphs_it_cannot_encode(tmp_path, capsys, text, message):
    graph = tmp_path / "g.el"
    graph.write_text(text, encoding="utf-8")
    code, out, err = run_cli(["gen", "indset", "--graph", str(graph), "--c", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_gen_random_is_seed_deterministic(capsys):
    code, first, _ = run_cli(["gen", "random", "--seed", "11", "--n", "15"], capsys)
    assert code == 0
    code, second, _ = run_cli(["gen", "random", "--seed", "11", "--n", "15"], capsys)
    assert first == second
    code, third, _ = run_cli(["gen", "random", "--seed", "12", "--n", "15"], capsys)
    assert first != third
    trace = parse_trace(first)
    assert len(trace) >= 15


def test_gen_random_query_is_a_conflicting_cross_thread_pair(capsys):
    for seed in range(6):
        code, out, _ = run_cli(["gen", "random", "--seed", str(seed)], capsys)
        assert code == 0
        trace = parse_trace(out)
        marked = [l for l in out.splitlines() if l.startswith("# query")]
        pairs = set(scan_pairs(trace))
        if marked:
            _, _, e1, e2 = marked[0].split()
            assert (int(e1), int(e2)) in pairs


def _noisy(rng, lines):
    """``lines`` as file text, with seeded comment-only, blank and
    whitespace-only lines between them and trailing comments on some."""
    out = []
    for line in lines:
        while rng.random() < 0.3:
            out.append(rng.choice(["# a comment", "", "  \t ", "   # indented"]))
        out.append(" " * rng.randrange(3) + line + rng.choice(["", "", " ", "  # tail", "#tail"]))
    return "\n".join(out) + "\n"


def _gen_cases(rng):
    """``(argv, files)`` for seeded ``gen`` runs, valid and faulty, where
    ``files`` maps each placeholder in ``argv`` to its file text."""
    for _ in range(40):
        m, dim = rng.randint(1, 4), rng.randint(1, 4)
        vecs = [["".join(rng.choice("01") for _ in range(dim)) for _ in range(m)] for _ in "ab"]
        files = {"A": _noisy(rng, vecs[0]), "B": _noisy(rng, vecs[1])}
        yield ["gen", "ov", "--a", "A", "--b", "B"], files
    faulty_vectors = [
        ([], ["1"]),  # empty
        (["1"], []),
        (["10", "102"], ["11", "01"]),  # non-binary
        (["10", "1x"], ["11", "01"]),
        (["10", "01"], ["11"]),  # unequal sizes
        (["10", "1"], ["11", "01"]),  # unequal dimensions
    ]
    for a, b in faulty_vectors:
        yield ["gen", "ov", "--a", "A", "--b", "B"], {"A": _noisy(rng, a), "B": _noisy(rng, b)}
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        picked = rng.sample(pairs, rng.randint(1, len(pairs)))
        edges = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in picked]
        c = str(rng.randint(1, 3))
        yield ["gen", "indset", "--graph", "G", "--c", c], {"G": _noisy(rng, edges)}
    faulty_graphs = [
        (["1 2", "1 2 3"], "2"),  # bad edge lines
        (["1 2", "a b"], "2"),
        (["1"], "1"),
        (["1 2", "0 1"], "1"),  # ids are 1-based
        (["1 2", "1 1"], "1"),  # self-loop
        (["1 2"], "0"),  # target below one
        (["1 2"], "-1"),
        (["1 3"], "1"),  # the isolated vertex alone is the set
        (["1 5"], "2"),
    ]
    for edges, c in faulty_graphs:
        yield ["gen", "indset", "--graph", "G", "--c", c], {"G": _noisy(rng, edges)}
    shapes = [
        [],
        ["--seed", "3", "--n", "30", "--k", "4"],
        ["--seed", "5", "--n", "0", "--k", "2"],
        ["--seed", "8", "--k", "1"],
        ["--seed", "9", "--globals", "1", "--locks", "0", "--lock-ratio", "0"],
        ["--seed", "2", "--n", "40", "--locks", "3", "--lock-ratio", "0.6", "--nesting", "3"],
        ["--seed", "4", "--read-ratio", "0", "--n", "15"],
        ["--seed", "6", "--read-ratio", "1", "--n", "15"],
        ["--seed", "7", "--n", "12", "--k", "3", "--globals", "2", "--locks", "1"],
        ["--seed", "11", "--n", "25", "--k", "5", "--globals", "4", "--locks", "2"],
        ["--seed", "3", "--n", "20", "--k", "2", "--globals", "0", "--lock-ratio", "1", "--nesting", "1"],
        ["--seed", "1", "--n", "18", "--globals", "0", "--locks", "2", "--lock-ratio", "1"],
        ["--seed", "13", "--lock-ratio", "1"],
        ["--read-ratio", "2"],  # faulty shapes from here on
        ["--lock-ratio", "-0.5"],
        ["--k", "0"],
        ["--locks", "0"],
        ["--nesting", "0"],
        ["--globals", "0"],
        ["--globals", "0", "--locks", "0", "--lock-ratio", "1"],
    ]
    for shape in shapes:
        yield ["gen", "random", *shape], {}


def test_gen_output_matches_the_pinned_digest(tmp_path, capsys):
    # every gen run's exit status, stdout and stderr, hashed in order: the
    # vector and edge readers, each generator's faults and the query choice
    digest = hashlib.sha256()
    codes = Counter()
    for i, (argv, files) in enumerate(_gen_cases(random.Random("gen-gate"))):
        for key, text in files.items():
            path = tmp_path / f"{i}-{key}.txt"
            path.write_text(text)
            argv = [str(path) if a == key else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        codes[code] += 1
        digest.update(repr((code, out, err)).encode())
    assert codes == {0: 90, 2: 25}
    assert digest.hexdigest() == (
        "452b7d1786f5e5e3c1b522243bd07df31e4c6131452863d0ece13699b4493fb2"
    )


# ---------------------------------------------------------------------------
# subprocess smoke tests
# ---------------------------------------------------------------------------


def test_module_entrypoint_subprocess(tmp_path):
    path = write_trace(tmp_path, TWO_WRITES)
    proc = subprocess.run(
        [sys.executable, "-m", "racepred", "predict", "--trace", path,
         "--e1", "1", "--e2", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["race"] is True


def test_closed_stdout_exits_2_quietly(tmp_path):
    # the read end is closed before the child starts, so its first write to
    # stdout fails
    path = write_trace(tmp_path, TWO_WRITES)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "racepred", "scan", "--trace", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "internal failure" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_stdin_trace_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "racepred", "scan", "--trace", "-"],
        input=TWO_WRITES,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 1
    assert "1 racy pairs" in proc.stdout


# ---------------------------------------------------------------------------
# running under python -O
# ---------------------------------------------------------------------------


def without_wall_ms(out: str):
    """A JSON verdict or scan report with every ``wall_ms`` stat dropped."""
    doc = json.loads(out)
    for verdict in doc.get("pairs", [doc]):
        del verdict["stats"]["wall_ms"]
    return doc


def test_python_O_strips_nothing_the_engine_needs(tmp_path):
    # no module holds an assert statement, so -O changes no check; and
    # predict and scan on a racy trace answer the same under -O
    src = Path(racepred.__file__).resolve().parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
    path = write_trace(tmp_path, FORCED_FLIP)
    for argv in (
        ["predict", "--trace", path, "--e1", "2", "--e2", "7"],
        ["predict", "--trace", path, "--e1", "2", "--e2", "7", "--algo", "bounded",
         "--distance", "1"],
        ["scan", "--trace", path, "--json"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "racepred", *argv],
                capture_output=True, text=True, env=child_env(),
            )
            for flags in ([], ["-O"])
        ]
        plain, optimized = runs
        assert plain.returncode == optimized.returncode == 1, argv
        assert without_wall_ms(plain.stdout) == without_wall_ms(optimized.stdout), argv
        assert plain.stderr == optimized.stderr == "", argv


# ---------------------------------------------------------------------------
# the Verdict type
# ---------------------------------------------------------------------------


def test_verdict_json_shape_is_stable():
    v = Verdict((3, 9), [1, 2], "general", None,
                {"ideals": 2, "search_nodes": 5, "closure_edges": 0, "wall_ms": 0.1})
    assert json.dumps(v.to_json(), sort_keys=True) == (
        '{"algorithm": "general", "distance": null, '
        '"query": {"e1": 3, "e2": 9}, "race": true, '
        '"stats": {"closure_edges": 0, "ideals": 2, "search_nodes": 5, "wall_ms": 0.1}, '
        '"witness": [1, 2]}'
    )
    assert v.race
    quiet = Verdict((3, 9), None, "general", None, {})
    assert quiet.race is False and quiet.to_json()["race"] is False
    with pytest.raises(AttributeError):
        quiet.race = True  # derived from the witness, never set on its own
