"""Command-line interface for race prediction over trace files.

Commands
--------
``predict``
    Decide one conflicting read/write pair and print a JSON verdict.
``scan``
    Decide every conflicting global pair in a trace and summarize.
``stats``
    Print the trace's size and synchronization-structure summary.
``gen ov | indset | random``
    Emit benchmark traces (with a ``# query`` sidecar comment) to stdout.

Exit status: 0 means no race (or a successful ``stats``/``gen``), 1 means a
race was found, 2 means the command failed (bad arguments, parse failure,
non-conflicting query pair, a forced backend whose precondition fails).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

from .generators import (
    IsInstance,
    OvInstance,
    gen_indset_trace,
    gen_ov_trace,
    gen_random_trace,
    parse_edge_list,
    parse_vectors,
    strip_isolated_nodes,
)
from .ideal_engine import Ideal, _Candidate, _candidate, _candidates, _feasible, lcone
from .oracle import DEFAULT_CAP, OracleCapError, oracle_witness, witness_error
from .realizability import realize_bounded, realize_general, realize_tree
from .trace_model import (
    Trace,
    TraceError,
    _content_lines,
    _query_pair,
    _table,
    parse_trace,
    serialize,
    trace_params,
)

ALGORITHMS = ("auto", "general", "tree", "bounded", "bruteforce")

_Note = Callable[[str], None]


class CliError(Exception):
    """A user-facing command error; reported on stderr with exit status 2."""


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


@dataclass
class Verdict:
    """The answer to one race query, plus the work it took to get there.

    ``witness`` is a correct-reordering event-id sequence enabling both
    query events (possibly empty, when both events are enabled before
    anything runs), or ``None``; :attr:`race` is whether there is one, so a
    race always comes with its witness.
    ``distance`` is the witness's reversal count, reported by the bounded
    backend only.  ``stats`` always carries the same four counters, which
    are 0 on the same-thread and bruteforce routes:

    * ``ideals`` -- candidate ideals checked for feasibility (at most 1 on
      the tree route);
    * ``search_nodes`` -- states the general search reached, branches
      tried by the bounded search, 0 on the tree route;
    * ``closure_edges`` -- edges the tree backend's closure inserted,
      each round's latest target first, that were not already implied (0
      when it is contradictory), 0 on the general and bounded routes;
    * ``wall_ms``.
    """

    query: tuple[int, int]
    witness: list[int] | None
    algorithm: str
    distance: int | None
    stats: dict

    @property
    def race(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "query": {"e1": self.query[0], "e2": self.query[1]},
            "race": self.race,
            "witness": None if self.witness is None else list(self.witness),
            "algorithm": self.algorithm,
            "distance": self.distance,
            "stats": dict(self.stats),
        }


# ----------------------------------------------------------------------
# the prediction pipeline
# ----------------------------------------------------------------------


def predict(
    trace: Trace,
    e1: int,
    e2: int,
    *,
    algo: str = "auto",
    distance: int | None = None,
    oracle_cap: int = DEFAULT_CAP,
    explain: list[str] | None = None,
) -> Verdict:
    """Decide whether ``(e1, e2)`` is a predictable race.

    ``algo`` picks the backend; ``auto`` routes to ``tree`` when the
    trace's communication topology is a forest and to ``general``
    otherwise.  ``bounded`` needs ``distance`` (the reversal budget) and
    inherits its one-sided promise: a race it reports is real and within
    budget, but a quiet answer only rules out witnesses, not races beyond
    the budget.  Raises :class:`CliError` on an invalid query.
    """
    _check_algo(trace, algo, distance)
    try:
        b1, b2 = _query_pair(trace, e1, e2)
    except TraceError as exc:
        raise CliError(str(exc)) from None

    note: _Note = explain.append if explain is not None else (lambda _: None)
    started = time.perf_counter()
    stats: dict = {"ideals": 0, "search_nodes": 0, "closure_edges": 0}
    label = algo
    witness: list[int] | None = None
    delta: int | None = None

    if b1 == b2:
        # thread order keeps the pair ordered in every correct reordering
        note(f"events {e1} and {e2} share thread {trace.threads[b1]}; ordered everywhere")
    elif algo == "bruteforce":
        witness = oracle_witness(trace, e1, e2, cap=oracle_cap)
        found = "exhausted" if witness is None else "found a witness"
        note(f"exhaustive reordering search {found}")
    else:
        # the backends are looked up here, at call time, so that a rebinding
        # of these module names (an instrumented run) takes effect
        if algo == "tree" or (algo == "auto" and _table(trace).forest):
            label, kind, backend = "tree", "lock-cone ideal", realize_tree
            candidates = [_candidate(lcone(trace, e1) | lcone(trace, e2))]
        else:
            label = "general" if distance is None else "bounded"
            # built lazily: the sweep stops at the first witness
            kind, candidates = "candidate ideal", _candidates(trace, e1, e2)
            backend = realize_general
            if distance is not None:
                backend = partial(realize_bounded, budget=distance)
        witness, won = _sweep(candidates, backend, e1, e2, kind, stats, explain)
        if witness is not None and label == "bounded":
            delta = len(won["reversals"])

    if witness is not None:
        err = witness_error(trace, witness, e1, e2)
        if err is not None:  # an internal soundness guard that ``python -O`` keeps
            raise RuntimeError(f"backend produced an invalid witness: {err}")
    stats["wall_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return Verdict((e1, e2), witness, label, delta, stats)


def _check_algo(trace: Trace, algo: str, distance: int | None) -> None:
    """Reject an unknown backend, one that does not apply to the trace, or
    a budget that does not fit it."""
    if algo not in ALGORITHMS:
        raise CliError(f"unknown algorithm {algo!r}; pick one of {', '.join(ALGORITHMS)}")
    if algo == "tree" and not _table(trace).forest:
        raise CliError(
            "the tree backend needs a forest communication topology; "
            "this trace has a cycle (use --algo general or auto)"
        )
    if algo == "bounded" and distance is None:
        raise CliError("--algo bounded needs a reversal budget: pass --distance L")
    if distance is not None:
        if algo != "bounded":
            raise CliError("--distance only applies to --algo bounded")
        if distance < 0:
            raise CliError("--distance must be non-negative")


def _sweep(
    candidates: Iterable[_Candidate], backend: Callable[..., list[int] | None],
    e1: int, e2: int, kind: str, stats: dict, explain: list[str] | None,
) -> tuple[list[int] | None, dict]:
    """Realize the candidates in order; the first witness wins, and no
    candidate after it is drawn, so ``candidates`` may be lazy.

    Each candidate comes with its open acquires and clashing lock, as
    :func:`~racepred.ideal_engine._candidates` yields them, so its
    feasibility reads neither again.  A candidate that holds a lock open
    twice is counted in ``ideals`` and narrated as ``infeasible_locks``, but
    never reaches :func:`~racepred.ideal_engine._feasible`.  Only the first
    candidate can hold a query event (the sweep's lone seed, or the tree
    route's one lock-cone union), so only the first is tested for one.

    Every feasible candidate's rf-poset goes to ``backend``, whose own stats
    are folded into ``stats``: its search states or bounded branches into
    ``search_nodes``, its closure's edges (none when contradictory) into
    ``closure_edges``.  One line per candidate goes to ``explain``, and
    none is built when it is ``None``.  Returns the witness, or ``None``,
    with the winning backend call's stats.
    """

    def note(x: Ideal, what: str) -> None:
        if explain is not None:
            explain.append(f"{kind} with {len(x)} events: {what}")

    for i, (x, opens, clash) in enumerate(candidates):
        if not i and (e1 in x or e2 in x):
            note(x, "holds a query event, which cannot then be enabled")
            continue
        stats["ideals"] += 1
        if clash is not None:  # lock-infeasible: no rf-poset to build
            note(x, "infeasible_locks")
            continue
        res = _feasible(x, opens, clash)
        if not res:
            note(x, res.status.value)
            continue
        local: dict = {}
        w = backend(res.poset, stats=local)
        nodes = local.get("search_nodes", local.get("branches", 0))
        edges = local.get("closure_edges") or 0
        stats["search_nodes"] += nodes
        stats["closure_edges"] += edges
        if explain is not None:
            outcome = "no witness" if w is None else "witness found"
            note(x, f"{outcome}, {nodes} search nodes, {edges} closure edges")
        if w is not None:
            return w, local
    return None, {}


def scan(
    trace: Trace,
    *,
    algo: str = "auto",
    distance: int | None = None,
    oracle_cap: int = DEFAULT_CAP,
) -> list[Verdict]:
    """Answer every deduplicated conflicting global pair in the trace.

    Synthesized initial writes are skipped: they model the state before
    the program ran, so pairing one with a first read would report a race
    no execution of the observed code can exhibit.  Raises
    :class:`CliError` on an invalid ``algo``/``distance``, pairs or not.
    """
    _check_algo(trace, algo, distance)
    return [
        predict(trace, a, b, algo=algo, distance=distance, oracle_cap=oracle_cap)
        for a, b in scan_pairs(trace)
    ]


def scan_pairs(trace: Trace) -> Iterator[tuple[int, int]]:
    """Unordered conflicting global pairs, synthesized events excluded, read
    from the columns."""
    skip = trace.num_synthesized
    columns = zip(count(skip + 1), trace.kind[skip:], trace.loc[skip:])
    accesses = [(e, loc, kind == "w") for e, kind, loc in columns if kind == "w" or kind == "r"]
    for i, (a, loc, writes) in enumerate(accesses):
        for b, other, writes2 in accesses[i + 1 :]:
            if loc == other and (writes or writes2):
                yield a, b


# ----------------------------------------------------------------------
# command wiring
# ----------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_trace(args: argparse.Namespace) -> tuple[Trace, str]:
    text = _read_text(args.trace)
    try:
        trace = parse_trace(text, synthesize_init=not args.no_init_synthesis)
    except TraceError as exc:
        raise CliError(f"parse failure in {args.trace}: {exc}") from None
    return trace, text


def _sidecar_query(text: str) -> tuple[int, int] | None:
    """The first ``# query <id1> <id2>`` comment in the file, if any."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        parts = stripped[1:].split()
        if len(parts) == 3 and parts[0] == "query":
            try:
                return int(parts[1]), int(parts[2])
            except ValueError:
                raise CliError(f"malformed query comment: {stripped!r}") from None
    return None


def _resolve_pair(args: argparse.Namespace, trace: Trace, text: str) -> tuple[int, int]:
    e1, e2 = args.e1, args.e2
    if (e1 is None) != (e2 is None):
        raise CliError("pass both --e1 and --e2")
    if e1 is None:
        if args.by_line:
            raise CliError("--by-line needs explicit --e1 and --e2 line numbers")
        sidecar = _sidecar_query(text)
        if sidecar is None:
            raise CliError(
                "no query given: pass --e1 and --e2, or use a trace with a "
                "'# query <id1> <id2>' comment"
            )
        e1, e2 = sidecar
    elif args.by_line:
        events = enumerate(_content_lines(text), trace.num_synthesized + 1)
        by_line = {lineno: eid for eid, (lineno, _, _) in events}
        out = []
        for line in (e1, e2):
            if line not in by_line:
                raise CliError(f"no trace event on line {line} of {args.trace}")
            out.append(by_line[line])
        e1, e2 = out
    return e1, e2


def cmd_predict(args: argparse.Namespace) -> int:
    trace, text = _load_trace(args)
    e1, e2 = _resolve_pair(args, trace, text)
    explain: list[str] | None = [] if args.explain else None
    verdict = predict(
        trace,
        e1,
        e2,
        algo=args.algo,
        distance=args.distance,
        oracle_cap=args.oracle_cap,
        explain=explain,
    )
    for line in explain or ():
        print(f"  - {line}", file=sys.stderr)
    print(json.dumps(verdict.to_json()))
    return 1 if verdict.race else 0


def cmd_scan(args: argparse.Namespace) -> int:
    trace, _ = _load_trace(args)
    verdicts = scan(
        trace, algo=args.algo, distance=args.distance, oracle_cap=args.oracle_cap
    )
    races = sum(v.race for v in verdicts)
    if args.json:
        print(json.dumps({"pairs": [v.to_json() for v in verdicts], "races": races}))
    else:
        for v in verdicts:
            mark = "race" if v.race else "none"
            print(f"{v.query[0]:>5} {v.query[1]:>5}  {mark}  [{v.algorithm}]")
        print(f"{races} racy pairs among {len(verdicts)} conflicting pairs")
    return 1 if races else 0


def cmd_stats(args: argparse.Namespace) -> int:
    trace, _ = _load_trace(args)
    params = trace_params(trace)
    recommended = "tree" if params.is_tree else "general"
    topology = sorted(params.topology)
    if args.json:
        print(
            json.dumps(
                {
                    "n": params.n,
                    "k": params.k,
                    "d": params.d,
                    "globals": params.num_globals,
                    "locks": params.num_locks,
                    "gamma": params.gamma,
                    "zeta": params.zeta,
                    "topology": [list(edge) for edge in topology],
                    "is_tree": params.is_tree,
                    "recommended": recommended,
                }
            )
        )
    else:
        print(f"n         {params.n}")
        print(f"k         {params.k}")
        print(f"d         {params.d} ({params.num_globals} globals + {params.num_locks} locks)")
        print(f"gamma     {params.gamma}")
        print(f"zeta      {params.zeta}")
        print("topology  " + (" ".join(f"{a}-{b}" for a, b in topology) or "(no edges)"))
        print(f"is_tree   {'yes' if params.is_tree else 'no'}")
        print(f"backend   {recommended}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    """Build the subcommand's trace and write it, with its ``# query`` line."""
    try:
        trace, query = args.build(args)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    sys.stdout.write(serialize(trace))
    if query is not None:
        print(f"# query {query[0]} {query[1]}")
    return 0


def _gen_ov(args: argparse.Namespace) -> tuple[Trace, tuple[int, int]]:
    a = parse_vectors(_read_text(args.a))
    b = parse_vectors(_read_text(args.b))
    if not a or not b:
        raise ValueError("vector files must be non-empty")
    return gen_ov_trace(OvInstance(a, b, dim=len(a[0])))


def _gen_indset(args: argparse.Namespace) -> tuple[Trace, tuple[int, int]]:
    n, edges = parse_edge_list(_read_text(args.graph))
    if args.c < 1:  # before stripping, which would blame the isolated vertices
        raise ValueError("target set size must be at least 1")
    n, edges, c = strip_isolated_nodes(n, edges, args.c)
    if c <= 0:
        raise ValueError(
            "the graph's isolated vertices alone form an independent set "
            f"of the requested size {args.c}; nothing to encode"
        )
    return gen_indset_trace(IsInstance(n, edges, c))


def _gen_random(args: argparse.Namespace) -> tuple[Trace, tuple[int, int] | None]:
    trace = gen_random_trace(
        args.seed,
        n=args.n,
        k=args.k,
        d_globals=args.globals_,
        d_locks=args.locks,
        read_ratio=args.read_ratio,
        lock_ratio=args.lock_ratio,
        nesting_max=args.nesting,
    )
    pairs = [(a, b) for a, b in scan_pairs(trace) if trace.tid[a - 1] != trace.tid[b - 1]]
    query = random.Random(f"{args.seed}:query").choice(pairs) if pairs else None
    return trace, query


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    trace_opts = argparse.ArgumentParser(add_help=False)
    trace_opts.add_argument(
        "--trace", required=True, metavar="PATH", help="trace file ('-' for stdin)"
    )
    trace_opts.add_argument(
        "--no-init-synthesis",
        action="store_true",
        help="reject reads of never-written globals instead of synthesizing "
        "initial writes on t0",
    )

    algo_opts = argparse.ArgumentParser(add_help=False)
    algo_opts.add_argument(
        "--algo", choices=ALGORITHMS, default="auto", help="backend (default: auto)"
    )
    algo_opts.add_argument(
        "--distance",
        type=int,
        metavar="L",
        help="reversal budget; required by (and only valid with) --algo bounded",
    )
    algo_opts.add_argument(
        "--oracle-cap",
        type=int,
        default=DEFAULT_CAP,
        metavar="N",
        help=f"largest trace the bruteforce backend accepts (default {DEFAULT_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="racepred",
        description="Sound dynamic data-race prediction over concurrent traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "predict",
        parents=[trace_opts, algo_opts],
        help="decide one conflicting read/write pair",
    )
    p.add_argument("--e1", type=int, metavar="N", help="first query event id")
    p.add_argument("--e2", type=int, metavar="N", help="second query event id")
    p.add_argument(
        "--by-line",
        action="store_true",
        help="interpret --e1/--e2 as trace-file line numbers instead of event ids",
    )
    p.add_argument(
        "--explain", action="store_true", help="narrate the search on stderr"
    )
    p.set_defaults(run=cmd_predict)

    s = sub.add_parser(
        "scan",
        parents=[trace_opts, algo_opts],
        help="decide every conflicting global pair",
    )
    s.add_argument("--json", action="store_true", help="emit one JSON object")
    s.set_defaults(run=cmd_scan)

    t = sub.add_parser(
        "stats", parents=[trace_opts], help="print trace shape parameters"
    )
    t.add_argument("--json", action="store_true", help="emit one JSON object")
    t.set_defaults(run=cmd_stats)

    g = sub.add_parser("gen", help="generate benchmark traces on stdout")
    gsub = g.add_subparsers(dest="generator", required=True)

    ov = gsub.add_parser(
        "ov", help="two-thread trace racing iff the vector sets hold an orthogonal pair"
    )
    ov.add_argument("--a", required=True, metavar="PATH", help="first vector set file")
    ov.add_argument("--b", required=True, metavar="PATH", help="second vector set file")
    ov.set_defaults(run=cmd_gen, build=_gen_ov)

    ind = gsub.add_parser(
        "indset",
        help="lock-heavy trace racing iff the graph has a size-c independent set",
    )
    ind.add_argument(
        "--graph", required=True, metavar="PATH", help="edge list file, one 'u v' per line"
    )
    ind.add_argument("--c", required=True, type=int, help="independent set size")
    ind.set_defaults(run=cmd_gen, build=_gen_indset)

    rnd = gsub.add_parser("random", help="seed-deterministic random valid trace")
    rnd.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    rnd.add_argument("--n", type=int, default=20, help="target event count (default 20)")
    rnd.add_argument("--k", type=int, default=3, help="thread count (default 3)")
    rnd.add_argument(
        "--globals", dest="globals_", type=int, default=3, metavar="N",
        help="global location pool (default 3)",
    )
    rnd.add_argument("--locks", type=int, default=1, help="lock pool (default 1)")
    rnd.add_argument(
        "--read-ratio", type=float, default=0.4, help="share of reads (default 0.4)"
    )
    rnd.add_argument(
        "--lock-ratio", type=float, default=0.2,
        help="share of lock operations (default 0.2)",
    )
    rnd.add_argument(
        "--nesting", type=int, default=2, help="deepest lock nesting (default 2)"
    )
    rnd.set_defaults(run=cmd_gen, build=_gen_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:  # no engine fault; devnull keeps the shutdown flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (CliError, TraceError, OracleCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an escaped traceback would exit 1, which means "race"
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
