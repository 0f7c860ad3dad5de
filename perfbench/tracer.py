"""Span recorder for the traced run, installed from outside the program.

``Recorder.install`` wraps every public function of each layer module and
rebinds the wrapper on every ``racepred`` module namespace that holds the
original, so calls made through ``from .x import f`` bindings are seen too.
Each call appends one span (name, start, end, parent, decision id) to flat
in-memory arrays; ``save`` writes them out at the end.  A span's self time is
its duration minus the time its child spans cover.

Work counts are read from the layer calls themselves (return values and the
``stats`` dicts the realizability backends fill), never from
``Verdict.stats``, whose counters mean different things on different routes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("trace_model", "orders", "ideal_engine", "realizability", "oracle", "cli")

# A per-event-pair predicate called about a million times by the tree
# resolution loop; wrapping it would mostly measure the wrapper.  Its cost
# stays in the caller's self time.
UNWRAPPED = {"trace_model.conflicting"}

# position of the ``stats`` parameter of the backends that fill one
STATS_ARG = {
    "realizability.realize_general": 1,
    "realizability.realize_tree": 2,
    "realizability.realize_bounded": 2,
}

ROUTES = ("tree", "general", "tree_fallback", "bounded", "same_thread")


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.decision = array("q")
        self._stack: list[int] = []
        self._decisions = 0
        self._decision = -1  # id of the predict call in progress, -1 outside one
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import racepred  # noqa: F401  (loads every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"racepred.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "racepred" and not modname.startswith("racepred."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends = self.name, self.start, self.end
        parents, decisions, stack = self.parent, self.decision, self._stack
        clock = time.perf_counter
        stats_at = STATS_ARG.get(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        is_predict = name == "cli.predict"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_predict:
                outer = self._decision
                self._decision = self._decisions
                self._decisions += 1
                before = self._route_marks()
            stats = None
            if stats_at is not None:
                args, kwargs, stats = _with_stats(args, kwargs, stats_at)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            decisions.append(self._decision)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_predict:
                    self._decision = outer
            if is_predict:
                self._count_route(before, kwargs.get("algo", "auto"))
            if after is not None:
                after(args, result, stats)
            return result

        return wrapper

    # -- work counts ----------------------------------------------------

    def _after_orders_closure(self, args, result, stats) -> None:
        if result is None:
            self.counts["orders.closure.contradictions"] += 1
        else:
            added = len(result.order.edges) - len(args[0].order.edges)
            self.counts["orders.closure.edges_added"] += added

    def _after_ideal_engine_candidate_ideal_set(self, args, result, stats) -> None:
        self.counts["candidate_calls"] += 1
        self.counts["ideal_engine.candidate_ideal_set.ideals"] += len(result)

    def _after_ideal_engine_feasibility(self, args, result, stats) -> None:
        self.counts["ideal_engine.feasibility.feasible"] += bool(result)

    def _after_realizability_realize_general(self, args, result, stats) -> None:
        self.counts["realizability.realize_general.search_nodes"] += stats["search_nodes"]
        self.counts["realizability.realize_general.witnesses"] += result is not None

    def _after_realizability_realize_tree(self, args, result, stats) -> None:
        self.counts["realizability.realize_tree.resolution_edges"] += stats.get(
            "resolution_edges", 0
        )

    def _after_realizability_check_tree_inducible(self, args, result, stats) -> None:
        self.counts["realizability.check_tree_inducible.fallbacks"] += result is None

    def _after_realizability_realize_bounded(self, args, result, stats) -> None:
        self.counts["realizability.realize_bounded.branches"] += stats["branches"]

    def _after_cli_predict(self, args, result, stats) -> None:
        self.counts["cli.predict.ideals_examined"] += result.stats["ideals"]

    def _route_marks(self) -> tuple[int, int, int]:
        c = self.counts
        return c["lcone_calls"], c["candidate_calls"], c[
            "realizability.check_tree_inducible.fallbacks"
        ]

    def _after_ideal_engine_lcone(self, args, result, stats) -> None:
        self.counts["lcone_calls"] += 1

    def _count_route(self, before: tuple[int, int, int], algo: str) -> None:
        """Classify the finished decision by the layer calls it made."""
        lcones, candidates, fallbacks = (
            now - then for now, then in zip(self._route_marks(), before)
        )
        if candidates:
            route = "bounded" if algo == "bounded" else "general"
        elif lcones:
            route = "tree_fallback" if fallbacks else "tree"
        else:
            route = "same_thread"  # the pipeline decided without any layer call
        self.counts[f"cli.route.{route}"] += 1

    # -- results --------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-name (calls, self seconds)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return calls, self_s

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            decision=np.frombuffer(self.decision, dtype=np.int64),
        )


def _with_stats(args: tuple, kwargs: dict, pos: int) -> tuple[tuple, dict, dict]:
    """Make sure a backend gets a stats dict, supplying one if the caller did not."""
    if len(args) > pos:
        stats = args[pos]
        if stats is None:
            stats = {}
            args = args[:pos] + (stats,) + args[pos + 1 :]
        return args, kwargs, stats
    stats = kwargs.get("stats")
    if stats is None:
        stats = {}
        kwargs = {**kwargs, "stats": stats}
    return args, kwargs, stats
