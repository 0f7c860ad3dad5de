"""The public surface: every exported name resolves, and each layer's
``__all__`` is the one list of its public names."""

import importlib
import pkgutil
from collections import Counter

import pytest

import racepred

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(racepred.__path__))


def test_package_exports_resolve():
    missing = [name for name in racepred.__all__ if not hasattr(racepred, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"racepred.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


LAYERS = ("trace_model", "orders", "ideal_engine", "realizability", "oracle")

# the package's exports before each layer's ``__all__`` became the one list
EXPORTED_BEFORE = {
    "Event", "Trace", "TraceError", "TraceParams", "communication_topology",
    "conflicting", "parse_trace", "serialize", "trace_params", "wrap_pair",
    "CycleError", "PartialOrder", "RfPoset", "closure", "compute_trf", "is_closed",
    "Feasibility", "FeasibilityResult", "Ideal", "candidate_ideal_set", "cone",
    "enabled_events", "feasibility", "is_ideal", "lcone", "open_acquires",
    "realize_bounded", "realize_general", "realize_tree", "reversal_count",
    "reversal_pairs", "OracleCapError", "enumerate_correct_reorderings",
    "has_any_race", "min_distance", "oracle_predict", "oracle_witness",
    "verify_witness", "witness_error",
}


def test_package_exports_are_the_layers_exports():
    # each layer's ``__all__`` is the one list of its public names
    exported = racepred.__all__
    assert len(exported) == len(set(exported))
    layers = [importlib.import_module(f"racepred.{name}").__all__ for name in LAYERS]
    homes = Counter(name for layer in layers for name in layer)
    assert set(homes) <= set(exported)
    assert {name: homes[name] for name in exported if homes[name] != 1} == {}


def test_earlier_exports_stay_exported():
    assert len(EXPORTED_BEFORE) == 39
    assert EXPORTED_BEFORE <= set(racepred.__all__)
