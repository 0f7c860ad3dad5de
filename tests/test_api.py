"""The public surface: every exported name resolves."""

import importlib
import pkgutil

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
