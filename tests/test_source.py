"""Rules on the package source itself, read with ``ast``."""

import ast
from pathlib import Path

import pytest

import racepred

PACKAGE = Path(racepred.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_holds_no_assert_statement(path):
    # ``python -O`` strips asserts, so no check the program relies on may
    # live in one: raise an exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"trace_model.py", "cli.py", "__init__.py"}
