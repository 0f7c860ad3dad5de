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


def lines_naming(tree: ast.AST, name: str) -> list[int]:
    """The lines where ``name`` occurs as a name, an attribute or an import."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "trace_model.py"], ids=lambda p: p.name
)
def test_only_trace_model_names_event(path):
    # a trace is built from and read as columns; an Event is the output view
    # trace_model hands out, so no other module builds or reads one
    lines = lines_naming(ast.parse(path.read_text(), filename=str(path)), "Event")
    assert lines == [], f"{path.name} names Event on lines {lines}"


def test_oracle_reads_no_engine_table():
    # the brute-force reference and its witness guard replay a trace with
    # their own code, apart from the engine's down-set table: from
    # trace_model they take only the trace and the query check
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "trace_model"
        for alias in node.names
    ]
    assert imported == ["Trace", "_query_pair"]
    lines = lines_naming(tree, "_table")
    assert lines == [], f"oracle.py names _table on lines {lines}"
