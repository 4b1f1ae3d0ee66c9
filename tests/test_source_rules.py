"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "afshape").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_assert_in_package(path):
    # the solver's invariants are runtime checks: python -O strips assert statements
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


FILE_CALLS = {"open", "read_text", "write_text"}
NOT_CLI = [path for path in SOURCES if path.name != "cli.py"]


def file_access(tree) -> list:
    """Lines that open, read or write a file, or import json."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "json" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", NOT_CLI, ids=[path.name for path in NOT_CLI])
def test_only_cli_touches_files(path):
    # cli is the one module that turns a run into files; the rest only compute
    lines = file_access(ast.parse(path.read_text(), filename=str(path)))
    assert lines == [], f"{path.name} opens, reads or writes a file or imports json on {lines}"


def test_file_access_rule_sees_cli():
    # the rule must find cli's own file code, or it would pass on anything
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert len(file_access(ast.parse(cli.read_text()))) >= 4
