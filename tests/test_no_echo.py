"""No input error formats a value with !r: the value can be any length, and
jsonio._quote renders it cut to a bounded number of characters instead."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))
GUARDED = {"FormatError", "CliError"}


def raised_name(node):
    """The name of the exception class a raise statement constructs, if any."""
    if not isinstance(node.exc, ast.Call):
        return None
    func = node.exc.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_repr_in_input_errors(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and raised_name(node) in GUARDED
        for part in ast.walk(node.exc)
        if isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
    ]
    assert not lines, f"{path.name} formats a value with !r in an error on lines {lines}"
