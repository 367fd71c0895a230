"""No library module uses assert: it vanishes under python -O."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"
