"""A move-set below a hyperbolic top has one placement rule:
``poset._place`` cuts its span with the hyperplane of the top's move-set.
The chain read of ``factor`` takes its hyperbolic elements from that rule
alone, so it classifies no suffix and builds no move-set of its own: the
only classification of a read is the target's, by the length check."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).parent.parent / "src" / "scherk" / "factor.py"
TREE = ast.parse(SOURCE.read_text(), filename=str(SOURCE))
BARRED = {"move_set", "classify", "_from_rows"}


def name(node):
    """The name a call or reference uses: ``f`` for f(...), ``attr`` for
    x.attr(...)."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_factor_imports_no_classification():
    imported = {
        alias.asname or alias.name
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported & BARRED == set()


def test_factor_classifies_and_builds_no_move_set():
    called = [
        (name(node.func), node.lineno)
        for node in ast.walk(TREE)
        if isinstance(node, ast.Call)
    ]
    assert [c for c in called if c[0] in BARRED | {"AffineSubspaceV"}] == []


def test_the_read_places_its_move_sets():
    [read] = [
        node
        for node in ast.walk(TREE)
        if isinstance(node, ast.FunctionDef) and node.name == "factorization_to_chain"
    ]
    calls = {name(node.func) for node in ast.walk(read) if isinstance(node, ast.Call)}
    assert "_place" in calls
    assert "Hyperbolic" not in calls
