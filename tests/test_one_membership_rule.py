"""Membership in a model poset has one home: ``PosetContext.contains`` is
the only library code that compares an element with a top through
``leq``.  Every check below a top (the bounds, the bowtie search, hasse
and the curated universes) then runs the same rule and shares its memo."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def named(node, name):
    """Whether node is the name or an attribute of that name."""
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def is_leq_to_top(node):
    """Whether node is a call leq(p, top) or leq(p, <expr>.top)."""
    if not isinstance(node, ast.Call) or len(node.args) != 2:
        return False
    return named(node.func, "leq") and named(node.args[1], "top")


def home(tree):
    """The nodes inside PosetContext.contains, if the module defines it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PosetContext":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "contains":
                    return set(map(id, ast.walk(item)))
    return set()


def membership_calls():
    """(module, line, inside contains) for each leq(..., top) call."""
    calls = []
    for module, tree in TREES.items():
        inside = home(tree)
        calls.extend(
            (module, node.lineno, id(node) in inside)
            for node in ast.walk(tree)
            if is_leq_to_top(node)
        )
    return calls


def test_contains_compares_with_the_top():
    assert any(inside for _, _, inside in membership_calls())


def test_no_membership_check_outside_contains():
    calls = membership_calls()
    assert [f"{module}:{line}" for module, line, inside in calls if not inside] == []
