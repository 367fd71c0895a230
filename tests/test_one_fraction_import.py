"""The library imports `fractions` in one place.

A reflection keeps its mirror as ints and every row is ints over one
denominator, so no computation needs a Fraction; only the values the API
hands out do (`offset`, `coords`, indexing, `rows`, `dot`, `norm_sq`,
`det`), with the strings read in another spelling than the printed one.
``linalg._fraction`` builds each of them and imports `fractions` inside
its body, on its first call, so a command line run that hands out no
Fraction loads neither `fractions` nor the `decimal` and `numbers` it
imports (``tests/test_cli.py::TestColdStart``)."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))


def fraction_imports():
    """(module, enclosing function or "", line) of each import of
    `fractions`, or of a name from it, in the library."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owners.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.add((path.name, owners.get(node, ""), node.lineno))
    return found


def test_only_the_helper_imports_fractions():
    found = sorted(fraction_imports())
    assert [(module, owner) for module, owner, _ in found] == [("linalg.py", "_fraction")]
