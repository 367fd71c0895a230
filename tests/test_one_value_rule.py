"""Value equality has one definition: ``record.Record`` compares and hashes
the value fields of a class, and every value class of the library takes
both from it.  No other module of the library defines ``__eq__`` or
``__hash__``, by a method or by an assignment."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))
BARRED = {"__eq__", "__hash__"}


def defined_names(tree):
    """(name, line) for each function defined and each name assigned."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [entry for entry in defined_names(tree) if entry[0] in BARRED]


def test_record_defines_equality_and_hash():
    [record] = [path for path in SOURCES if path.name == "record.py"]
    assert sorted(name for name, _ in definitions(record)) == ["__eq__", "__hash__"]


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "record.py"], ids=lambda path: path.name
)
def test_no_other_module_defines_equality_or_hash(path):
    assert definitions(path) == []
