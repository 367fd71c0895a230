"""Every module-level private function or class of the library has a user:
its name appears in some library code outside its own definition.  Every
name a library module imports is read in that module."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def private_definitions():
    """(module, name, node) for each module-level _private def or class."""
    return [
        (module, node.name, node)
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def read_names(statement):
    """Every name and attribute read in one top-level statement."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


READS = [
    (statement, read_names(statement))
    for tree in TREES.values()
    for statement in tree.body
]


def names_outside(skip):
    """Every name and attribute read in library code outside node skip."""
    return set().union(*(names for statement, names in READS if statement is not skip))


def test_private_definitions_found():
    assert private_definitions()


@pytest.mark.parametrize(
    "module,name,node",
    [pytest.param(*entry, id=f"{entry[0]}:{entry[1]}") for entry in private_definitions()],
)
def test_private_definition_has_a_user(module, name, node):
    assert name in names_outside(node), f"{module}: {name} is named nowhere else"


def imported_names(tree):
    """Each name an import statement binds, at any depth; ``from __future__``
    imports bind nothing the module reads."""
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def test_every_import_is_read():
    """Every name a library module imports is read in that module; the
    package __init__ imports to re-export."""
    unread = []
    for module, tree in TREES.items():
        if module == "__init__.py":
            continue
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread.extend(
            f"{module}: {name}" for name in imported_names(tree) if name not in loaded
        )
    assert unread == []
