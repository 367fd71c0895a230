"""A subspace is read as its reduced integer rows.

``linalg.LinearSubspace`` stores ``rows`` and ``pivots``: each row is a
tuple of coprime ints, positive at its pivot, and the reduced basis vector
is row / row[pivot].  The elimination passes, the inclusion tests, the
hulls, the intersections, the chain walk and the JSON writer all work on
those rows.  ``basis`` builds a Vector per row on each read, for the API
and the oracles; the library modules that only compute read ``rows``.
"""

import ast
import pathlib

SOURCES = pathlib.Path(__file__).parent.parent / "src" / "scherk"
ROW_READERS = ("affine.py", "factor.py", "jsonio.py")
POSET_ROW_READERS = ("leq", "_meet", "_join", "_sorted")


def basis_reads(tree):
    """The lines where an attribute named ``basis`` is read."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "basis"
    ]


def parse(name):
    path = SOURCES / name
    return ast.parse(path.read_text(), filename=str(path))


def test_row_modules_read_no_basis():
    found = {name: basis_reads(parse(name)) for name in ROW_READERS}
    assert found == {name: [] for name in ROW_READERS}


def test_poset_order_and_bounds_read_no_basis():
    functions = {
        node.name: node
        for node in parse("poset.py").body
        if isinstance(node, ast.FunctionDef)
    }
    found = {name: basis_reads(functions[name]) for name in POSET_ROW_READERS}
    assert found == {name: [] for name in POSET_ROW_READERS}


def test_the_subspace_value_is_its_rows():
    tree = parse("linalg.py")
    (cls,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "LinearSubspace"
    ]
    fields = {
        target.id: ast.literal_eval(node.value)
        for node in cls.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    assert fields["_names"] == ("ambient", "rows")
    assert "basis" not in fields["__slots__"]
