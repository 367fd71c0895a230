"""A reflection has one normal form, and one method stores it.

Equality of reflections is a compare of the fields root, p and q (the
mirror root . x = p / q), which the chain bijection, the Hurwitz moves and
the output digests rely on.  It is sound because ``Reflection._normalize``
is the only code that writes those fields: the constructor calls it, and
the one private builder that makes a bare instance,
``_reflection_across``, calls it too.  No module computes the primitive
root by itself."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "scherk").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
FIELDS = {"root", "p", "q"}


def enclosing():
    """(module, qualified name of the enclosing definition, node) for every
    node of the library; the name is "" at module level."""
    def walk(node, module, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            yield module, inner, child
            yield from walk(child, module, inner)

    for module, tree in TREES.items():
        yield from walk(tree, module, "")


def field_writers():
    """Where a root, p or q attribute is assigned, deleted or augmented."""
    return {
        (module, name)
        for module, name, node in enclosing()
        if isinstance(node, ast.Attribute)
        and node.attr in FIELDS
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }


def bare_reflections():
    """Where ``<anything>.__new__(Reflection)`` is called."""
    return {
        (module, name)
        for module, name, node in enclosing()
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "__new__"
        and any(getattr(arg, "id", None) == "Reflection" for arg in node.args)
    }


def test_only_normalize_writes_the_fields():
    assert field_writers() == {("isometry.py", "Reflection._normalize")}


def test_only_the_builder_makes_a_bare_reflection():
    assert bare_reflections() == {("isometry.py", "_reflection_across")}


def test_no_module_defines_or_imports_primitive():
    found = []
    for module, name, node in enclosing():
        if isinstance(node, ast.FunctionDef) and node.name == "_primitive":
            found.append(f"{module}: defines {name}")
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "_primitive" for alias in node.names):
                found.append(f"{module}:{node.lineno} imports it")
    assert found == []
