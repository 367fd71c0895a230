"""Count the code lines of Python sources.

A line counts unless it is blank, a comment, or part of a module, class or
function docstring.  A line that holds code and a trailing comment counts;
so does every line of a string that is not a docstring.

    python tools/code_lines.py src/scherk

Arguments are files or directories (searched for ``*.py``).  Standard
library only, so a simplicity claim can be re-counted on any checkout.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def sources(paths: list[str]) -> list[pathlib.Path]:
    found = []
    for name in paths:
        path = pathlib.Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    files = sources(args.paths)
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
