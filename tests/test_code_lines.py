"""``tools/code_lines.py`` counts a line unless it is blank, a comment, or
part of a module, class or function docstring."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
CODE_LINES = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(CODE_LINES)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # counts: code with a trailing comment

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string that is
        not a docstring"""
        return text


async def run():
    "One-line docstring."
    pass
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the two-line string, return, async def, pass
    assert CODE_LINES.code_lines(SNIPPET) == 8


def test_main_prints_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert CODE_LINES.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "9\n"
