"""The mutation catalog (``tools/mutants.py``) still guards the lines it
names: each entry's old text occurs exactly once in its module, its new
text differs, and each of its tests is defined.  ``tools/mutate.py``
runs the mutants; this only keeps the catalog in step with the code."""

import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
MUTANTS = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(MUTANTS)
CATALOG = MUTANTS.CATALOG


def test_ids_are_distinct():
    assert len({entry["id"] for entry in CATALOG}) == len(CATALOG) >= 30


@pytest.mark.parametrize("entry", CATALOG, ids=[entry["id"] for entry in CATALOG])
def test_entry_guards_one_line(entry):
    assert set(entry) == {"id", "module", "old", "new", "tests", "why"}
    text = (ROOT / entry["module"]).read_text(encoding="utf-8")
    assert text.count(entry["old"]) == 1
    assert entry["new"] != entry["old"]
    assert entry["tests"] and entry["why"]
    for node in entry["tests"]:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert f"def {names[-1]}(" in source, node
