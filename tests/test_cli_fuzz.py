"""Any mutated document ends in a documented exit code, never a traceback,
and a document whose rationals are spelled otherwise gets the same answer.

Seed documents for all ten commands come from tests/data and the golden
files; each example replaces or deletes one to three of their parts, or
respells its rationals, and runs the result through `cli.main` in this
process.
"""

import contextlib
import copy
import io
import json
import pathlib
import re
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from scherk import cli, jsonio

HERE = pathlib.Path(__file__).parent


def _read(name):
    return json.loads((HERE / name).read_text())


def _seeds():
    glide, translation = _read("data/glide.json"), _read("data/translation.json")
    top = _read("data/bowtie_top.json")["top"]
    bowtie = _read("golden/bowtie_plane.json")
    mirror = {"reflections": [{"root": ["1", "0"], "point": ["1", "0"]}]}
    return [
        ("analyze", glide),
        ("analyze", _read("data/rotation.json")),
        ("factorize", translation),
        ("factorize", _read("data/hyperbolic5.json")),
        ("chain", _read("golden/factorize_glide.json")),
        ("chain", _read("golden/factorize_translation.json")),
        ("order", {"p": bowtie["a"], "q": bowtie["c"]}),
        ("order", {"w": translation, "u": mirror}),
        ("order", {"w": glide, "u": glide, "v": glide}),
        ("meet", {"top": top, "p": bowtie["a"], "q": bowtie["b"]}),
        ("join", {"top": top, "p": bowtie["c"], "q": bowtie["d"]}),
        ("bowtie", _read("data/bowtie_top.json")),
        ("lattice", _read("data/bowtie_top.json")),
        ("complete", {"top": top, "elements": [bowtie["c"], bowtie["d"]]}),
        ("hasse", _read("data/bowtie_universe.json")),
    ]


SEEDS = _seeds()
DELETE = object()
JUNK = [
    None, True, 0, 1, 3, -1, 1.5, 10**30, "", "x", "0", "1", "-3/2", "1/0",
    "1e999999999", "1e5000", str(2**jsonio.MAX_BITS), [], [[]], {}, ["1", "0"],
    ["0", "0", "0"], {"kind": "e"}, {"kind": "h", "U": 1}, {"kind": "n", "U": {}},
    {"dim_ambient": 3, "basis": []}, {"dim_ambient": 2, "basis": [["1", "1"]]},
]


def _paths(node, prefix=()):
    """Every position in a JSON tree, as the keys leading to it."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated_documents(draw):
    command, doc = draw(st.sampled_from(SEEDS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        value = draw(st.sampled_from([DELETE, *JUNK, *paths]))
        if isinstance(value, tuple):  # another part of the document
            node = doc
            for key in value:
                node = node[key]
            value = node
        if value is not DELETE:
            value = copy.deepcopy(value)
        if not path:
            doc = {} if value is DELETE else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return command, json.dumps(doc)


def run_main(command, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "-"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_every_document_ends_in_a_documented_exit_code(case):
    code, out, err = run_main(*case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_seeds_are_answered():
    for command, doc in SEEDS:
        code, out, err = run_main(command, json.dumps(doc))
        assert (code, err) == (0, "")
        assert out


PRINTED = re.compile(r"-?[0-9]+(/[0-9]+)?")


def spellings(text):
    """Other spellings of a printed rational that Fraction(str) reads as it."""
    value = Fraction(text)
    sign, body = ("-", text[1:]) if text.startswith("-") else ("", text)
    out = [
        f"{sign}00{body}",  # leading zeros
        f" {text}\t",  # surrounding whitespace
        f"\n{text} ",
        sign + "/".join("_".join(part) for part in body.split("/")),  # "1_2/4_8"
    ]
    if not sign:
        out.append(f"+{text}")
    if value.denominator == 1:
        out.append(value.numerator)  # a JSON int
    for places in range(8):  # decimal forms, when the value has one
        scaled = value * 10**places
        if scaled.denominator == 1:
            whole, fraction = divmod(abs(scaled.numerator), 10**places)
            point = f"{sign}{whole}.{fraction:0{places}d}"
            out += [point, f"{point}0E+0", f"{scaled.numerator}e-{places}"]
            break
    return out


@st.composite
def respelled_documents(draw):
    command, doc = draw(st.sampled_from(SEEDS))

    def respell(node):
        if isinstance(node, dict):
            return {key: respell(value) for key, value in node.items()}
        if isinstance(node, list):
            return [respell(value) for value in node]
        if isinstance(node, str) and PRINTED.fullmatch(node):
            return draw(st.sampled_from(spellings(node)))
        return node

    return command, json.dumps(doc), json.dumps(respell(doc))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(respelled_documents())
def test_respelled_rationals_give_the_same_answer(case):
    command, canonical, respelled = case
    assert run_main(command, respelled) == run_main(command, canonical)


def test_every_respelling_reads_as_the_printed_text():
    for text in ["0", "7", "-7", "12", "-37/48", "5/8", "-1/2", "1/3"]:
        for spelling in spellings(text):
            assert jsonio.vector_from_json([spelling])[0] == Fraction(text), spelling
