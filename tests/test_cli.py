"""Command line behavior: golden outputs, round trips, exit codes."""

import argparse
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scherk import cli, jsonio, poset
from scherk.factor import ChainError, chain_to_factorization
from scherk.isometry import Reflection
from scherk.linalg import LinearSubspace, Vector

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run_cli(*argv, stdin=None, timeout=None):
    result = subprocess.run(
        [sys.executable, "-m", "scherk.cli", *argv],
        capture_output=True,
        input=stdin,
        text=True,
        timeout=timeout,
    )
    return result


GOLDEN_CASES = [
    (("analyze", str(DATA / "glide.json"), "--seed", "0"), "analyze_glide.json"),
    (
        ("analyze", str(DATA / "translation.json"), "--seed", "0"),
        "analyze_translation.json",
    ),
    (
        ("analyze", str(DATA / "rotation.json"), "--seed", "0"),
        "analyze_rotation.json",
    ),
    (
        ("factorize", str(DATA / "glide.json"), "--seed", "0"),
        "factorize_glide.json",
    ),
    (
        ("factorize", str(DATA / "translation.json"), "--seed", "0"),
        "factorize_translation.json",
    ),
    (
        ("hasse", str(DATA / "bowtie_universe.json"), "--seed", "0"),
        "hasse_bowtie.dot",
    ),
    (
        ("bowtie", str(DATA / "bowtie_top.json"), "--seed", "0"),
        "bowtie_plane.json",
    ),
    (
        ("factorize", str(DATA / "hyperbolic5.json"), "--seed", "0"),
        "factorize_hyperbolic5.json",
    ),
    (
        ("hasse", str(DATA / "bowtie_universe.json"), "--format", "json"),
        "hasse_bowtie.json",
    ),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("argv,golden", GOLDEN_CASES)
    def test_output_is_byte_stable(self, argv, golden):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout == (GOLDEN / golden).read_text()

    def test_expected_headline_values(self):
        glide = json.loads(run_cli("analyze", str(DATA / "glide.json")).stdout)
        assert (glide["tag"], glide["length"]) == ("hyperbolic", 3)
        translation = json.loads(
            run_cli("analyze", str(DATA / "translation.json")).stdout
        )
        assert (translation["tag"], translation["length"]) == ("hyperbolic", 2)
        rotation = json.loads(run_cli("analyze", str(DATA / "rotation.json")).stdout)
        assert (rotation["tag"], rotation["length"]) == ("elliptic", 2)

    def test_hasse_has_bowtie_shape(self):
        dot = (GOLDEN / "hasse_bowtie.dot").read_text()
        assert dot.count("->") == 8
        assert dot.count("label") == 6


class TestRoundTrips:
    def test_analyze_parses_its_own_isometry_output(self):
        report = json.loads(run_cli("analyze", str(DATA / "glide.json")).stdout)
        again = run_cli(
            "analyze", "-", stdin=json.dumps(report["splitting"]["elliptic"])
        )
        assert again.returncode == 0
        parsed = json.loads(again.stdout)
        assert parsed["tag"] == "elliptic"
        assert parsed["length"] == 1

    def test_factorize_chain_round_trip(self):
        factorization = run_cli("factorize", str(DATA / "translation.json")).stdout
        chain = run_cli("chain", "-", stdin=factorization)
        assert chain.returncode == 0
        payload = json.loads(chain.stdout)
        assert len(payload["chain"]) == 3
        kinds = [el["kind"] for el in payload["chain"]]
        assert kinds == ["h", "e", "e"]

    def test_factorize_with_explicit_chain_file(self, tmp_path):
        factorization = run_cli("factorize", str(DATA / "translation.json")).stdout
        chain = run_cli("chain", "-", stdin=factorization).stdout
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(chain)
        redone = run_cli(
            "factorize", str(DATA / "translation.json"), "--chain", str(chain_file)
        )
        assert redone.returncode == 0
        assert redone.stdout == factorization

    def test_seeded_factorize_is_stable_and_minimal(self):
        one = run_cli("factorize", str(DATA / "glide.json"), "--seed", "7")
        two = run_cli("factorize", str(DATA / "glide.json"), "--seed", "7")
        assert one.returncode == 0
        assert one.stdout == two.stdout
        payload = json.loads(one.stdout)
        assert len(payload["factors"]) == 3


class TestOtherCommands:
    def test_order_interval_queries(self):
        w = json.loads((DATA / "translation.json").read_text())
        mirror = {"reflections": [{"root": ["1", "0"], "point": ["1", "0"]}]}
        doc = json.dumps({"w": w, "u": mirror})
        result = run_cli("order", "-", stdin=doc)
        assert json.loads(result.stdout) == {"contains": True}

    def test_order_element_queries(self):
        bottom = {
            "kind": "e",
            "point": ["0", "0"],
            "direction": {"dim_ambient": 2, "basis": [["1", "0"], ["0", "1"]]},
        }
        top = {"kind": "h", "U": {"dim_ambient": 2, "basis": []}, "mu": ["2", "0"]}
        result = run_cli("order", "-", stdin=json.dumps({"p": bottom, "q": top}))
        assert json.loads(result.stdout) == {"leq": True}

    def test_lattice_command(self):
        doc = (DATA / "bowtie_top.json").read_text()
        result = run_cli("lattice", "-", stdin=doc)
        assert json.loads(result.stdout) == {"lattice": False}
        augmented = run_cli("lattice", "-", "--augmented", stdin=doc)
        assert json.loads(augmented.stdout) == {"lattice": True}

    def test_meet_join_and_complete(self):
        top = json.loads((DATA / "bowtie_top.json").read_text())["top"]
        bowtie = json.loads((GOLDEN / "bowtie_plane.json").read_text())
        doc = json.dumps({"top": top, "p": bowtie["a"], "q": bowtie["b"]})
        plain = run_cli("meet", "-", stdin=doc)
        assert json.loads(plain.stdout)["meet"]["kind"] == "family"
        augmented = run_cli("meet", "-", "--augmented", stdin=doc)
        assert json.loads(augmented.stdout)["meet"]["kind"] == "n"
        doc_cd = json.dumps(
            {"top": top, "elements": [bowtie["c"], bowtie["d"]]}
        )
        completed = run_cli("complete", "-", stdin=doc_cd)
        payload = json.loads(completed.stdout)
        assert payload["join"]["kind"] == "n"
        assert payload["meet"]["kind"] == "e"

    def test_hasse_json_format(self):
        result = run_cli(
            "hasse", str(DATA / "bowtie_universe.json"), "--format", "json"
        )
        payload = json.loads(result.stdout)
        assert len(payload["nodes"]) == 6
        assert len(payload["edges"]) == 8

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_hasse_builds_the_graph_once(self, monkeypatch, capsys, fmt):
        calls = []
        covering_pairs = poset.covering_pairs

        def counted(elements):
            calls.append(len(elements))
            return covering_pairs(elements)

        monkeypatch.setattr(poset, "covering_pairs", counted)
        argv = ["hasse", str(DATA / "bowtie_universe.json"), "--format", fmt]
        assert cli.main(argv) == 0
        assert calls == [6]
        if fmt == "dot":
            assert capsys.readouterr().out == (GOLDEN / "hasse_bowtie.dot").read_text()

    def test_hasse_cover_compares_only_pairs_of_increasing_rank(
        self, monkeypatch, capsys
    ):
        """13 of the 30 ordered pairs of the six bowtie nodes rise in rank."""
        leq, covering_pairs = poset.leq, poset.covering_pairs
        inside, calls = [], []

        def counted_leq(p, q):
            calls.append(bool(inside))
            return leq(p, q)

        def counted_cover(elements):
            inside.append(True)
            try:
                return covering_pairs(elements)
            finally:
                inside.pop()

        monkeypatch.setattr(poset, "leq", counted_leq)
        monkeypatch.setattr(poset, "covering_pairs", counted_cover)
        argv = ["hasse", str(DATA / "bowtie_universe.json"), "--format", "json"]
        assert cli.main(argv) == 0
        assert calls.count(True) == 13
        assert capsys.readouterr().out == (GOLDEN / "hasse_bowtie.json").read_text()


# `analyze tests/data/glide.json --format text`, byte for byte.
ANALYZE_GLIDE_TEXT = """\
dim: 2
length: 3
min_set: {"direction": {"basis": [["1", "0"]], "dim_ambient": 2}, \
"kind": "affineE", "point": ["0", "0"]}
move_set: {"U": {"basis": [["0", "1"]], "dim_ambient": 2}, \
"kind": "affineV", "mu": ["1", "0"]}
splitting: {"elliptic": {"dim": 2, "matrix": [["1", "0"], ["0", "-1"]], \
"translation": ["0", "0"]}, "mu": ["1", "0"]}
tag: "hyperbolic"
"""


class TestTextFormat:
    """--format text writes one `key: value` line per sorted key, each value
    as json.dumps(value, sort_keys=True) writes it."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("analyze", str(DATA / "glide.json")), ANALYZE_GLIDE_TEXT),
            (("lattice", str(DATA / "bowtie_top.json")), "lattice: false\n"),
        ],
        ids=["analyze", "lattice"],
    )
    def test_output_is_pinned(self, argv, expected, capsys):
        assert cli.main([*argv, "--format", "text"]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", str(DATA / "rotation.json")),
            ("factorize", str(DATA / "glide.json")),
            ("bowtie", str(DATA / "bowtie_top.json")),
            ("lattice", str(DATA / "bowtie_top.json"), "--augmented"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_lines_are_the_json_payload(self, argv, capsys):
        assert cli.main([*argv, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert cli.main(list(argv)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert text == "".join(
            f"{key}: {json.dumps(payload[key], sort_keys=True)}\n"
            for key in sorted(payload)
        )


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", str(DATA / "glide.json"), "--format", "dot"),
            ("hasse", str(DATA / "bowtie_universe.json"), "--format", "text"),
        ],
    )
    def test_format_the_command_lacks_is_a_usage_error(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "invalid choice" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("hasse", str(DATA / "bowtie_universe.json"), "--dim", "7"),
            ("analyze", str(DATA / "glide.json"), "--chain", "missing.json"),
            ("complete", str(DATA / "bowtie_top.json"), "--augmented"),
        ],
    )
    def test_flag_the_command_lacks_is_a_usage_error(self, argv):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "unrecognized arguments" in result.stderr

    def test_malformed_json_is_one(self):
        result = run_cli("analyze", "-", stdin="not json")
        assert result.returncode == 1
        assert result.stdout == ""

    def test_non_orthogonal_matrix_is_two(self):
        doc = json.dumps(
            {"dim": 2, "matrix": [["1", "0"], ["0", "2"]], "translation": ["0", "0"]}
        )
        result = run_cli("analyze", "-", stdin=doc)
        assert result.returncode == 2
        assert "orthogonal" in result.stderr

    def test_invalid_chain_is_three(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(
            json.dumps(
                {
                    "chain": [
                        {
                            "kind": "e",
                            "point": ["0", "0"],
                            "direction": {
                                "dim_ambient": 2,
                                "basis": [["1", "0"], ["0", "1"]],
                            },
                        }
                    ]
                }
            )
        )
        result = run_cli(
            "factorize", str(DATA / "translation.json"), "--chain", str(chain_file)
        )
        assert result.returncode == 3

    def test_non_descending_chain_is_three(self, tmp_path):
        """The ranks drop by one, but the line x = 1 misses the fixed point
        of the half-turn, so the walk cannot land on it."""
        chain = [
            {"kind": "e", "point": point, "direction": {"dim_ambient": 2, "basis": basis}}
            for point, basis in [
                (["0", "0"], []),
                (["1", "0"], [["0", "1"]]),
                (["0", "0"], [["1", "0"], ["0", "1"]]),
            ]
        ]
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"chain": chain}))
        result = run_cli(
            "factorize", str(DATA / "rotation.json"), "--chain", str(chain_file)
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1

    def test_element_above_declared_top_is_three(self):
        doc = json.dumps(
            {
                "top": {
                    "kind": "e",
                    "point": ["0", "0"],
                    "direction": {"dim_ambient": 2, "basis": [["1", "0"]]},
                },
                "elements": [
                    {
                        "kind": "h",
                        "U": {"dim_ambient": 2, "basis": []},
                        "mu": ["2", "0"],
                    }
                ],
            }
        )
        result = run_cli("hasse", "-", stdin=doc)
        assert result.returncode == 3

    def test_top_direction_as_a_hasse_node_is_three(self):
        """n^{Dir M} is in no poset under h^M, augmented or not."""
        line = {"dim_ambient": 2, "basis": [["1", "0"]]}
        doc = json.dumps(
            {
                "top": {"kind": "h", "U": line, "mu": ["0", "1"]},
                "elements": [{"kind": "n", "U": line}],
            }
        )
        result = run_cli("hasse", "-", stdin=doc)
        assert result.returncode == 3
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_dim_flag_mismatch_is_two(self):
        result = run_cli("analyze", str(DATA / "glide.json"), "--dim", "3")
        assert result.returncode == 2


class TestMalformedShapes:
    """Wrong JSON types exit 1 with one stderr line, never a traceback."""

    def assert_parse_error(self, result):
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")

    def test_string_dim_in_reflections_form(self):
        doc = json.dumps(
            {"dim": "2", "reflections": [{"root": ["1", "0"], "point": ["0", "0"]}]}
        )
        self.assert_parse_error(run_cli("analyze", "-", stdin=doc))

    def test_null_factors(self):
        target = json.loads((DATA / "translation.json").read_text())
        doc = json.dumps({"target": target, "factors": None})
        self.assert_parse_error(run_cli("chain", "-", stdin=doc))

    def test_non_list_elements(self):
        top = {"kind": "h", "U": {"dim_ambient": 2, "basis": []}, "mu": ["2", "0"]}
        for command in ("complete", "hasse"):
            doc = json.dumps({"top": top, "elements": 7})
            self.assert_parse_error(run_cli(command, "-", stdin=doc))

    def test_non_list_chain(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"chain": 7}))
        result = run_cli(
            "factorize", str(DATA / "translation.json"), "--chain", str(chain_file)
        )
        self.assert_parse_error(result)

    def test_chain_file_without_chain(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"links": []}))
        result = run_cli(
            "factorize", str(DATA / "translation.json"), "--chain", str(chain_file)
        )
        self.assert_parse_error(result)

    def test_non_list_basis(self):
        doc = json.dumps(
            {
                "top": {"kind": "h", "U": {"dim_ambient": 2, "basis": 1}, "mu": ["2", "0"]},
                "elements": [],
            }
        )
        self.assert_parse_error(run_cli("complete", "-", stdin=doc))


Y_AXIS = {"dim_ambient": 2, "basis": [["0", "1"]]}
GLIDE_INV = {"kind": "h", "U": Y_AXIS, "mu": ["1", "0"]}
LINE_NEW = {"kind": "n", "U": Y_AXIS}
PLANE = {
    "kind": "e",
    "point": ["0", "0"],
    "direction": {"dim_ambient": 2, "basis": [["1", "0"], ["0", "1"]]},
}
IDENTITY_2 = {"dim": 2, "matrix": [["1", "0"], ["0", "1"]], "translation": ["0", "0"]}
MIRROR_1 = {"root": ["1"], "point": ["0"]}


class TestShapeErrors:
    """A chain or document of the wrong shape raises in the library, and
    `main` exits with its code and prints its one message line."""

    @pytest.mark.parametrize(
        "chain,message",
        [
            ([], "empty chain"),
            ([GLIDE_INV], "chain must end at the full-space element"),
            (
                [GLIDE_INV, LINE_NEW, PLANE],
                "chains contain only elliptic and hyperbolic elements",
            ),
        ],
        ids=["empty", "no-bottom", "new-element"],
    )
    def test_chain_shape_exits_three(self, chain, message, tmp_path, capsys):
        glide = DATA / "glide.json"
        w = jsonio.isometry_from_json(json.loads(glide.read_text()))
        with pytest.raises(ChainError, match=f"^{message}$"):
            chain_to_factorization(jsonio.elements_from_json(chain), w)
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"chain": chain}))
        assert cli.main(["factorize", str(glide), "--chain", str(chain_file)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command,decode,doc,message",
        [
            (
                "analyze",
                jsonio.isometry_from_json,
                {"matrix": [], "translation": []},
                "matrix must have a row",
            ),
            (
                "analyze",
                jsonio.isometry_from_json,
                {"reflections": [MIRROR_1, {"root": ["1", "0"], "point": ["0", "0"]}]},
                "reflections of mixed dimensions [1, 2]",
            ),
            (
                "analyze",
                jsonio.isometry_from_json,
                {"dim": 2, "reflections": [MIRROR_1]},
                "reflections of mixed dimensions [1, 2]",
            ),
            (
                "analyze",
                jsonio.isometry_from_json,
                {**IDENTITY_2, "dim": 3},
                "declared dim does not match the translation",
            ),
            (
                "chain",
                jsonio.factorization_from_json,
                {"target": IDENTITY_2, "factors": [MIRROR_1]},
                "factorization of mixed dimensions [1, 2]",
            ),
        ],
        ids=[
            "no-row",
            "mixed-mirrors",
            "declared-mirrors",
            "declared-dim",
            "mixed-factors",
        ],
    )
    def test_document_shape_exits_one(
        self, command, decode, doc, message, monkeypatch, capsys
    ):
        with pytest.raises(jsonio.FormatError) as raised:
            decode(doc)
        assert str(raised.value) == message
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert cli.main([command, "-"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


LONG = "x" * 200_000
POINT_TOP = {"kind": "h", "U": {"dim_ambient": 2, "basis": []}, "mu": ["2", "0"]}
# Mirrors in each of the dimensions 1 to 80.
MIRRORS = [{"root": ["1"] + ["0"] * n, "point": ["0"] * (n + 1)} for n in range(80)]


def long_translation(entry):
    """An isometry of the plane whose translation is entry."""
    return {"dim": 2, "matrix": [["1", "0"], ["0", "1"]], "translation": entry}


class TestBoundedErrors:
    """An error quotes a bounded part of the input, however long it is."""

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("analyze", {"dim": LONG, "reflections": []}),
            ("analyze", long_translation([[LONG], "0"])),
            ("analyze", long_translation({"x": LONG})),
            ("analyze", long_translation([LONG, "0"])),
            ("lattice", {"top": {**POINT_TOP, "U": {"dim_ambient": 2, "basis": LONG}}}),
            ("chain", {"target": long_translation(["0", "0"]), "factors": LONG}),
            ("lattice", {"top": {"kind": LONG}}),
            ("complete", {"top": POINT_TOP, "elements": LONG}),
            ("analyze", {"reflections": MIRRORS}),
        ],
        ids=["dim", "scalar", "vector", "rational", "basis", "factors", "kind",
             "elements", "dims"],
    )
    def test_error_line_is_short(self, command, doc):
        result = run_cli(command, "-", stdin=json.dumps(doc))
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.encode()) <= 200


IDENTITY_3 = {
    "dim": 3,
    "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "translation": ["0", "0", "0"],
}


class TestDimensionMismatch:
    """Inputs mixing ambient dimensions end in a documented exit code."""

    def assert_exits(self, result, code):
        assert result.returncode == code
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_factor_of_another_dimension_is_one(self):
        target = json.loads((DATA / "translation.json").read_text())
        factors = [
            {"root": ["1", "0", "0"], "point": ["1", "0", "0"]},
            {"root": ["1", "0"], "point": ["0", "0"]},
        ]
        doc = json.dumps({"target": target, "factors": factors})
        self.assert_exits(run_cli("chain", "-", stdin=doc), 1)

    def test_chain_entry_of_another_dimension_is_three(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain = [
            {"kind": "h", "U": {"dim_ambient": 2, "basis": []}, "mu": ["2", "0"]},
            {
                "kind": "e",
                "point": ["0", "0", "0"],
                "direction": {"dim_ambient": 3, "basis": [["0", "1", "0"], ["0", "0", "1"]]},
            },
            {
                "kind": "e",
                "point": ["0", "0"],
                "direction": {"dim_ambient": 2, "basis": [["1", "0"], ["0", "1"]]},
            },
        ]
        chain_file.write_text(json.dumps({"chain": chain}))
        result = run_cli(
            "factorize", str(DATA / "translation.json"), "--chain", str(chain_file)
        )
        self.assert_exits(result, 3)

    @pytest.mark.parametrize("keys", [("w", "u"), ("w", "u", "v")])
    def test_order_of_isometries_of_mixed_dimensions_is_two(self, keys):
        translation = json.loads((DATA / "translation.json").read_text())
        doc = {key: translation for key in keys}
        doc[keys[-1]] = IDENTITY_3
        self.assert_exits(run_cli("order", "-", stdin=json.dumps(doc)), 2)


# A subspace of the largest ambient dimension a document may declare, with
# no basis, beside elements with 3 coordinates: the dimension mismatch must
# be found before any work that grows with the declared dimension.
HUGE = {"dim_ambient": jsonio.MAX_DIM, "basis": []}
HUGE_POINT = {"kind": "e", "point": ["0", "0", "0"], "direction": HUGE}
PLANE_TOP = {
    "kind": "h",
    "U": {"dim_ambient": 3, "basis": [["1", "0", "0"], ["0", "1", "0"]]},
    "mu": ["0", "0", "1"],
}
ORIGIN = {
    "kind": "e",
    "point": ["0", "0", "0"],
    "direction": {"dim_ambient": 3, "basis": []},
}


class TestHugeAmbientDimension:
    @pytest.mark.parametrize(
        "command,doc",
        [
            ("order", {"p": HUGE_POINT, "q": PLANE_TOP}),
            ("meet", {"top": PLANE_TOP, "p": HUGE_POINT, "q": ORIGIN}),
            ("lattice", {"top": {"kind": "h", "U": HUGE, "mu": ["0", "0", "1"]}}),
            ("hasse", {"top": PLANE_TOP, "elements": [ORIGIN, HUGE_POINT]}),
        ],
    )
    def test_mismatch_exits_three_promptly(self, command, doc):
        result = run_cli(command, "-", stdin=json.dumps(doc), timeout=20)
        assert result.returncode == 3
        assert "Traceback" not in result.stderr


def run_capped_cli(*argv, stdin):
    """run_cli with a 1 GiB address-space cap on the child process only."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run(
        [sys.executable, "-m", "scherk.cli", *argv],
        capture_output=True,
        input=stdin,
        text=True,
        timeout=20,
        preexec_fn=cap,
    )


BEYOND = {"dim_ambient": 10**30, "basis": []}


class TestDimensionLimit:
    """Documents over the ambient-dimension limit are malformed (exit 1).

    They run in a child with capped memory and a timeout, so a limit that
    stopped working fails the test instead of exhausting the machine.
    """

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("analyze", {"dim": 10**9, "reflections": []}),
            ("factorize", {"dim": jsonio.MAX_DIM + 1, "reflections": []}),
            ("order", {"p": {**HUGE_POINT, "direction": BEYOND}, "q": PLANE_TOP}),
            ("lattice", {"top": {"kind": "h", "U": BEYOND, "mu": ["0", "0", "1"]}}),
            ("hasse", {"top": PLANE_TOP, "elements": [{"kind": "n", "U": BEYOND}]}),
        ],
    )
    def test_over_the_limit_exits_one(self, command, doc):
        result = run_capped_cli(command, "-", stdin=json.dumps(doc))
        assert result.returncode == 1
        assert "exceeds the limit" in result.stderr
        assert "Traceback" not in result.stderr

    def test_dimension_too_long_to_convert_exits_one(self):
        doc = '{"dim": 1' + "0" * 5000 + ', "reflections": []}'
        result = run_capped_cli("analyze", "-", stdin=doc)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr

    def test_long_translation_exits_one(self):
        doc = {"dim": 2, "matrix": [["1", "0"], ["0", "1"]], "translation": [0] * 10**6}
        result = run_capped_cli("analyze", "-", stdin=json.dumps(doc))
        assert result.returncode == 1
        assert "longer than the dimension limit" in result.stderr


def assert_malformed(result):
    """Exit 1 with nothing on stdout and one `error:` line on stderr."""
    assert result.returncode == 1
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


class TestUnreadableInput:
    def test_file_that_is_not_utf8_exits_one(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
        assert_malformed(run_cli("analyze", str(binary), timeout=20))

    def test_deep_nesting_exits_one(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        assert_malformed(run_cli("analyze", str(deep), timeout=20))


def translation_doc(x):
    doc = {"dim": 2, "matrix": [["1", "0"], ["0", "1"]], "translation": [x, "0"]}
    return json.dumps(doc)


class TestBitLimit:
    """Rationals over jsonio.MAX_BITS exit 1 before their value is built."""

    @pytest.mark.parametrize("scalar", ["1e999999999", "1e5000"])
    def test_over_the_limit_exits_one_promptly(self, scalar):
        result = run_capped_cli("analyze", "-", stdin=translation_doc(scalar))
        assert_malformed(result)
        assert f"limit of {jsonio.MAX_BITS} bits" in result.stderr

    def test_at_the_limit_is_analyzed(self):
        largest = str(2**jsonio.MAX_BITS - 1)
        result = run_capped_cli("analyze", "-", stdin=translation_doc(largest))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert (report["tag"], report["length"]) == ("hyperbolic", 2)
        assert report["splitting"]["mu"] == [largest, "0"]


    def test_at_the_limit_is_analyzed_entry_by_entry(self):
        """A JSON int is read by the per-entry reading, which holds the
        same limit as a printed row."""
        largest = 2**jsonio.MAX_BITS - 1
        doc = {"dim": 2, "matrix": [["1", "0"], ["0", "1"]], "translation": [largest, 0]}
        result = run_capped_cli("analyze", "-", stdin=json.dumps(doc))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["splitting"]["mu"] == [str(largest), "0"]


def staircase_top(n, rows, big):
    """h^M in dimension n whose direction is spanned by e_i + big e_(i+1)
    for i < rows, shifted by e_(n-1): its reduced basis has entries near
    big^rows."""
    basis = []
    for i in range(rows):
        row = ["0"] * n
        row[i], row[i + 1] = "1", str(big)
        basis.append(row)
    mu = ["0"] * (n - 1) + ["1"]
    return {"kind": "h", "U": {"dim_ambient": n, "basis": basis}, "mu": mu}


class TestAnswerBound:
    """An answer with a rational Python cannot write as text exits 1 with
    one `error:` line before anything reaches stdout."""

    BIG = 2**jsonio.MAX_BITS - 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unprintable_bowtie_exits_one(self, fmt):
        basis = [["1", "0", f"1/{self.BIG}"], ["0", "1", str(self.BIG)]]
        mu = ["0", "0", "1"]
        top = {"kind": "h", "U": {"dim_ambient": 3, "basis": basis}, "mu": mu}
        doc = json.dumps({"top": top})
        result = run_capped_cli("bowtie", "-", "--format", fmt, stdin=doc)
        assert_malformed(result)
        assert "too long to print" in result.stderr
        assert "Traceback" not in result.stderr

    def test_every_encoder_raises_format_error(self):
        huge = Fraction(10**5000, 3)
        v = Vector([huge, Fraction(0)])
        with pytest.raises(jsonio.FormatError):
            jsonio.vector_to_json(v)
        with pytest.raises(jsonio.FormatError):
            jsonio.subspace_to_json(LinearSubspace(2, [Vector([Fraction(1), huge])]))
        with pytest.raises(jsonio.FormatError):
            jsonio.reflection_to_json(Reflection(v, Fraction(1)))

    def test_element_too_long_to_name_exits_three(self):
        # The rejected element's coordinates are over the digit limit, so
        # the error names it by kind and dimension.
        line = staircase_top(9, 1, 1)
        doc = {"top": line, "p": staircase_top(9, 7, self.BIG), "q": line}
        result = run_capped_cli("meet", "-", stdin=json.dumps(doc))
        assert result.returncode == 3
        assert result.stdout == ""
        expected = "error: element (h dim=7) is not below the top\n"
        assert result.stderr == expected


# What `fractions` imports; a command line run needs none of them.
FRACTION_MODULES = {"fractions", "decimal", "_decimal", "numbers"}


def bowtie_pair():
    """The bowtie top and the first two elements of its bowtie."""
    top = json.loads((DATA / "bowtie_top.json").read_text())["top"]
    bowtie = json.loads((GOLDEN / "bowtie_plane.json").read_text())
    return {"top": top, "p": bowtie["a"], "q": bowtie["b"]}


def glide_and_mirror():
    """The glide and the reflection across x = 1/2, one of its factors."""
    w = json.loads((DATA / "glide.json").read_text())
    mirror = {"reflections": [{"root": ["1", "0"], "point": ["1/2", "0"]}]}
    return {"w": w, "u": mirror}


# One plain line per command: its input, a file of tests/data or golden (the
# factorization `chain` reads) or a document made from them, and its golden
# output, if any.
PLAIN_RUNS = [
    ("analyze", DATA / "glide.json", "analyze_glide.json"),
    ("factorize", DATA / "hyperbolic5.json", "factorize_hyperbolic5.json"),
    ("chain", GOLDEN / "factorize_glide.json", None),
    ("order", glide_and_mirror(), None),
    ("meet", bowtie_pair(), None),
    ("join", bowtie_pair(), None),
    ("bowtie", DATA / "bowtie_top.json", "bowtie_plane.json"),
    ("lattice", DATA / "bowtie_top.json", None),
    ("complete", DATA / "bowtie_universe.json", None),
    ("hasse", DATA / "bowtie_universe.json", "hasse_bowtie.dot"),
]


def imports(*argv):
    """The run of `python -X importtime *argv` and the modules it imported."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
        timeout=60,
    )
    lines = result.stderr.splitlines()
    return result, {line.rsplit("|", 1)[-1].strip() for line in lines}


class TestColdStart:
    def cli_imports(self):
        # New modules only: the interpreter's own start-up (site hooks
        # included) may load anything.
        probe = (
            "import sys; before = set(sys.modules); import scherk.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "scherk.cli" in loaded
        return loaded

    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        assert not self.cli_imports() & {"dataclasses", "inspect"}

    def test_cli_imports_no_fractions(self):
        assert not self.cli_imports() & FRACTION_MODULES

    @pytest.mark.parametrize(
        "command,source,golden", PLAIN_RUNS, ids=[run[0] for run in PLAIN_RUNS]
    )
    def test_plain_run_loads_no_fractions(self, command, source, golden, tmp_path):
        path = source
        if isinstance(source, dict):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(source))
        _, bare = imports("-c", "pass")
        result, loaded = imports("-m", "scherk.cli", command, str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout
        if golden is not None:
            assert result.stdout == (GOLDEN / golden).read_text()
        assert "scherk.linalg" in loaded
        assert not (loaded - bare) & FRACTION_MODULES


COMMANDS = "{analyze,factorize,chain,order,meet,join,bowtie,lattice,complete,hasse}"
USAGE = f"usage: scherk [-h]\n              {COMMANDS}\n              ...\n"
ANALYZE_USAGE = (
    "usage: scherk analyze [-h] [--seed SEED] [--format {json,text}] [--dim DIM]\n"
    "                      [input]\n"
)
TOP_HELP = USAGE + (
    "\n"
    "Exact reflection lengths, minimal reflection factorizations, and interval\n"
    "posets for euclidean isometries.\n"
    "\n"
    "positional arguments:\n"
    f"  {COMMANDS}\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
ANALYZE_HELP = ANALYZE_USAGE + (
    "\n"
    "positional arguments:\n"
    "  input                 JSON file or - for stdin\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --seed SEED\n"
    "  --format {json,text}\n"
    "  --dim DIM\n"
)

# Each command's help, as `scherk <command> -h` prints it at 80 columns.
COMMAND_HELP = {
    "analyze": ANALYZE_HELP,
    "factorize": (
        "usage: scherk factorize [-h] [--seed SEED] [--format {json,text}] "
        "[--dim DIM]\n"
        "                        [--chain FILE]\n"
        "                        [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
        "  --dim DIM\n"
        "  --chain FILE\n"
    ),
    "chain": (
        "usage: scherk chain [-h] [--seed SEED] [--format {json,text}] [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
    ),
    "order": (
        "usage: scherk order [-h] [--seed SEED] [--format {json,text}] [--dim DIM]\n"
        "                    [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
        "  --dim DIM\n"
    ),
    "meet": (
        "usage: scherk meet [-h] [--seed SEED] [--format {json,text}] [--augmented]\n"
        "                   [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
        "  --augmented\n"
    ),
    "join": (
        "usage: scherk join [-h] [--seed SEED] [--format {json,text}] [--augmented]\n"
        "                   [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
        "  --augmented\n"
    ),
    "bowtie": (
        "usage: scherk bowtie [-h] [--seed SEED] [--format {json,text}] [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
    ),
    "lattice": (
        "usage: scherk lattice [-h] [--seed SEED] [--format {json,text}] "
        "[--augmented]\n"
        "                      [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
        "  --augmented\n"
    ),
    "complete": (
        "usage: scherk complete [-h] [--seed SEED] [--format {json,text}] [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                 JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {json,text}\n"
    ),
    "hasse": (
        "usage: scherk hasse [-h] [--seed SEED] [--format {dot,json}] [input]\n"
        "\n"
        "positional arguments:\n"
        "  input                JSON file or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --seed SEED\n"
        "  --format {dot,json}\n"
    ),
}


def format_error(name):
    """The usage and error of `scherk <name> - --format xml`."""
    usage = COMMAND_HELP[name].split("\n\n")[0] + "\n"
    choices = "'dot', 'json'" if name == "hasse" else "'json', 'text'"
    return usage + (
        f"scherk {name}: error: argument --format: invalid choice: 'xml' "
        f"(choose from {choices})\n"
    )


CHOICES = (
    "'analyze', 'factorize', 'chain', 'order', 'meet', 'join', 'bowtie', "
    "'lattice', 'complete', 'hasse'"
)

# (argv, exit code, stdout, stderr), as the full parser prints them.
PARSER_EXITS = [
    ((), 2, "", USAGE + "scherk: error: the following arguments are required: command\n"),
    (("-h",), 0, TOP_HELP, ""),
    (
        ("nosuch",),
        2,
        "",
        USAGE + f"scherk: error: argument command: invalid choice: 'nosuch' "
        f"(choose from {CHOICES})\n",
    ),
    (("analyze", "-h"), 0, ANALYZE_HELP, ""),
    (
        ("analyze", str(DATA / "glide.json"), "--format", "dot"),
        2,
        "",
        ANALYZE_USAGE + "scherk analyze: error: argument --format: invalid choice: "
        "'dot' (choose from 'json', 'text')\n",
    ),
    (
        ("hasse", str(DATA / "bowtie_universe.json"), "--dim", "7"),
        2,
        "",
        USAGE + "scherk: error: unrecognized arguments: --dim 7\n",
    ),
    (
        ("factorize", str(DATA / "glide.json"), "--seed", "x"),
        2,
        "",
        "usage: scherk factorize [-h] [--seed SEED] [--format {json,text}] "
        "[--dim DIM]\n"
        "                        [--chain FILE]\n"
        "                        [input]\n"
        "scherk factorize: error: argument --seed: invalid int value: 'x'\n",
    ),
] + [
    # Arguments the command does not take: the full parser's own error.
    (argv, 2, "", USAGE + f"scherk: error: unrecognized arguments: {extras}\n")
    for argv, extras in [
        (("analyze", "x.json", "--bogus"), "--bogus"),
        (("analyze", "a", "b"), "b"),
        (("factorize", "--seed", "3", "x", "--zzz", "1"), "--zzz 1"),
        (("hasse", "--augmented"), "--augmented"),
        (("order", "--", "x", "y"), "y"),
        (("meet", "-x"), "-x"),
        (("analyze", "--se", "1", "x", "extra"), "extra"),
    ]
] + [
    # Each command's help (analyze -h is pinned above), and an invalid --format.
    case
    for name, help_ in COMMAND_HELP.items()
    for case in [
        ((name, "--help" if name == "analyze" else "-h"), 0, help_, ""),
        ((name, "-", "--format", "xml"), 2, "", format_error(name)),
    ]
]

# Argument lists the commands accept: those of the tests above, and the
# spellings argparse also allows (=, abbreviations, options first, --).
VALID_ARGVS = [argv for argv, _ in GOLDEN_CASES] + [
    ("analyze", str(DATA / "glide.json")),
    ("analyze", "-"),
    ("analyze", str(DATA / "glide.json"), "--dim", "3"),
    ("analyze", "--dim=3", "--format=text", str(DATA / "glide.json")),
    ("analyze", "--", "-"),
    ("factorize", str(DATA / "glide.json"), "--seed", "7"),
    ("factorize", str(DATA / "translation.json"), "--chain", "chain.json"),
    ("factorize", "--ch", "chain.json"),
    ("chain", "-"),
    ("order", "-"),
    ("order", "-", "--dim", "2", "--format", "text"),
    ("meet", "-"),
    ("meet", "-", "--augmented"),
    ("join", "-", "--aug", "--seed", "-3"),
    ("bowtie", "-", "--format", "text"),
    ("lattice", "-"),
    ("lattice", "-", "--augmented"),
    ("complete", "-"),
    ("complete",),
    ("hasse", "-", "--format", "dot"),
]

# What the reader and argparse are both given in the property test: every
# option name, near misses of them, odd values (an Arabic-Indic three and a
# superscript two are digits to str.isdigit), each format and some paths.
ARGV_TOKENS = st.sampled_from(
    ["--seed", "--format", "--dim", "--chain", "--augmented"]
    + ["--se", "--aug", "--seed=3", "--", "-", "-h", "--help"]
    + ["-3", "+3", " 3", "3_0", "007", "\u0663", "\u00b2", "1" * 4301, ""]
    + ["json", "text", "dot"]
    + ["x.json", "in put.json", str(DATA / "glide.json")]
)


class TestParser:
    """A plain line read without argparse; every other through the full parser."""

    @pytest.fixture(autouse=True)
    def eighty_columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("argv,code,out,err", PARSER_EXITS)
    def test_exit_and_output_are_pinned(self, argv, code, out, err, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(list(argv))
        assert exit_.value.code == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv", VALID_ARGVS)
    def test_namespace_is_the_full_parsers(self, argv):
        expected = vars(cli._build_parser().parse_args(list(argv)))
        assert vars(cli._parse_args(list(argv))) == expected

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from([*cli._COMMANDS, "nosuch"]), st.lists(ARGV_TOKENS, max_size=6))
    @example("analyze", ["--seed", "\u00b2"])
    @example("factorize", ["--dim", "1" * 4301, "-"])
    @example("analyze", ["x.json", "x.json"])
    @example("order", ["--seed", "\u0663", "--dim", "007", "-", "--format", "text"])
    @example("join", ["--augmented", "in put.json", "--seed", "3"])
    @example("factorize", ["--chain", "x.json", ""])
    def test_plain_reads_what_the_full_parser_reads(self, command, tokens):
        argv = [command, *tokens]
        args = cli._plain(argv)
        if args is not None:  # argparse reads the same line without an exit
            assert vars(args) == vars(cli._build_parser().parse_args(argv))

    def test_plain_line_builds_no_parser(self, monkeypatch, capsys):
        cli._build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        golden = (GOLDEN / "analyze_glide.json").read_text()
        assert cli.main(["analyze", str(DATA / "glide.json")]) == 0
        assert built == []
        assert capsys.readouterr().out == golden
        for _ in range(2):
            assert cli.main(["analyze", "--dim=2", str(DATA / "glide.json")]) == 0
            assert capsys.readouterr().out == golden
        assert built == ["scherk"] + [f"scherk {name}" for name in cli._COMMANDS]

    def test_plain_line_imports_no_argparse(self):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "scherk.cli", "analyze"]
            + [str(DATA / "glide.json")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
            timeout=60,
        )
        assert result.stdout == (GOLDEN / "analyze_glide.json").read_text()
        assert "argparse" not in result.stderr
        assert "gettext" not in result.stderr


# Strings with what the writer must escape: quotes, backslashes, control
# characters and non-ASCII text.
json_strings = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t aZé€😀') | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_strings,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(json_strings, inner, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(json_values)
    @example({})
    @example([])
    @example(())
    @example({"edges": [(0, 1), (1, 2)], "nodes": [], "a": {"b": ()}})
    @example(["1", 2, "-3/4"])
    @example(["a", None, "b"])
    @example(["x", ["y", "z"], [], {"k": ["v"]}])
    @example(("1", "-2/3", "0"))
    @example([True, False, None, 0, -7, 2**70])
    @example({"leq": True, "lattice": False, "v": [[True], (False, "t")]})
    def test_writes_what_json_dumps_writes(self, value):
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert cli._emit_json(value) == expected
