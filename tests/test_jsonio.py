"""Wire format round trips and validation."""

import contextlib
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scherk.jsonio as jsonio_module
from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import factor
from scherk.isometry import Isometry, Reflection, translation
from scherk.jsonio import (
    MAX_BITS,
    MAX_DIM,
    FormatError,
    affine_e_from_json,
    affine_e_to_json,
    affine_v_from_json,
    affine_v_to_json,
    element_from_json,
    element_to_json,
    factorization_from_json,
    factorization_to_json,
    isometry_from_json,
    isometry_to_json,
    matrix_from_json,
    matrix_to_json,
    reflection_from_json,
    reflection_to_json,
    subspace_from_json,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)
from scherk.linalg import DimensionError, Matrix, Vector, span
from scherk.oracle import coordinate_universe, corpus
from scherk.poset import Elliptic, Hyperbolic, New, inv_map


def e(n, i):
    return Vector.basis(n, i)


def scalar(obj):
    """One JSON rational, read as the entry of a one-entry vector."""
    return vector_from_json([obj])[0]


class TestScalars:
    def test_integer_renders_bare(self):
        assert vector_to_json(Vector([Fraction(3)])) == ["3"]

    def test_fraction_renders_with_slash(self):
        assert vector_to_json(Vector([Fraction(-2, 5)])) == ["-2/5"]

    def test_parse_accepts_ints_and_strings(self):
        assert scalar(7) == Fraction(7)
        assert scalar("7/2") == Fraction(7, 2)

    def test_floats_rejected(self):
        with pytest.raises(FormatError):
            scalar(0.5)
        with pytest.raises(FormatError):
            scalar(True)

    def test_zero_denominator_rejected(self):
        with pytest.raises(FormatError):
            scalar("1/0")


class TestContainers:
    def test_vector_round_trip(self):
        v = Vector([Fraction(1, 2), Fraction(-3), Fraction(0)])
        assert vector_from_json(vector_to_json(v)) == v

    def test_subspace_round_trip_basis_is_rref(self):
        u = span([Vector([2, 2, 0]), Vector([0, 0, 3])])
        payload = subspace_to_json(u)
        assert payload["basis"] == [["1", "1", "0"], ["0", "0", "1"]]
        assert subspace_from_json(payload) == u

    def test_affine_round_trips(self):
        m = AffineSubspaceV(span([e(2, 1)]), Vector([1, 1]))
        assert affine_v_from_json(affine_v_to_json(m)) == m
        b = AffineSubspaceE(Point([3, 5]), span([e(2, 0)]))
        assert affine_e_from_json(affine_e_to_json(b)) == b


no_deadline = settings(deadline=None)
small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = small.filter(bool)


@st.composite
def reduced_rows(draw, n, k):
    """k rows of length n in reduced row echelon form, built directly: a 1
    at each of k increasing pivots, 0 at the other pivots and left of its
    own, and random rationals in the free columns right of it.  Returns
    (rows, pivots)."""
    columns = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    pivots = sorted(draw(columns))
    rows = []
    for p in pivots:
        row = [Fraction(0)] * n
        row[p] = Fraction(1)
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = draw(small)
        rows.append(row)
    return rows, tuple(pivots)


def subspace_document(n, rows):
    """A subspace of R^n written with these basis rows."""
    return {"dim_ambient": n, "basis": [[str(x) for x in row] for row in rows]}


def decoded_subspace(n, rows):
    return subspace_from_json(subspace_document(n, rows))


def scaled_rows(data, rows):
    """Every row times a nonzero rational, the first times one other than 1."""
    factors = [data.draw(nonzero) for _ in rows]
    if factors[0] == 1:
        factors[0] = Fraction(2)
    return [[c * x for x in row] for c, row in zip(factors, rows)]


def swapped_rows(data, rows):
    i = data.draw(st.integers(0, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    rows = rows[:]
    rows[i], rows[j] = rows[j], rows[i]
    return rows


def with_dependent_row(data, rows):
    """A combination of the rows, inserted anywhere."""
    coeffs = [data.draw(small) for _ in rows]
    extra = [sum(c * x for c, x in zip(coeffs, column)) for column in zip(*rows)]
    at = data.draw(st.integers(0, len(rows)))
    return rows[:at] + [extra] + rows[at:]


def nonzero_above_a_pivot(data, rows):
    """Row i plus a nonzero multiple of a row j below it, which is zero at
    the pivot of row i: row i keeps its pivot 1 and gains an entry at the
    pivot of row j."""
    i = data.draw(st.integers(0, len(rows) - 2))
    j = data.draw(st.integers(i + 1, len(rows) - 1))
    c = data.draw(nonzero)
    rows = rows[:]
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def pivot_not_one(data, rows):
    i = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(nonzero.filter(lambda c: c != 1))
    rows = rows[:]
    rows[i] = [c * x for x in rows[i]]
    return rows


def with_zero_row(data, rows, n):
    at = data.draw(st.integers(0, len(rows)))
    return rows[:at] + [[Fraction(0)] * n] + rows[at:]


# Each spoiling of a reduced basis, with the fewest rows it needs.
SPOILINGS = {
    "scaled": (scaled_rows, 1),
    "swapped": (swapped_rows, 2),
    "dependent": (with_dependent_row, 1),
    "above-pivot": (nonzero_above_a_pivot, 2),
    "pivot-not-one": (pivot_not_one, 1),
    "zero-row": (lambda data, rows: with_zero_row(data, rows, len(rows[0])), 1),
}


class TestNormalFormReading:
    """A basis in reduced row echelon form and an anchor orthogonal to the
    direction, the form every document is written in, are read as given;
    any other spanning set and any other anchor are reduced to that form,
    in dimensions 1-5."""

    @no_deadline
    @given(st.data())
    def test_reduced_basis_is_read_as_given(self, data):
        n = data.draw(st.integers(1, 5))
        rows, pivots = data.draw(reduced_rows(n, data.draw(st.integers(0, n))))
        u = decoded_subspace(n, rows)
        assert u.ambient == n
        assert u.basis == tuple(Vector(row) for row in rows)
        assert u.pivots == pivots
        assert subspace_from_json(subspace_to_json(u)) == u

    @pytest.mark.parametrize("spoiling", sorted(SPOILINGS))
    @no_deadline
    @given(data=st.data())
    def test_other_spanning_sets_read_as_their_reduced_form(self, spoiling, data):
        spoil, fewest = SPOILINGS[spoiling]
        n = data.draw(st.integers(max(1, fewest), 5))
        rows, pivots = data.draw(reduced_rows(n, data.draw(st.integers(fewest, n))))
        u = decoded_subspace(n, spoil(data, rows))
        assert (u.ambient, u.basis, u.pivots) == (
            n,
            tuple(Vector(row) for row in rows),
            pivots,
        )

    @pytest.mark.parametrize("side", ["direction", "complement"])
    @no_deadline
    @given(data=st.data())
    def test_other_anchors_read_as_the_orthogonal_one(self, side, data):
        """On both sides of the switch at 2 dim U = n, the anchor read is
        orthogonal to every basis row b_i, and differs from the anchor
        written by sum (a - m)[p_i] b_i, a vector of U."""
        if side == "direction":
            n = data.draw(st.integers(2, 5))
            k = data.draw(st.integers(1, n // 2))
        else:
            n = data.draw(st.integers(3, 5))
            k = data.draw(st.integers(n // 2 + 1, n - 1))
        rows, pivots = data.draw(reduced_rows(n, k))
        a = [data.draw(small) for _ in range(n)]
        if not any(sum(x * y for x, y in zip(a, row)) for row in rows):
            a = [x + y for x, y in zip(a, rows[0])]
        direction = subspace_document(n, rows)
        written = [str(x) for x in a]
        read = [
            affine_v_from_json({"U": direction, "mu": written}).anchor,
            affine_e_from_json({"point": written, "direction": direction}).anchor,
        ]
        for m in map(list, (v.coords for v in read)):
            for row in rows:
                assert sum(x * y for x, y in zip(m, row)) == 0
            diff = [x - y for x, y in zip(a, m)]
            along = [
                sum(diff[p] * row[i] for p, row in zip(pivots, rows)) for i in range(n)
            ]
            assert diff == along
            assert diff != [0] * n


class TestIsometries:
    def test_matrix_form_round_trip(self):
        for w in corpus(3, 10, seed=2):
            assert isometry_from_json(isometry_to_json(w)) == w

    def test_reflection_list_form(self):
        payload = {
            "reflections": [
                {"root": ["1", "0"], "point": ["1", "0"]},
                {"root": ["1", "0"], "point": ["0", "0"]},
            ]
        }
        assert isometry_from_json(payload) == translation(Vector([2, 0]))

    def test_empty_reflection_list_needs_dim(self):
        with pytest.raises(FormatError):
            isometry_from_json({"reflections": []})
        assert isometry_from_json({"reflections": [], "dim": 3}) == Isometry.identity(3)

    def test_non_orthogonal_rejected_at_construction(self):
        from scherk.isometry import OrthogonalityError

        payload = {
            "dim": 2,
            "matrix": [["1", "0"], ["0", "2"]],
            "translation": ["0", "0"],
        }
        with pytest.raises(OrthogonalityError):
            isometry_from_json(payload)

    def test_factorization_round_trip(self):
        for w in corpus(2, 8, seed=3):
            f = factor(w)
            back = factorization_from_json(factorization_to_json(f))
            assert back.target == f.target
            assert back.factors == f.factors


class TestElements:
    def test_all_three_kinds_round_trip(self):
        elements = [
            Elliptic(AffineSubspaceE(Point([0, 0, 0]), span([e(3, 0)]))),
            Hyperbolic(AffineSubspaceV(span([e(3, 0)]), Vector([0, 0, 1]))),
            New(span([e(3, 0)])),
        ]
        for p in elements:
            assert element_from_json(element_to_json(p)) == p

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError):
            element_from_json({"kind": "x"})

    def test_inv_map_of_corpus_round_trips(self):
        for w in corpus(3, 10, seed=4):
            p = inv_map(w)
            assert element_from_json(element_to_json(p)) == p


class TestDimensionLimit:
    """Only sizes at or just over the limit run in this process; documents
    far over it run in a capped child process in tests/test_cli.py."""

    def test_limit_is_accepted(self):
        assert isometry_from_json({"reflections": [], "dim": MAX_DIM}).dim == MAX_DIM
        u = subspace_from_json({"dim_ambient": MAX_DIM, "basis": []})
        assert (u.ambient, u.dim) == (MAX_DIM, 0)
        assert vector_from_json(["0"] * MAX_DIM).dim == MAX_DIM

    @pytest.mark.parametrize(
        "parse,doc",
        [
            (isometry_from_json, {"reflections": [], "dim": MAX_DIM + 1}),
            (isometry_from_json, {"dim": MAX_DIM + 1, "matrix": [], "translation": []}),
            (subspace_from_json, {"dim_ambient": MAX_DIM + 1, "basis": []}),
            (vector_from_json, ["0"] * (MAX_DIM + 1)),
            (isometry_from_json, {"matrix": [["1"]] * (MAX_DIM + 1), "translation": 0}),
        ],
    )
    def test_over_the_limit_is_a_format_error(self, parse, doc):
        with pytest.raises(FormatError, match="limit"):
            parse(doc)

    @pytest.mark.parametrize("dim", [0, -1, True, "3", 2.0])
    def test_bad_declared_dimension(self, dim):
        with pytest.raises(FormatError, match="bad"):
            isometry_from_json({"reflections": [], "dim": dim})
        with pytest.raises(FormatError, match="bad"):
            subspace_from_json({"dim_ambient": dim, "basis": []})


LARGEST = 2**MAX_BITS - 1


class TestBitLimit:
    """A numerator or denominator over MAX_BITS bits is a FormatError."""

    @pytest.mark.parametrize(
        "obj,value",
        [
            (LARGEST, Fraction(LARGEST)),
            (str(-LARGEST), Fraction(-LARGEST)),
            (f"1/{LARGEST}", Fraction(1, LARGEST)),
            (f"{LARGEST}/{LARGEST - 1}", Fraction(LARGEST, LARGEST - 1)),
            (f"{2**MAX_BITS}/2", Fraction(2 ** (MAX_BITS - 1))),
            ("25e-2", Fraction(1, 4)),
            (f"1e{MAX_BITS // 4}", Fraction(10 ** (MAX_BITS // 4))),
        ],
    )
    def test_at_the_limit_is_accepted(self, obj, value):
        assert scalar(obj) == value

    @pytest.mark.parametrize(
        "obj",
        [
            2**MAX_BITS,
            str(2**MAX_BITS),
            f"1/{2**MAX_BITS}",
            f"3/{2**MAX_BITS + 1}",
            f"1e{MAX_BITS + 1}",
            f"1E-{MAX_BITS + 1}",
            f"0e{MAX_BITS + 1}",  # the exponent alone decides, before 0 is built
            "1e999999999",
            "1e5000",
        ],
    )
    def test_over_the_limit_is_a_format_error(self, obj):
        with pytest.raises(FormatError, match=f"limit of {MAX_BITS} bits"):
            scalar(obj)

    def test_the_limit_holds_in_matrices(self):
        with pytest.raises(FormatError, match="bits"):
            matrix_from_json([["1", "0"], ["0", str(2**MAX_BITS)]])


class TestMatrixDecoding:
    def test_entries_decode_to_the_matrix(self):
        m = matrix_from_json([["1/2", 3], ["-4/6", "0"]])
        assert m.rows == ((Fraction(1, 2), 3), (Fraction(-2, 3), 0))

    @pytest.mark.parametrize("row", [7, "1", None, {"0": "1"}])
    def test_row_that_is_not_an_array(self, row):
        with pytest.raises(FormatError, match="must be an array"):
            matrix_from_json([["1", "0"], row])

    def test_ragged_rows_are_a_dimension_error(self):
        with pytest.raises(DimensionError):
            matrix_from_json([["1", "0"], ["1"]])


class TestReflectionEncoding:
    def test_point_is_the_mirror_anchor(self):
        for w in corpus(4, 12, seed=11):
            for r in factor(w).factors:
                payload = reflection_to_json(r)
                assert payload["point"] == vector_to_json(r.mirror.anchor)
                assert r.mirror.contains(Point(vector_from_json(payload["point"])))

    def test_oblique_mirror_off_the_origin(self):
        r = Reflection(Vector([2, -4, 6]), Fraction(7, 3))
        payload = {"root": ["1", "-2", "3"], "point": ["1/12", "-1/6", "1/4"]}
        assert reflection_to_json(r) == payload


def fraction_reading(text):
    """How a string read as Fraction(str) behind the exponent guard: the
    value, or the message of the FormatError."""
    _, _, exponent = text.lower().partition("e")
    try:
        over = ("e" in text or "E" in text) and abs(int(exponent)) > MAX_BITS
    except ValueError:
        over = False
    if over:
        return f"rational exceeds the limit of {MAX_BITS} bits"
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"bad rational {text!r}" if len(repr(text)) <= 60 else "bad rational"
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_BITS:
        return f"rational exceeds the limit of {MAX_BITS} bits"
    return value


SPELLINGS = [
    "0", "7", "-7", "6/4", "-37/48", "0/5", "-0/5", "007", "-0", "+3", " 3 ",
    "3 / 4", "1_000", "1.5", "25e-2", "-1.25E1", ".5", "5.", "1e", "\u0663",
    "\u0663/\u0664", "\u00b2", "0/0", "3/0", "3/00", "6/004", "", "-", "/3", "3/", "5/-3", "--3",
    "-+3", "3/4/5", "0x10", "3\n", "nan", "inf",
    f"{2**MAX_BITS}/2", str(2**MAX_BITS), str(2**MAX_BITS - 1),
    f"1/{2**MAX_BITS}", f"1e{MAX_BITS + 1}",
    "1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4300,
]


def random_spellings(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.randint(-(2**rng.randint(1, 80)), 2**rng.randint(1, 80))
        q = rng.randint(0, 2**rng.randint(1, 80))
        out.append(f"{p}/{q}" if rng.random() < 0.8 else str(p))
    return out


class TestSpelling:
    """Every string reads as Fraction(str) read it, or fails with the same
    FormatError: reading a row of printed "p" and "p/q" in one pass changes
    no answer."""

    @pytest.mark.parametrize(
        "text", SPELLINGS + random_spellings(200, seed=5), ids=lambda t: repr(t)[:24]
    )
    def test_reads_as_fraction_reads(self, text):
        expected = fraction_reading(text)
        for read in (scalar, lambda t: vector_from_json([t, "1/3"])[0]):
            if isinstance(expected, Fraction):
                assert read(text) == expected
                continue
            with pytest.raises(FormatError) as caught:
                read(text)
            assert str(caught.value).startswith(expected)

    # Whole rows: a row of printed strings is read in one pass, any other
    # entry by entry, and both readings agree.
    ROWS = {
        "printed": ["1", "-2/3", "0", "5/7", "-12/35"],
        "integers": ["3", "-1", "0"],
        "comma-in-entry": ["1,2", "3"],
        "over-the-bits": ["1", "2/3", str(2**MAX_BITS)],
        "over-the-bits-den": ["1", f"1/{2**MAX_BITS}"],
        "raw-part-over": ["1", f"{2**MAX_BITS}/2", "3"],
        "at-the-bits": [str(LARGEST), f"1/{LARGEST}", "-5/6"],
        "digits": ["1", "1" * 4301, "2"],
        "digits-den": ["1/3", "1/" + "1" * 4301],
        "unreduced": ["6/4", "-0", "007/010"],
        "ints-and-strings": [1, "2/3", -4, "5", 0],
        "ints-only": [2, -6],
        "int-at-the-bits": [-LARGEST, "1/3"],
        "other-spellings": ["+3", "1/2", " 4"],
        "zero-denominator": ["1", "3/0"],
        "bool": ["1", True],
    }

    @pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
    def test_rows_read_as_their_entries_read(self, row):
        expected = [
            "not a rational" if isinstance(x, bool) else fraction_reading(str(x))
            for x in row
        ]
        errors = [x for x in expected if not isinstance(x, Fraction)]
        if not errors:
            assert vector_from_json(row) == Vector(expected)
            assert matrix_from_json([row, row]) == Matrix([expected, expected])
            return
        for read in (vector_from_json, lambda r: matrix_from_json([r, r])):
            with pytest.raises(FormatError) as caught:
                read(row)
            assert str(caught.value).startswith(errors[0])

    def test_a_matrix_mixes_printed_rows_and_other_rows(self):
        rows = [["1/2", "0", "-3"], [1, "1/3", 0], ["+3", "-1/6", "2/4"], ["0", "0", "0"]]
        expected = [[Fraction(x) for x in row] for row in rows]
        m = matrix_from_json(rows)
        assert m == Matrix(expected)
        assert (m.num, m.den) == (((3, 0, -18), (6, 2, 0), (18, -1, 3), (0, 0, 0)), 6)

    def test_reading_is_canonical(self):
        v = vector_from_json(["6/4", "-10/4", 0, "3"])
        assert (v.num, v.den) == ((3, -5, 0, 6), 2)
        assert v == Vector([Fraction(3, 2), Fraction(-5, 2), 0, 3])
        m = matrix_from_json([["2/6", "0"], ["1", "-1/2"]])
        assert (m.num, m.den) == (((2, 0), (6, -3)), 6)


def random_rational(rng, bits):
    p = rng.randint(-(2**bits) + 1, 2**bits - 1) if rng.random() < 0.8 else 0
    q = rng.randint(1, 2**bits - 1) if rng.random() < 0.6 else 1
    return Fraction(p, q)


def printed(values):
    return [str(c) for c in values]


class TestPrinting:
    """The integer-row printers write each entry as str(Fraction) does."""

    CASES = [(dim, bits) for dim in range(1, 9) for bits in (1, 8, 64, MAX_BITS)]

    @pytest.mark.parametrize("dim,bits", CASES)
    def test_vectors_and_matrices(self, dim, bits):
        rng = random.Random(dim * 10007 + bits)
        for _ in range(10):
            v = Vector([random_rational(rng, bits) for _ in range(dim)])
            assert vector_to_json(v) == printed(v.coords)
            m = Matrix([[random_rational(rng, bits) for _ in range(dim)] for _ in range(dim)])
            assert matrix_to_json(m) == [printed(row) for row in m.rows]

    @pytest.mark.parametrize("dim,bits", CASES)
    def test_reflections(self, dim, bits):
        rng = random.Random(dim * 10009 + bits)
        for _ in range(10):
            # The primitive root of a normal of MAX_BITS-bit fractions can be
            # past the digit limit, so the largest normals are integers.
            entries = [random_rational(rng, bits) for _ in range(dim)]
            if bits == MAX_BITS:
                entries = [c.numerator for c in entries]
            if not any(entries):
                continue
            r = Reflection(Vector(entries), random_rational(rng, bits))
            scale = r.offset / r.root.norm_sq()
            payload = reflection_to_json(r)
            assert payload == {
                "root": printed(r.root.coords),
                "point": printed(c * scale for c in r.root.coords),
            }
            if bits < MAX_BITS:  # the point of a largest one is over the limit
                assert reflection_from_json(payload) == r

    HUGE = 10**5000

    @pytest.mark.parametrize("value", [Fraction(HUGE), Fraction(HUGE, 3), Fraction(-1, HUGE)])
    def test_past_the_digit_limit_is_a_format_error(self, value):
        message = "too long to print"
        with pytest.raises(FormatError, match=message):
            vector_to_json(Vector([value]))
        with pytest.raises(FormatError, match=message):
            vector_to_json(Vector([1, value]))
        with pytest.raises(FormatError, match=message):
            matrix_to_json(Matrix([[1, 0], [0, value]]))
        with pytest.raises(FormatError, match=message):
            reflection_to_json(Reflection(Vector([1, 1]), value))


HERE = pathlib.Path(__file__).parent
DOCUMENTS = sorted((HERE / "data").glob("*.json")) + sorted((HERE / "golden").glob("*.json"))


def codec(node):
    """The decoder and encoder of a JSON object the library writes, by its
    keys; None for an object that holds library values but is none."""
    kind = node.get("kind")
    if kind in ("e", "h", "n"):
        return element_from_json, element_to_json
    if kind == "affineV":
        return affine_v_from_json, affine_v_to_json
    if kind == "affineE":
        return affine_e_from_json, affine_e_to_json
    if "target" in node:
        return factorization_from_json, factorization_to_json
    if "matrix" in node or "reflections" in node:
        return isometry_from_json, isometry_to_json
    return None


def round_trip(node):
    """node with every library value in it decoded and encoded again."""
    if isinstance(node, dict):
        found = codec(node)
        if found:
            decode, encode = found
            return encode(decode(node))
        return {key: round_trip(value) for key, value in node.items()}
    if isinstance(node, list) and node and all(isinstance(x, str) for x in node):
        return vector_to_json(vector_from_json(node))
    if isinstance(node, list):
        return [round_trip(x) for x in node]
    return node


def rationals(node, key=None):
    """The number of rationals in a document."""
    if isinstance(node, dict):
        return sum(rationals(value, k) for k, value in node.items())
    if isinstance(node, list):
        return sum(rationals(value, key) for value in node)
    return int(isinstance(node, str) and key not in ("kind", "tag"))


def reflections(node):
    """The reflections, {"root", "point"}, in a document."""
    if isinstance(node, dict):
        found = [node] if "root" in node else []
        return found + [r for value in node.values() for r in reflections(value)]
    if isinstance(node, list):
        return [r for value in node for r in reflections(value)]
    return []


def fraction_constructions(fn):
    """The number of Fraction.__new__ calls fn() makes."""
    code, count = Fraction.__new__.__code__, 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


def rational_calls(monkeypatch, fn):
    """The number of jsonio._rational calls, the per-entry reading, fn() makes."""
    calls = []
    original = jsonio_module._rational

    def counted(obj):
        calls.append(obj)
        return original(obj)

    monkeypatch.setattr(jsonio_module, "_rational", counted)
    fn()
    return len(calls)


class TestRowBudget:
    """A printed row is read in one pass, with no per-entry reading."""

    def test_documents_and_the_universe_read_back_in_rows(self, monkeypatch):
        docs = [json.loads(path.read_text()) for path in DOCUMENTS]
        top = Hyperbolic(AffineSubspaceV(span([e(3, 0), e(3, 1)]), e(3, 2)))
        universe = coordinate_universe(3, top, augmented=True)
        written = [element_to_json(p) for p in universe]
        assert len(docs) == 14 and len(written) == 38
        results = []

        def read():
            results.extend(map(round_trip, docs))
            results.extend(map(element_from_json, written))

        assert rational_calls(monkeypatch, read) == 0
        assert results == docs + list(universe)

    def test_a_printed_row_at_the_bit_limit_is_one_pass(self, monkeypatch):
        row = [str(LARGEST), f"-1/{LARGEST}", "0"]
        read = []
        assert rational_calls(monkeypatch, lambda: read.append(vector_from_json(row))) == 0
        assert read == [Vector([LARGEST, Fraction(-1, LARGEST), 0])]

    def test_any_other_row_is_read_entry_by_entry(self, monkeypatch):
        def read(row):
            with contextlib.suppress(FormatError):
                vector_from_json(row)

        for row in (["1", 2], ["+1", "2"], ["1,2", "3"], [f"{2**MAX_BITS}/2", "1"]):
            assert rational_calls(monkeypatch, lambda: read(row)) > 0


class TestFractionBudget:
    """Reading and writing a document builds no Fraction at all: a decoded
    reflection's mirror {x : R . x = R . A / a} is read from the integer
    rows of the root R / r and the point A / a, and is kept as the two ints
    of its value, through the origin or off it."""

    PER_REFLECTION = 0

    def test_documents_round_trip_without_fractions_per_coordinate(self):
        docs = [json.loads(path.read_text()) for path in DOCUMENTS]
        assert len(docs) == 14
        results = []
        count = fraction_constructions(lambda: results.extend(map(round_trip, docs)))
        assert results == docs
        assert sum(map(rationals, docs)) == 358
        found = [r for doc in docs for r in reflections(doc)]
        off = [r for r in found if any(map(Fraction, r["point"]))]
        assert (len(found), len(off)) == (10, 4)
        assert count == self.PER_REFLECTION * len(off)
