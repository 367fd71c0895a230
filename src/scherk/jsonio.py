"""JSON encodings for every value the library exchanges.

Rationals travel as strings "p/q" (or "p" when the denominator is 1),
vectors as arrays of such strings, subspaces as {"dim_ambient": n,
"basis": [[...], ...]}.  Floats are rejected: an exact library must not
accept approximations.

Subspaces are written in the library's normal form: the basis rows in
reduced row echelon form, and the point or shift of an affine subspace
orthogonal to its direction.  Any spanning set and any anchor are read
and reduced to that form, but a document already in it, as every answer
is, is recognized rather than derived again: `linalg.LinearSubspace`
stores reduced rows as given, and the affine constructors store an
orthogonal anchor as given, so reading one back runs no elimination and
no projection.

A vector or a matrix row is read per row, not per coordinate.  A row
whose entries are all strings "p" or "p/q" of ASCII digits with q > 0,
the form this module prints, is read in one pass (`_printed`): one match
of a row pattern over the entries joined by commas, with a count of the
entries so that one holding a comma cannot pass, int() of the parts, one
lcm of the denominators and one division by the gcd (`linalg._lowest`).
Any other row is read entry by entry (`_rational`): a JSON int is
(obj, 1), and every string, in any spelling Fraction(str) accepts ("+3",
" 3 ", "1_000", "1.5", "25e-2", non-ASCII digits), goes through
Fraction(str); the entries are put over the lcm of their denominators by
`linalg._over_lcm`.  Either way the row is (ints, den) in lowest terms,
the normal form of a Vector, and the rows of a matrix are put over one
lcm by `linalg._rows_over_lcm`, so no Fraction is made per printed
coordinate.  A reflection with root R / r through the point A / a has the
mirror {x : R . x = R . A / a}, which is read from the integer rows, and
a reflection keeps its value as two ints, so a decoded reflection makes
no Fraction at all; only a string in another spelling builds one.
Printing runs the other way: each entry x of num over den is
x // g "/" den // g with g = gcd(x, den), the text str(Fraction) writes.

Isometries are accepted in two shapes: {"dim", "matrix", "translation"}
or {"reflections": [{"root": [...], "point": [...]}, ...]} where the
listed reflections multiply left to right, the first one acting last.

Every ambient dimension is at most MAX_DIM: a declared "dim" or
"dim_ambient", and the length of every vector and matrix.  Each is checked
before anything of that size is built, so {"dim": 10**9, "reflections": []}
is a FormatError, not an identity matrix of 10**18 entries.

Every rational has a numerator and a denominator of at most MAX_BITS bits
in lowest terms.  A decimal exponent larger than MAX_BITS in magnitude is
over the limit before the value is built, so "1e999999999" is a
FormatError, not an integer of three billion bits.  A printed row with a
part over MAX_BITS bits, or over the digits int() reads, is left to the
per-entry reading, which decides it exactly: 2**MAX_BITS / 2 has a part
over the limit but is within it in lowest terms.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import Any, Iterable, Optional

from .affine import AffineSubspaceE, AffineSubspaceV, Point
from .isometry import Isometry, Matrix, Reflection, _reflection_across, product
from .linalg import (
    LinearSubspace,
    Vector,
    _dot,
    _lowest,
    _mat,
    _over_lcm,
    _q,
    _rows_over_lcm,
    _vec,
)
from .factor import Factorization
from .poset import BoundFamily, Elliptic, Hyperbolic, New, PosetElement


# The largest ambient dimension a document may use.  Exact elimination is
# O(n^3) on coefficients that grow with n, so work on a document near the
# limit is already slow; the limit keeps a declared size from allocating
# anything before it is checked.
MAX_DIM = 256

# The largest bit-length of a numerator or a denominator.  Results are
# larger than their inputs, since elimination multiplies coefficients, so
# an answer can still pass the 4300 digits (14284 bits) Python writes for
# one int; _texts, which writes every printed rational, then raises a
# FormatError before anything is printed.  Seeded corpus
# isometries of dimension 64 factor into reflections of up to 1127 bits.
MAX_BITS = 2048

# The most characters of an input value that an error message quotes.
_QUOTE_LIMIT = 60

# A row as this module prints it: entries "p" or "p/q" in ASCII digits with
# a nonzero denominator, joined by commas.  "3/0" is left to Fraction to
# refuse.
_ENTRY = r"-?[0-9]+(?:/0*[1-9][0-9]*)?"
_ROW = re.compile(rf"{_ENTRY}(?:,{_ENTRY})*")


class FormatError(ValueError):
    """Malformed input: unreadable, not JSON, or not the expected shape."""


def _quote(obj: Any) -> str:
    """An input value for an error message, cut to _QUOTE_LIMIT characters."""
    text = repr(obj)
    return text if len(text) <= _QUOTE_LIMIT else text[: _QUOTE_LIMIT - 3] + "..."


def fields(obj: Any, what: str, *keys: str) -> list:
    """The values of keys in the JSON object obj (named what in errors);
    with no keys, only a check that obj is an object."""
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object, got {_quote(obj)}")
    try:
        return list(map(obj.__getitem__, keys))
    except KeyError:
        raise FormatError(f"{what} needs {' and '.join(keys)}") from None


def array(obj: Any, what: str, coordinates: bool = False) -> list:
    """The JSON array obj (named what in errors); with coordinates (a
    vector, or the rows of a matrix) it is also at most MAX_DIM long."""
    if not isinstance(obj, list):
        raise FormatError(f"{what} must be an array, got {_quote(obj)}")
    if coordinates and len(obj) > MAX_DIM:
        raise FormatError(f"{what} longer than the dimension limit of {MAX_DIM}")
    return obj


def _dimension(obj: Any, what: str) -> int:
    """A declared dimension: an int from 1 to MAX_DIM."""
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < 1:
        raise FormatError(f"bad {what} {_quote(obj)}")
    if obj > MAX_DIM:
        raise FormatError(f"{what} exceeds the limit of {MAX_DIM}")
    return obj


def _texts(num: Iterable[int], den: int) -> list[str]:
    """The rationals x / den for x in num, each as str(Fraction) writes it:
    "p/q" in lowest terms, or "p" when q is 1; den is positive.

    Every rational of an answer passes here, so an answer over the
    interpreter's digit limit for one int fails, as a FormatError, before
    anything is printed.
    """
    try:
        if den == 1:
            return list(map(str, num))
        texts = []
        for x in num:
            g = gcd(x, den)
            texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return texts
    except ValueError as exc:  # over sys.get_int_max_str_digits()
        raise FormatError("an answer has a rational too long to print") from exc


def _exponent_over_limit(text: str) -> bool:
    """Whether a decimal string has an exponent over MAX_BITS in magnitude."""
    _, _, exponent = text.lower().partition("e")
    try:
        return abs(int(exponent)) > MAX_BITS
    except ValueError:  # not an exponent Fraction accepts either
        return False


def _fraction(text: str) -> tuple[int, int]:
    """A rational in any spelling Fraction(str) accepts, as (p, q) in
    lowest terms with q > 0, read by Fraction(str) (`linalg._q`)."""
    if ("e" in text or "E" in text) and _exponent_over_limit(text):
        raise FormatError(f"rational exceeds the limit of {MAX_BITS} bits")
    try:
        return _q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {_quote(text)}") from exc


def _rational(obj: Any) -> tuple[int, int]:
    """A JSON rational as (p, q) in lowest terms with q > 0."""
    if isinstance(obj, str):
        p, q = _fraction(obj)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        p, q = obj, 1
    else:
        raise FormatError(f"not a rational: {_quote(obj)}")
    if p.bit_length() > MAX_BITS or q.bit_length() > MAX_BITS:
        raise FormatError(f"rational exceeds the limit of {MAX_BITS} bits")
    return p, q


def _printed(row: list) -> Optional[tuple[tuple[int, ...], int]]:
    """A row of strings as this module prints them, read in one pass as
    (ints, den) in lowest terms; None for any other row, or one with a
    part too long for int() or over MAX_BITS bits, which the per-entry
    reading decides."""
    try:
        text = ",".join(row)
    except TypeError:  # an entry that is not a string
        return None
    if _ROW.fullmatch(text) is None or text.count(",") != len(row) - 1:
        return None  # the count refuses an entry that holds a comma
    if "/" in text:  # every entry as "p/q", so that the parts alternate
        text = ",".join([x if "/" in x else x + "/1" for x in row]).replace("/", ",")
    try:  # int() refuses more than sys.get_int_max_str_digits() digits
        parts = list(map(int, text.split(",")))
    except ValueError:
        return None
    if max(map(int.bit_length, parts)) > MAX_BITS:
        return None
    if len(parts) == len(row):
        return tuple(parts), 1
    num, dens = parts[::2], parts[1::2]
    den = lcm(*dens)
    return _lowest([p * (den // q) for p, q in zip(num, dens)], den)


def _scalars(obj: Any) -> tuple[tuple[int, ...], int]:
    """A vector or a matrix row as (ints, den) in lowest terms: a printed
    row in one pass, any other entry by entry, over the lcm of the
    denominators."""
    row = array(obj, "vector", coordinates=True)
    return _printed(row) or _over_lcm([_rational(x) for x in row])


def vector_to_json(v: Vector) -> list[str]:
    return _texts(v.num, v.den)


def vector_from_json(obj: Any) -> Vector:
    return _vec(*_scalars(obj))


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [_texts(row, m.den) for row in m.num]


def matrix_from_json(obj: Any) -> Matrix:
    rows = array(obj, "matrix", coordinates=True)
    if not rows:
        raise FormatError("matrix must have a row")
    return _mat(*_rows_over_lcm([_scalars(row) for row in rows]))


def subspace_to_json(u: LinearSubspace) -> dict:
    return {
        "dim_ambient": u.ambient,
        "basis": [vector_to_json(b) for b in u.basis],
    }


def subspace_from_json(obj: Any) -> LinearSubspace:
    ambient, basis = fields(obj, "subspace", "dim_ambient", "basis")
    ambient = _dimension(ambient, "ambient dimension")
    rows = array(basis, "subspace basis")
    return LinearSubspace(ambient, [vector_from_json(row) for row in rows])


def affine_v_to_json(m: AffineSubspaceV) -> dict:
    return {
        "kind": "affineV",
        "U": subspace_to_json(m.direction),
        "mu": vector_to_json(m.mu),
    }


def affine_v_from_json(obj: Any) -> AffineSubspaceV:
    direction, mu = fields(obj, "affine subspace of V", "U", "mu")
    return AffineSubspaceV(subspace_from_json(direction), vector_from_json(mu))


def affine_e_to_json(b: AffineSubspaceE) -> dict:
    return {
        "kind": "affineE",
        "point": vector_to_json(b.anchor),
        "direction": subspace_to_json(b.direction),
    }


def affine_e_from_json(obj: Any) -> AffineSubspaceE:
    point, direction = fields(obj, "affine subspace of E", "point", "direction")
    return AffineSubspaceE(
        Point(vector_from_json(point)), subspace_from_json(direction)
    )


def reflection_to_json(r: Reflection) -> dict:
    """The root and the mirror's point nearest the origin, root p / (q |root|^2),
    written from the ints of the root and of the value p / q."""
    root, p, q = r.root.num, r.p, r.q
    den = q * _dot(root, root)
    return {
        "root": vector_to_json(r.root),
        "point": _texts([p * a for a in root], den),
    }


def reflection_from_json(obj: Any) -> Reflection:
    root, anchor = fields(obj, "reflection", "root", "point")
    root, anchor = vector_from_json(root), vector_from_json(anchor)
    if root.is_zero():
        raise FormatError("reflection root must be nonzero")
    root._check_dim(anchor)
    return _reflection_across(root.num, _dot(root.num, anchor.num), anchor.den)


def isometry_to_json(w: Isometry) -> dict:
    return {
        "dim": w.dim,
        "matrix": matrix_to_json(w.matrix),
        "translation": vector_to_json(w.translation),
    }


def isometry_from_json(obj: Any) -> Isometry:
    fields(obj, "isometry")  # an object, whose keys pick one of two shapes
    declared = _dimension(obj["dim"], "dimension") if "dim" in obj else None
    if "reflections" in obj:
        entries = array(obj["reflections"], "reflections")
        reflections = [reflection_from_json(e) for e in entries]
        dims = {r.dim for r in reflections}
        if declared is not None:
            dims.add(declared)
        if len(dims) > 1:
            raise FormatError(f"reflections of mixed dimensions {_quote(sorted(dims))}")
        if not dims:
            raise FormatError("empty reflection list needs an explicit dim")
        return product(reflections, dims.pop())
    matrix, shift = fields(obj, "isometry without reflections", "matrix", "translation")
    matrix, shift = matrix_from_json(matrix), vector_from_json(shift)
    if declared is not None and declared != shift.dim:
        raise FormatError("declared dim does not match the translation")
    return Isometry(matrix, shift)


def factorization_to_json(f: Factorization) -> dict:
    return {
        "target": isometry_to_json(f.target),
        "factors": [reflection_to_json(r) for r in f.factors],
    }


def factorization_from_json(obj: Any) -> Factorization:
    target, entries = fields(obj, "factorization", "target", "factors")
    entries = array(entries, "factors")
    target = isometry_from_json(target)
    factors = tuple(reflection_from_json(e) for e in entries)
    dims = {target.dim, *(r.dim for r in factors)}
    if len(dims) > 1:
        raise FormatError(f"factorization of mixed dimensions {_quote(sorted(dims))}")
    return Factorization(target=target, factors=factors)


def element_to_json(p: PosetElement) -> dict:
    if isinstance(p, Elliptic):
        return {**affine_e_to_json(p.fix), "kind": "e"}
    if isinstance(p, Hyperbolic):
        return {**affine_v_to_json(p.move), "kind": "h"}
    return {"kind": "n", "U": subspace_to_json(p.subspace)}


def element_from_json(obj: Any) -> PosetElement:
    [kind] = fields(obj, "poset element", "kind")
    if kind == "e":
        return Elliptic(affine_e_from_json(obj))
    if kind == "h":
        return Hyperbolic(affine_v_from_json(obj))
    if kind == "n":
        [direction] = fields(obj, "new element", "U")
        return New(subspace_from_json(direction))
    raise FormatError(f"unknown element kind {_quote(kind)}")


def elements_from_json(obj: Any) -> list[PosetElement]:
    return [element_from_json(e) for e in array(obj, "elements")]


def family_to_json(f: BoundFamily) -> dict:
    payload = {
        "kind": "family",
        "member_kind": f.kind,
        "direction": subspace_to_json(f.direction),
    }
    if f.within is not None:
        payload["within"] = affine_v_to_json(f.within)
    return payload


def bound_to_json(result) -> Any:
    """Encode a meet/join outcome: an element or a family."""
    if isinstance(result, BoundFamily):
        return family_to_json(result)
    return element_to_json(result)
