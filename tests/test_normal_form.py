"""Every vector and matrix the library builds is in its normal form.

The normal form is integer rows over one positive denominator in lowest
terms: den > 0 and gcd(den, *entries) == 1.  It is unique, so a value in
normal form equals the `Vector` or `Matrix` built from the same
`Fraction`s, and equality is a compare of the fields.  The chain read
(`factorization_to_chain`) checks a whole product by comparing its rows
with the target's fields, which relies on this for the rows of `product`
and `Reflection.compose`; `jsonio` builds its vectors and matrices from
the integer rows it reads, in any spelling of the rationals.
"""

import itertools
import math
import random

from scherk import jsonio
from scherk.isometry import Isometry, product
from scherk.linalg import Matrix, Vector
from scherk.oracle import random_reflection
from test_cli_fuzz import spellings

TEXTS = ["0", "7", "-7", "12", "-37/48", "5/8", "-1/2", "1/3"]


def assert_vector_normal(v):
    assert v.den > 0
    assert math.gcd(v.den, *v.num) == 1
    assert v == Vector(v.coords)


def assert_matrix_normal(m):
    assert m.den > 0
    assert math.gcd(m.den, *itertools.chain.from_iterable(m.num)) == 1
    assert m == Matrix(m.rows, ncols=m.ncols)


def assert_isometry_normal(w):
    assert_matrix_normal(w.matrix)
    assert_vector_normal(w.translation)


def test_products_of_reflections_are_in_normal_form():
    rng = random.Random(27)
    for dim in range(1, 9):
        for length in range(13):
            reflections = [random_reflection(dim, rng) for _ in range(length)]
            w = product(reflections, dim)
            assert_isometry_normal(w)
            composed = Isometry.identity(dim)
            for r in reversed(reflections):
                composed = r.compose(composed)
                assert_isometry_normal(composed)
            assert composed == w


def test_every_spelling_reads_into_normal_form():
    for text in TEXTS:
        for spelling in spellings(text):
            for other in TEXTS:
                row = [spelling, other, spelling]
                v = jsonio.vector_from_json(row)
                assert_vector_normal(v)
                assert v == Vector([text, other, text])
                m = jsonio.matrix_from_json([row, [other, spelling, "0"]])
                assert_matrix_normal(m)
                assert m == Matrix([[text, other, text], [other, text, "0"]])
