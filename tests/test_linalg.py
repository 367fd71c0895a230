"""Exact rational kernel: canonical subspaces and solvers."""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scherk.linalg as linalg_module
from scherk.affine import Point
from scherk.isometry import move_set
from scherk.linalg import (
    DimensionError,
    LinearSubspace,
    Matrix,
    Vector,
    _independent,
    _particular,
    _rref,
    _solve,
    _subspace,
    _upward,
    intersect,
    null_space,
    orthogonal_complement,
    project,
    solve_affine,
    span,
)
from scherk.oracle import corpus

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def vec(*coords):
    return Vector(coords)


def e(n, i):
    return Vector.basis(n, i)


def random_vector(rng, n):
    return Vector(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))


class TestSpan:
    def test_empty_span_is_zero_subspace(self):
        u = span([], ambient=3)
        assert u.dim == 0
        assert u.ambient == 3

    def test_dependent_vectors_collapse(self):
        u = span([e(2, 0), vec(2, 0)])
        assert u.dim == 1
        assert u == span([e(2, 0)])

    def test_plane_from_skew_pair(self):
        # independent oracle: membership of e1 and e2 in the row-reduced span
        u = span([vec(1, 1, 0), vec(1, -1, 0)])
        assert u.dim == 2
        assert u.contains(e(3, 0)) and u.contains(e(3, 1))
        assert not u.contains(e(3, 2))
        assert u == span([e(3, 0), e(3, 1)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            span([vec(1, 0), vec(1, 0, 0)])


class TestOrthogonalComplement:
    def test_coordinate_axis(self):
        u = orthogonal_complement(span([e(3, 0)]))
        assert u == span([e(3, 1), e(3, 2)])

    def test_zero_subspace(self):
        u = orthogonal_complement(span([], ambient=2))
        assert u == LinearSubspace.full(2)

    def test_diagonal_line(self):
        # oracle: solve <x, (1,1,0)> = 0 by hand: x1 = -x2, x3 free
        u = orthogonal_complement(span([vec(1, 1, 0)]))
        assert u.dim == 2
        assert u.contains(vec(1, -1, 0))
        assert u.contains(vec(0, 0, 1))
        for b in u.basis:
            assert b.dot(vec(1, 1, 0)) == 0


class TestOneFullSpace:
    """R^n is one shared value per dimension, linked both ways to the zero
    space, and every full-rank exit returns it."""

    def test_full_space_is_one_value(self):
        for n in range(9):
            full = LinearSubspace.full(n)
            assert full is LinearSubspace.full(n)
            assert full.basis == tuple(e(n, i) for i in range(n))
            assert full.pivots == tuple(range(n))

    def test_complement_is_the_zero_space_both_ways(self):
        for n in range(9):
            full = LinearSubspace.full(n)
            zero = orthogonal_complement(full)
            assert zero == LinearSubspace.zero(n) and zero.is_zero()
            assert orthogonal_complement(zero) is full
            assert orthogonal_complement(full) is zero

    def test_span_of_independent_rows_is_the_full_space(self):
        rng = random.Random(3)
        for n in range(1, 9):
            assert span([e(n, i) for i in reversed(range(n))]) is LinearSubspace.full(n)
            while True:
                rows = [random_vector(rng, n) for _ in range(n)]
                if Matrix([v.coords for v in rows]).det() != 0:
                    break
            assert span(rows) is LinearSubspace.full(n)
            assert span(rows, ambient=n) is LinearSubspace.full(n)

    def test_full_space_of_negative_dimension_is_an_error(self):
        with pytest.raises(DimensionError):
            LinearSubspace.full(-1)


class TestIntersect:
    def test_coordinate_planes(self):
        u = intersect(span([e(3, 0), e(3, 1)]), span([e(3, 1), e(3, 2)]))
        assert u == span([e(3, 1)])

    def test_idempotent(self):
        u = span([vec(1, 2, 3), vec(0, 1, 1)])
        assert intersect(u, u) == u

    def test_transverse_lines_meet_trivially(self):
        # oracle: a(1,1) = b(1,-1) forces a = b = 0
        u = intersect(span([vec(1, 1)]), span([vec(1, -1)]))
        assert u.dim == 0


def subspace_sum(u1, u2):
    """U1 + U2 as the span of the stacked bases."""
    return span([*u1.basis, *u2.basis], ambient=u1.ambient)


class TestSubspaceSum:
    def test_axes_span_plane(self):
        assert subspace_sum(span([e(2, 0)]), span([e(2, 1)])) == LinearSubspace.full(2)

    def test_zero_is_neutral(self):
        u = span([vec(1, 2, 0)])
        assert subspace_sum(u, span([], ambient=3)) == u

    def test_skew_lines_span_plane(self):
        u = subspace_sum(span([vec(1, 1, 0)]), span([vec(1, -1, 0)]))
        assert u == span([e(3, 0), e(3, 1)])


class TestProject:
    def test_onto_axis(self):
        assert project(vec(1, 1), span([e(2, 0)])) == vec(1, 0)

    def test_onto_full_space(self):
        v = vec(3, -2)
        assert project(v, LinearSubspace.full(2)) == v

    def test_onto_diagonal(self):
        # oracle: <v,u>/<u,u> u with u = (1,1,0), v = (2,0,0) gives (1,1,0)
        assert project(vec(2, 0, 0), span([vec(1, 1, 0)])) == vec(1, 1, 0)


class TestSolveAffine:
    def test_identity_system(self):
        particular, kernel = solve_affine(Matrix.identity(2), vec(5, 7))
        assert particular == vec(5, 7)
        assert kernel.dim == 0

    def test_inconsistent_zero_system(self):
        assert solve_affine(Matrix([[0, 0], [0, 0]]), vec(1, 0)) is None

    def test_underdetermined_line(self):
        particular, kernel = solve_affine(Matrix([[0, -2]]), vec(0))
        assert particular == vec(0, 0)
        assert kernel == span([e(2, 0)])

    def test_back_substitution_over_negative_leads(self):
        """Forward rows keep the signs they were given: -3 y = 6 and
        -2 x + y = 3 give y = -2, x = -5/2, over a denominator that is
        negative until the Vector's normal form."""
        rows = [[-2, 1, 3], [0, -3, 6]]
        assert _particular(rows, (0, 1), 2) == vec(Fraction(-5, 2), -2)
        assert _particular([[0, -3, 6]], (1,), 2) == vec(0, -2)

    def test_solution_set_checks_out(self):
        a = Matrix([[1, 2, 0], [0, 0, 1]])
        b = vec(3, 4)
        particular, kernel = solve_affine(a, b)
        assert a * particular == b
        for k in kernel.basis:
            assert (a * k).is_zero()


class TestRandomInvariants:
    def test_complement_involution_and_dimensions(self):
        rng = random.Random(101)
        for _ in range(1000):
            n = rng.randint(1, 6)
            u = span([random_vector(rng, n) for _ in range(rng.randint(0, n))], ambient=n)
            comp = orthogonal_complement(u)
            assert u.dim + comp.dim == n
            assert orthogonal_complement(comp) == u
            for a in u.basis:
                for b in comp.basis:
                    assert a.dot(b) == 0

    def test_modular_dimension_identity(self):
        rng = random.Random(202)
        for _ in range(1000):
            n = rng.randint(1, 6)
            u1 = span([random_vector(rng, n) for _ in range(rng.randint(0, n))], ambient=n)
            u2 = span([random_vector(rng, n) for _ in range(rng.randint(0, n))], ambient=n)
            meet_dim = intersect(u1, u2).dim
            join_dim = subspace_sum(u1, u2).dim
            assert u1.dim + u2.dim == meet_dim + join_dim

    def test_projection_idempotent_orthogonal_residual(self):
        rng = random.Random(303)
        for _ in range(1000):
            n = rng.randint(1, 6)
            u = span([random_vector(rng, n) for _ in range(rng.randint(0, n))], ambient=n)
            v = random_vector(rng, n)
            p = project(v, u)
            assert u.contains(p)
            assert project(p, u) == p
            residual = v - p
            for b in u.basis:
                assert residual.dot(b) == 0

    def test_rref_canonical_under_scramble(self):
        rng = random.Random(404)
        for _ in range(1000):
            n = rng.randint(1, 6)
            vectors = [random_vector(rng, n) for _ in range(rng.randint(1, n + 1))]
            u = span(vectors)
            scrambled = vectors[:]
            rng.shuffle(scrambled)
            scrambled = [
                v.scale(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])))
                for v in scrambled
            ]
            mixed = scrambled + [
                scrambled[0] + v for v in scrambled[1:]
            ]
            assert span(mixed) == u


# Random rational subspaces of R^1..R^6 for the branch and kernel properties.
# Exact arithmetic has no fixed cost per example, so no deadline applies.
no_deadline = settings(deadline=None)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def vectors(draw, n):
    return Vector(draw(st.lists(rationals, min_size=n, max_size=n)))


@st.composite
def subspaces(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(vectors(n), max_size=n + 1))
    return span(rows, ambient=n)


@st.composite
def combinations(draw, u):
    """A rational combination of the basis of u (zero when u is zero)."""
    coeffs = draw(st.lists(rationals, min_size=u.dim, max_size=u.dim))
    v = Vector.zero(u.ambient)
    for c, b in zip(coeffs, u.basis):
        v = v + b.scale(c)
    return v


def assert_is_projection(p, v, u):
    """p lies in u and v - p is orthogonal to every basis vector of u."""
    assert u.contains(p)
    residual = v - p
    for b in u.basis:
        assert residual.dot(b) == 0


class TestProjectBranches:
    @no_deadline
    @given(subspaces())
    def test_zero_vector(self, u):
        assert project(Vector.zero(u.ambient), u) == Vector.zero(u.ambient)

    @no_deadline
    @given(st.data())
    def test_zero_subspace(self, data):
        n = data.draw(st.integers(1, 6))
        v = data.draw(vectors(n))
        assert project(v, LinearSubspace.zero(n)) == Vector.zero(n)

    @no_deadline
    @given(st.data())
    def test_full_space(self, data):
        n = data.draw(st.integers(1, 6))
        v = data.draw(vectors(n))
        assert project(v, LinearSubspace.full(n)) == v

    @no_deadline
    @given(st.data())
    def test_orthogonal_vector(self, data):
        u = data.draw(subspaces())
        v = data.draw(combinations(orthogonal_complement(u)))
        assert project(v, u) == Vector.zero(u.ambient)

    @no_deadline
    @given(st.data())
    def test_vector_inside(self, data):
        u = data.draw(subspaces())
        v = data.draw(combinations(u))
        assert project(v, u) == v

    @no_deadline
    @given(st.data())
    def test_general_vector(self, data):
        u = data.draw(subspaces())
        v = data.draw(vectors(u.ambient))
        assert_is_projection(project(v, u), v, u)

    @no_deadline
    @given(st.data())
    def test_sympy_agrees(self, data):
        sympy = pytest.importorskip("sympy")
        u = data.draw(subspaces())
        v = data.draw(vectors(u.ambient))

        def exact(coords):
            return sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in coords])

        expected = sympy.zeros(u.ambient, 1)
        if u.dim:
            b = sympy.Matrix.hstack(*(exact(row) for row in u.basis)).T
            expected = b.T * (b * b.T).inv() * b * exact(v)
        assert exact(project(v, u)) == expected


class TestKernelOnce:
    @no_deadline
    @given(st.data())
    def test_solve_affine_kernel_is_null_space(self, data):
        n = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=n + 1))
        a = Matrix(rows, ncols=n)
        x = data.draw(vectors(n))
        particular, kernel = solve_affine(a, a * x)
        assert kernel == null_space(a)
        assert a * particular == a * x

    @no_deadline
    @given(subspaces())
    def test_complement_of_complement(self, u):
        perp = orthogonal_complement(u)
        assert orthogonal_complement(perp) == u
        fresh = LinearSubspace(u.ambient, [b.coords for b in perp.basis])
        assert orthogonal_complement(fresh) == u

    @no_deadline
    @given(subspaces())
    def test_filled_slot_changes_neither_equality_nor_hash(self, u):
        fresh = LinearSubspace(u.ambient, [b.coords for b in u.basis])
        before = hash(u)
        orthogonal_complement(u)
        assert u._perp is not None and fresh._perp is None
        assert u == fresh and fresh == u
        assert hash(u) == before == hash(fresh)


# The stored form: ints over one positive denominator, in lowest terms.
wide = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero = wide.filter(lambda c: c != 0)
dims = st.integers(1, 6)


def rows_of(n):
    return st.lists(wide, min_size=n, max_size=n)


def assert_canonical(x):
    entries = x.num if isinstance(x, Vector) else list(itertools.chain.from_iterable(x.num))
    assert x.den > 0
    assert math.gcd(x.den, *entries) == 1


def fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


class TestRepresentation:
    @no_deadline
    @given(st.data())
    def test_vector_canonical_and_scale_free(self, data):
        coords = data.draw(rows_of(data.draw(dims)))
        c = data.draw(nonzero)
        v = Vector(coords)
        assert_canonical(v)
        assert v.coords == tuple(coords)
        assert Vector(v.coords) == v
        for twin in (
            Vector([c * x for x in coords]).scale(1 / c),
            Vector([str(x) for x in coords]),
            Vector(coords).scale(c).scale(1 / c),
        ):
            assert (twin.num, twin.den) == (v.num, v.den)
            assert twin == v and hash(twin) == hash(v)

    @given(
        st.lists(
            st.integers(-(10**30), 10**30)
            | st.booleans()
            | st.fractions(max_denominator=10**6)
            | st.fractions(max_denominator=10**6).map(str)
            | st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 6),
    )
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_entries_read_as_their_fractions(self, xs, at):
        """An int or a bool is read without a Fraction (int.as_integer_ratio),
        a Fraction as it is and a string by Fraction(str): each must give
        the Vector of the entries' Fractions, with int fields.  A float
        anywhere raises."""
        v = Vector(xs)
        assert v == Vector([Fraction(x) for x in xs])
        assert_canonical(v)
        assert all(type(x) is int for x in (v.den, *v.num))
        with pytest.raises(TypeError):
            Vector(xs[:at] + [0.5] + xs[at:])

    @given(
        st.lists(
            st.lists(
                st.integers(-(10**30), 10**30) | st.fractions(max_denominator=10**6),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    def test_reprs_spell_each_rational_as_its_fraction(self, rows):
        """Every repr writes its rationals from the ints (`linalg._texts`),
        byte for byte as str(Fraction) spells them."""

        def spelled(row):
            return ", ".join(str(Fraction(x)) for x in row)

        body = "; ".join(map(spelled, rows))
        assert repr(Vector(rows[0])) == f"Vector(({spelled(rows[0])}))"
        assert repr(Point(rows[0])) == f"Point(({spelled(rows[0])}))"
        assert repr(Matrix(rows)) == f"Matrix([{body}], ncols=3)"
        u = span([Vector(row) for row in rows], ambient=3)
        basis = "; ".join(spelled(b.coords) for b in u.basis)
        assert repr(u) == f"LinearSubspace(R^3, [{basis}])"

    def test_reprs_load_no_fractions(self):
        probe = (
            "import sys; from scherk.affine import Point; "
            "from scherk.isometry import Reflection; "
            "from scherk.linalg import Matrix, Vector, span; "
            "v = Vector([2, 0]); r = Reflection(v, 1); "
            "texts = [repr(x) for x in (v, Point([1, 3]), Matrix([[1, 2]]), "
            "span([v]), r, r.mirror)]; "
            "loaded = {'fractions', 'decimal', 'numbers'} & set(sys.modules); "
            "print(' '.join(sorted(loaded)) or '\\n'.join(texts[-2:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "Reflection(root=Vector((1, 0)), offset=1/2)\n"
            "AffineSubspaceE(Point((1/2, 0)) + LinearSubspace(R^2, [0, 1]))\n"
        )

    @no_deadline
    @given(st.data())
    def test_matrix_canonical_and_round_trip(self, data):
        n = data.draw(dims)
        rows = data.draw(st.lists(rows_of(n), min_size=1, max_size=6))
        m = Matrix(rows)
        assert_canonical(m)
        assert m.rows == tuple(tuple(r) for r in rows)
        twin = Matrix([[str(x) for x in r] for r in m.rows])
        assert (twin.num, twin.den, twin.ncols) == (m.num, m.den, m.ncols)
        assert twin == m and hash(twin) == hash(m)

    @no_deadline
    @given(st.data())
    def test_vector_arithmetic_matches_fractions(self, data):
        n = data.draw(dims)
        a, b = data.draw(rows_of(n)), data.draw(rows_of(n))
        c = data.draw(wide)
        u, v = Vector(a), Vector(b)
        for result, expected in (
            (u + v, [x + y for x, y in zip(a, b)]),
            (u - v, [x - y for x, y in zip(a, b)]),
            (-u, [-x for x in a]),
            (u.scale(c), [c * x for x in a]),
        ):
            assert_canonical(result)
            assert result.coords == tuple(expected)
        assert u.dot(v) == sum((x * y for x, y in zip(a, b)), Fraction(0))
        assert u.norm_sq() == sum((x * x for x in a), Fraction(0))
        assert [u[i] for i in range(n)] == list(u) == a

    @no_deadline
    @given(st.data())
    def test_matrix_arithmetic_matches_fractions(self, data):
        m, k, n = data.draw(dims), data.draw(dims), data.draw(dims)
        a = data.draw(st.lists(rows_of(k), min_size=m, max_size=m))
        b = data.draw(st.lists(rows_of(n), min_size=k, max_size=k))
        x = data.draw(rows_of(k))
        product = Matrix(a) * Matrix(b)
        assert_canonical(product)
        assert [list(r) for r in product.rows] == fraction_product(a, b)
        image = Matrix(a) * Vector(x)
        assert_canonical(image)
        assert list(image.coords) == [row[0] for row in fraction_product(a, [[y] for y in x])]
        transposed = Matrix(a).transpose()
        assert_canonical(transposed)
        assert transposed.rows == tuple(zip(*a))
        assert (transposed.nrows, transposed.ncols) == (k, m)


def sympy_fraction(x):
    return Fraction(int(x.p), int(x.q))


class TestAgainstSympy:
    """_rref and null_space against sympy's own exact elimination."""

    @no_deadline
    @given(st.data())
    def test_rref(self, data):
        sympy = pytest.importorskip("sympy")
        n = data.draw(dims)
        rows = data.draw(st.lists(rows_of(n), min_size=1, max_size=6))
        reduced, pivots = _rref([Vector(r).num for r in rows], n)
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert pivots == expected_pivots
        for i, ((ints, lead), p) in enumerate(zip(reduced, pivots)):
            assert lead == ints[p] > 0 and math.gcd(*ints) == 1
            assert [Fraction(v, lead) for v in ints] == [
                sympy_fraction(v) for v in expected.row(i)
            ]
        assert all(v == 0 for v in expected[len(pivots):, :])

    @no_deadline
    @given(st.data())
    def test_null_space(self, data):
        sympy = pytest.importorskip("sympy")
        n = data.draw(dims)
        rows = data.draw(st.lists(rows_of(n), min_size=1, max_size=6))
        expected = LinearSubspace(
            n, [[sympy_fraction(v) for v in k] for k in sympy.Matrix(rows).nullspace()]
        )
        assert null_space(Matrix(rows)) == expected

    @no_deadline
    @given(st.data())
    def test_particular_by_back_substitution(self, data):
        """On a consistent [A | b], rank-deficient ones included, the point
        back-substituted from the forward pass's echelon rows is the
        solution with every free variable 0 that sympy's rref reads off,
        and _solve gives that point and sympy's kernel of A."""
        sympy = pytest.importorskip("sympy")
        n = data.draw(dims)
        rows = data.draw(st.lists(rows_of(n), min_size=1, max_size=5))
        weights = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)])
        point = data.draw(st.lists(rationals, min_size=n, max_size=n))
        augmented = [r + [sum(map(Fraction.__mul__, r, point))] for r in rows]
        reduced, pivots = sympy.Matrix(augmented).rref()
        expected = [Fraction(0)] * n
        for i, p in enumerate(pivots):
            expected[p] = sympy_fraction(reduced[i, n])
        ints = [Vector(r).num for r in augmented]
        echelon, echelon_pivots = _independent(ints, n + 1)
        assert echelon_pivots == pivots and n not in pivots
        assert _particular(echelon, echelon_pivots, n) == Vector(expected)
        particular, kernel = _solve(echelon, echelon_pivots, n)
        assert particular == Vector(expected)
        assert kernel == LinearSubspace(
            n, [[sympy_fraction(v) for v in k] for k in sympy.Matrix(rows).nullspace()]
        )


def assert_span_agrees(rows, n):
    """span(rows) has the pivots and rows of sympy's rref, and equals the
    whole-stack elimination of LinearSubspace."""
    sympy = pytest.importorskip("sympy")
    u = span(rows, ambient=n)
    reduced, pivots = sympy.Matrix([list(r.coords) for r in rows]).rref()
    assert u.pivots == pivots
    assert [b.coords for b in u.basis] == [
        tuple(sympy_fraction(v) for v in reduced.row(i)) for i in range(len(pivots))
    ]
    assert u == LinearSubspace(n, rows)
    return u


def assert_echelon_agrees(rows, n):
    """The forward pass's pivots are sympy's rref pivots and its rows an
    echelon basis of the row space; _upward completes them to sympy's rref,
    and _rref, the two passes in turn, gives the same.  Returns the rank."""
    sympy = pytest.importorskip("sympy")
    expected, pivots = sympy.Matrix([list(r.coords) for r in rows]).rref()
    expected = [
        [sympy_fraction(v) for v in expected.row(i)] for i in range(len(pivots))
    ]
    ints = [r.num for r in rows]
    echelon, echelon_pivots = _independent(ints, n)
    assert echelon_pivots == pivots
    for row, p in zip(echelon, pivots):
        assert row[p] and not any(row[:p])
    assert LinearSubspace(n, echelon) == LinearSubspace(n, rows)
    for reduced, reduced_pivots in (_upward(echelon, echelon_pivots), _rref(ints, n)):
        assert reduced_pivots == pivots
        assert [[Fraction(v, lead) for v in num] for num, lead in reduced] == expected
    return len(pivots)


class TestIncrementalSpan:
    """span reduces the rows one at a time and stops at full rank; sympy's
    rref and the whole-stack elimination of LinearSubspace are its oracles."""

    @staticmethod
    def stack(rng, n, rank, late):
        """rank independent rows, padded with zero, repeated, scaled and
        dependent ones; when late, the padding depends only on the rows
        before the last one, which comes last."""
        base = [random_vector(rng, n) for _ in range(rank)]
        pool = base[:-1] if late else base
        extra = []
        for _ in range(rng.randint(1, 5)):
            kind = rng.randrange(4) if pool else 0
            if kind == 0:
                extra.append(Vector.zero(n))
            elif kind == 1:
                extra.append(rng.choice(pool))
            elif kind == 2:
                extra.append(rng.choice(pool).scale(Fraction(rng.choice([-3, 2, 5]), 7)))
            else:
                a, b = rng.choice(pool), rng.choice(pool)
                extra.append(a.scale(Fraction(rng.randint(1, 4), 3)) - b)
        if late:
            return pool + extra + base[-1:]
        if rank == n:
            return base + extra
        rows = base + extra
        rng.shuffle(rows)
        return rows

    def test_small_stacks_against_sympy(self):
        rng = random.Random(20)
        seen = set()
        for n in range(1, 9):
            for rank in range(n + 1):
                for late in (False, True) if rank == n else (False,):
                    for _ in range(4):
                        rows = self.stack(rng, n, rank, late)
                        if not any(v.is_zero() for v in rows):
                            rows.append(Vector.zero(n))
                        u = assert_span_agrees(rows, n)
                        seen.add((n, u.dim, late))
        assert all((n, n, late) in seen for n in range(1, 9) for late in (False, True))
        assert all((n, n - 1, False) in seen for n in range(1, 9))

    def test_echelon_and_rref_against_sympy(self):
        """The same kind of seeded stacks, for each pass of the one
        elimination."""
        rng = random.Random(22)
        ranks = set()
        for n in range(1, 9):
            for rank in range(n + 1):
                for late in (False, True) if rank == n else (False,):
                    for _ in range(2):
                        rows = self.stack(rng, n, rank, late)
                        ranks.add((n, assert_echelon_agrees(rows, n)))
        assert ranks == {(n, k) for n in range(1, 9) for k in range(n + 1)}

    def test_full_rank_makes_no_elimination(self, monkeypatch):
        """The forward pass that finds n independent rows is the only one,
        and it reads no row after them."""

        def refuse(*args):
            raise AssertionError("elimination called")

        for name in ("_rref", "_upward"):
            monkeypatch.setattr(linalg_module, name, refuse)
        rows = [vec(1, 2, 0), vec(2, 4, 0), vec(0, 1, 1), vec(3, 0, 1)]
        assert span(rows + [vec(5, 5, 5)]) == LinearSubspace.full(3)

        def stack():
            yield from (r.num for r in rows)
            raise AssertionError("row read past full rank")

        assert linalg_module._span(stack(), 3) == LinearSubspace.full(3)

    @pytest.mark.parametrize("dim", [16, 24])
    def test_corpus_stacks_against_sympy(self, dim):
        """Move-set and complement bases of seeded isometries, once and
        twice over: rows with large entries, where the echelon rows'
        coefficients grow."""
        moves = [move_set(w) for w in corpus(dim, 4, 7)]
        largest = 0
        for a, b in zip(moves, moves[1:] + moves[:1]):
            perp_a = orthogonal_complement(a.direction).basis
            perp_b = orthogonal_complement(b.direction).basis
            for rows in (
                [*a.direction.basis, a.mu, *perp_b],
                [*perp_a, *perp_b],
                [*a.direction.basis, *b.direction.basis],
            ):
                if rows:
                    u = assert_span_agrees(rows, dim)
                    assert assert_span_agrees(rows + rows, dim) == u
                    largest = max([largest] + [x.bit_length() for v in u.basis for x in v.num])
        assert largest > 32


class TestStackedSystem:
    """One forward pass over an augmented integer system [N | c] decides
    both answers of an all-elliptic join: a pivot in the value column
    means no solution, and the rows left of it reduce to span(N);
    otherwise the upward pass gives solve_affine's solution set."""

    @staticmethod
    def system(rng, n):
        """Rows of N of a chosen rank, padded with dependent rows, and c
        either N x for a seeded x or drawn at random."""
        rank = rng.randint(0, n)
        rows = [random_vector(rng, n) for _ in range(rank)]
        for _ in range(rng.randint(0 if rank else 1, 3)):
            weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
            rows.append(sum((r.scale(w) for r, w in zip(rows, weights)), Vector.zero(n)))
        rng.shuffle(rows)
        if rng.random() < 0.5:
            x = random_vector(rng, n)
            return rows, [r.dot(x) for r in rows]
        return rows, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in rows]

    def test_value_pivot_separates_span_from_solution(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        seen = set()
        for n in range(2, 7):
            for _ in range(40):
                rows, c = self.system(rng, n)
                a = sympy.Matrix([list(r.coords) for r in rows])
                solvable = a.rank() == a.row_join(sympy.Matrix(c)).rank()
                ints = [Vector([*r.coords, v]).num for r, v in zip(rows, c)]
                echelon, pivots = _independent(ints, n + 1)
                solution = _solve(echelon, pivots, n)
                expected = solve_affine(Matrix([r.coords for r in rows], ncols=n), Vector(c))
                seen.add((n, solvable))
                if not solvable:
                    assert pivots[-1] == n
                    assert solution is None and expected is None
                    left = [row[:n] for row in echelon[:-1]]
                    w = _subspace(n, *_upward(left, pivots[:-1]))
                    assert w == span(rows, ambient=n)
                    assert w.pivots == a.rref()[1]
                    continue
                assert not pivots or pivots[-1] < n
                assert solution == expected
                particular, kernel = solution
                assert all(r.dot(particular) == v for r, v in zip(rows, c))
                nullspace = [Vector([sympy_fraction(x) for x in v]) for v in a.nullspace()]
                assert kernel == span(nullspace, ambient=n)
        assert seen == {(n, solvable) for n in range(2, 7) for solvable in (False, True)}

class TestClosedForms:
    def test_projection_onto_a_line(self):
        """project onto a line, (b . v / b . b) b, against the formula on
        Fractions and against v minus the Gram projection onto the
        complement, which for n >= 3 has two or more basis rows."""
        rng = random.Random(43)
        for n in range(1, 9):
            for _ in range(6):
                b = random_vector(rng, n)
                if b.is_zero():
                    continue
                v = random_vector(rng, n)
                line = span([b])
                expected = b.scale(b.dot(v) / b.dot(b))
                assert project(v, line) == expected
                hyperplane = LinearSubspace(
                    n, [c.coords for c in orthogonal_complement(line).basis]
                )
                assert project(v, line) == v - project(v, hyperplane)

    def test_kernel_with_one_free_column(self):
        """The complement of a hyperplane, its one vector divided by its
        first nonzero entry, is the line of its normal as span reduces it."""
        rng = random.Random(47)
        for n in range(1, 9):
            for _ in range(6):
                normal = random_vector(rng, n)
                if normal.is_zero():
                    continue
                line = span([normal])
                fresh = LinearSubspace(
                    n, [c.coords for c in orthogonal_complement(line).basis]
                )
                perp = orthogonal_complement(fresh)
                assert perp is not line
                assert perp == line and perp.pivots == line.pivots
                rows = Matrix([c.coords for c in fresh.basis], ncols=n)
                assert perp == null_space(rows)


class TestUnitVectorKernel:
    @no_deadline
    @given(st.data())
    def test_span_of_unit_vectors(self, data):
        """The complement of scaled unit vectors is the other unit vectors."""
        n = data.draw(st.integers(1, 6))
        chosen = data.draw(st.sets(st.integers(0, n - 1)))
        scales = st.fractions(min_value=-4, max_value=4).filter(bool)
        u = span([e(n, i).scale(data.draw(scales)) for i in chosen], ambient=n)
        perp = orthogonal_complement(u)
        expected = span([e(n, f) for f in range(n) if f not in chosen], ambient=n)
        assert perp == expected
        assert perp.pivots == expected.pivots
