"""Point/vector discipline and affine subspaces in standard form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scherk.affine import (
    AffineSubspaceE,
    AffineSubspaceV,
    Point,
    hull_of_affine_e,
    hull_of_affine_v,
    intersect_affine,
    intersect_affine_v,
)
from scherk.affine import _check_hull
from scherk.linalg import DimensionError, LinearSubspace, Vector, project, span
from scherk.oracle import random_vector
from strategies import no_deadline, seeds


def vec(*coords):
    return Vector(coords)


def pt(*coords):
    return Point(coords)


def e(n, i):
    return Vector.basis(n, i)


class TestPointVectorDiscipline:
    def test_difference_of_points_is_vector(self):
        assert pt(3, 1) - pt(1, 0) == vec(2, 1)

    def test_point_plus_vector_is_point(self):
        assert pt(1, 1) + vec(0, 2) == pt(1, 3)

    def test_point_plus_point_is_an_error(self):
        with pytest.raises(TypeError):
            pt(1, 0) + pt(0, 1)


class TestStandardForm:
    def test_shift_inside_direction_vanishes(self):
        m = AffineSubspaceV(span([e(2, 1)]), vec(0, 3))
        assert m.mu == vec(0, 0)
        assert m.is_linear()

    def test_zero_direction_keeps_shift(self):
        m = AffineSubspaceV(span([], ambient=2), vec(1, 2))
        assert m.mu == vec(1, 2)

    def test_oblique_shift_loses_its_direction_part(self):
        m = AffineSubspaceV(span([e(2, 1)]), vec(1, 1))
        assert m.mu == vec(1, 0)
        assert project(m.mu, m.direction).is_zero()

    def test_idempotent(self):
        m = AffineSubspaceV(span([vec(1, 1, 0)]), vec(2, 0, 5))
        again = AffineSubspaceV(m.direction, m.mu)
        assert again == m

    def test_same_set_as_unnormalized(self):
        u = span([e(2, 1)])
        m = AffineSubspaceV(u, vec(1, 1))
        assert m.contains(vec(1, 1))
        assert m.contains(vec(1, 7))
        assert not m.contains(vec(0, 0))


def affine_hull(points):
    """The affine hull of points, as the hull of their singletons."""
    return hull_of_affine_e([AffineSubspaceE.single_point(p) for p in points])


class TestAffineHull:
    def test_single_point(self):
        b = affine_hull([pt(2, 5)])
        assert b.dim == 0
        assert b.contains(pt(2, 5))

    def test_two_points_make_a_line(self):
        b = affine_hull([pt(0, 0), pt(2, 0)])
        assert b.dim == 1
        assert b.direction == span([e(2, 0)])

    def test_three_points_make_a_plane(self):
        b = affine_hull([pt(0, 0, 0), pt(1, 1, 0), pt(2, 0, 0)])
        assert b.dim == 2
        assert b.direction == span([e(3, 0), e(3, 1)])

    def test_order_and_redundancy_independent(self):
        points = [pt(0, 0, 1), pt(1, 0, 1), pt(0, 1, 1)]
        b = affine_hull(points)
        rng = random.Random(17)
        for _ in range(10):
            shuffled = points[:]
            rng.shuffle(shuffled)
            inside = shuffled[0] + (shuffled[1] - shuffled[0]).scale(Fraction(1, 3))
            assert affine_hull(shuffled + [inside]) == b

    def test_nested_hull_extension(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 5)
            base = [Point([rng.randint(-3, 3) for _ in range(n)])]
            b_small = affine_hull(base)
            extra = base + [Point([rng.randint(-3, 3) for _ in range(n)])]
            b_big = affine_hull(extra)
            assert b_small.subset_of(b_big)
            assert b_small.direction.subset_of(b_big.direction)


class TestIntersectAffine:
    def test_crossing_lines(self):
        x_axis = AffineSubspaceE(pt(0, 0), span([e(2, 0)]))
        y_axis = AffineSubspaceE(pt(0, 0), span([e(2, 1)]))
        meet = intersect_affine(x_axis, y_axis)
        assert meet == AffineSubspaceE.single_point(pt(0, 0))

    def test_parallel_lines_are_disjoint(self):
        y0 = AffineSubspaceE(pt(0, 0), span([e(2, 0)]))
        y1 = AffineSubspaceE(pt(0, 1), span([e(2, 0)]))
        assert intersect_affine(y0, y1) is None

    def test_planes_meet_in_a_line(self):
        x1 = AffineSubspaceE(pt(1, 0, 0), span([e(3, 1), e(3, 2)]))
        y1 = AffineSubspaceE(pt(0, 1, 0), span([e(3, 0), e(3, 2)]))
        meet = intersect_affine(x1, y1)
        assert meet is not None
        assert meet.dim == 1
        assert meet.contains(pt(1, 1, 0)) and meet.contains(pt(1, 1, 5))

    def test_v_side_intersection(self):
        m1 = AffineSubspaceV(span([e(3, 0)]), vec(0, 0, 1))
        m2 = AffineSubspaceV(span([e(3, 1)]), vec(1, 0, 1))
        meet = intersect_affine_v(m1, m2)
        assert meet is not None
        assert meet.dim == 0
        assert meet.mu == vec(1, 0, 1)
        parallel = AffineSubspaceV(span([e(3, 0)]), vec(0, 1, 1))
        assert intersect_affine_v(m1, parallel) is None


class TestPublicErrorPaths:
    """The checks of the public hulls and intersections, whatever private
    pass runs after them."""

    plane_point = AffineSubspaceE.single_point(pt(1, 2))
    space_line = AffineSubspaceE(pt(0, 0, 1), span([e(3, 0)]))
    plane_shift = AffineSubspaceV(span([e(2, 0)]), vec(0, 1))
    space_shift = AffineSubspaceV(span([e(3, 0)]), vec(0, 0, 1))
    message = "affine hull of subspaces of different dimensions"

    def test_hulls_reject_a_subspace_of_another_ambient(self):
        e_pair = [self.plane_point, self.space_line]
        v_pair = [self.plane_shift, self.space_shift]
        for inputs in (e_pair, e_pair[::-1]):
            with pytest.raises(DimensionError, match=self.message):
                hull_of_affine_e(inputs)
        for inputs in (v_pair, v_pair[::-1]):
            with pytest.raises(DimensionError, match=self.message):
                hull_of_affine_v(inputs)

    def test_hull_rejects_a_direction_of_another_ambient(self):
        """No public subspace pairs an anchor with a direction of another
        ambient, so the direction's own check is reached through _check_hull."""
        mixed = [span([], ambient=2), LinearSubspace.full(1)]
        for directions in ([span([e(3, 0)])], mixed):
            with pytest.raises(DimensionError, match=self.message):
                _check_hull([vec(0, 0)], directions)

    def test_hulls_of_nothing_are_errors(self):
        with pytest.raises(ValueError, match="empty"):
            hull_of_affine_e([])
        with pytest.raises(ValueError, match="empty"):
            hull_of_affine_v([])

    def test_intersections_reject_mixed_ambients(self):
        with pytest.raises(DimensionError):
            intersect_affine(self.plane_point, self.space_line)
        with pytest.raises(DimensionError):
            intersect_affine(self.space_line, self.space_line, self.plane_point)
        with pytest.raises(DimensionError):
            intersect_affine_v(self.plane_shift, self.space_shift)

    def test_intersections_reject_a_mix_of_e_and_v(self):
        with pytest.raises(TypeError):
            intersect_affine(self.plane_point, self.plane_shift)
        with pytest.raises(TypeError):
            intersect_affine_v(self.plane_shift, self.plane_point)

    def test_intersections_of_nothing_are_errors(self):
        with pytest.raises(ValueError, match="empty"):
            intersect_affine()
        with pytest.raises(ValueError, match="empty"):
            intersect_affine_v()

    def test_full_space_of_negative_dimension_is_an_error(self):
        with pytest.raises(DimensionError):
            LinearSubspace.full(-1)
        with pytest.raises(DimensionError):
            AffineSubspaceE.full(-1)


class TestContainsPoint:
    def test_singleton_contains_itself(self):
        b = AffineSubspaceE.single_point(pt(1, 2))
        assert b.contains(pt(1, 2))

    def test_axis_misses_offset_point(self):
        x_axis = AffineSubspaceE(pt(0, 0), span([e(2, 0)]))
        assert not x_axis.contains(pt(0, 1))

    def test_barycentric_combination_stays_inside(self):
        simplex_plane = affine_hull([pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)])
        third = Fraction(1, 3)
        assert simplex_plane.contains(pt(third, third, third))

    def test_point_of_wrong_dimension_is_an_error(self):
        x_axis = AffineSubspaceE(pt(0, 0), span([e(2, 0)]))
        with pytest.raises(DimensionError):
            x_axis.contains(pt(0, 0, 0))

    def test_accessors(self):
        plane = AffineSubspaceE(pt(0, 0, 4), span([e(3, 0), e(3, 1)]))
        assert plane.dim == 2
        assert plane.codim == 1
        assert plane.direction == span([e(3, 0), e(3, 1)])


class TestCanonicalRepresentative:
    def test_canonical_point_is_orthogonal_to_direction(self):
        b = AffineSubspaceE(pt(3, 5), span([e(2, 0)]))
        assert b.point == pt(0, 5)

    def test_equality_is_representation_free(self):
        direction = span([vec(1, 1, 0)])
        b1 = AffineSubspaceE(pt(0, 0, 2), direction)
        b2 = AffineSubspaceE(pt(5, 5, 2), direction)
        assert b1 == b2

    def test_e_and_v_with_equal_coordinates_differ(self):
        direction = span([vec(1, 1, 0)])
        b = AffineSubspaceE(pt(5, 5, 2), direction)
        m = AffineSubspaceV(direction, vec(5, 5, 2))
        assert b.anchor == m.anchor and b.direction == m.direction
        assert b != m and m != b
        assert len({b, m}) == 2

    def test_hull_of_subspaces(self):
        b1 = AffineSubspaceE(pt(0, 0), span([], ambient=2))
        b2 = AffineSubspaceE(pt(0, 1), span([], ambient=2))
        hull = hull_of_affine_e([b1, b2])
        assert hull.dim == 1
        assert hull.contains(pt(0, 5))


def gram_projection(v, vectors):
    """The projection of v onto the span of independent vectors, from the
    normal equations G c = (b_i . v) solved by Gauss-Jordan on Fractions."""
    k = len(vectors)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    rows = [[dot(b, c) for c in vectors] + [dot(b, v)] for b in vectors]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [sum(row[k] * b[i] for row, b in zip(rows, vectors)) for i in range(len(v))]


class TestAnchorFromEitherSide:
    def test_anchor_is_the_gram_residual(self):
        """The stored anchor, projected from whichever side is smaller, is
        v minus its Gram projection onto the direction, for every direction
        dimension 0..n in dims 1-8."""
        rng = random.Random(41)
        for n in range(1, 9):
            for d in range(n + 1):
                for _ in range(3):
                    while True:
                        vectors = [
                            [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                            for _ in range(d)
                        ]
                        direction = span([Vector(b) for b in vectors], ambient=n)
                        if direction.dim == d:
                            break
                    v = [
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(n)
                    ]
                    offset = gram_projection(v, vectors) if d else [0] * n
                    expected = Vector([x - y for x, y in zip(v, offset)])
                    assert AffineSubspaceE(Point(v), direction).anchor == expected
                    assert AffineSubspaceV(direction, Vector(v)).anchor == expected


class TestOneFullSpace:
    def test_full_space_is_one_shared_value(self):
        """E^n is one value per dimension, on the one shared R^n, and a
        hull that fills the space returns it."""
        for n in range(9):
            full = AffineSubspaceE.full(n)
            assert full is AffineSubspaceE.full(n)
            assert full.direction is LinearSubspace.full(n)
            assert full.anchor == Vector.zero(n)
            points = [AffineSubspaceE.single_point(Point(e(n, i))) for i in range(n)]
            origin = AffineSubspaceE.single_point(Point.origin(n))
            assert hull_of_affine_e([origin] + points) is full


class TestHullOfAffineV:
    @no_deadline
    @given(st.integers(1, 5), st.integers(1, 4), seeds)
    def test_hull_holds_its_inputs_and_is_least(self, n, count, seed):
        """Every anchor and anchor + basis vector of each input lies in the
        hull, and the hull lies in the hull of any superset of the inputs."""
        rng = random.Random(seed)

        def subspace():
            k = rng.randint(0, n)
            direction = span([random_vector(n, rng) for _ in range(k)], ambient=n)
            return AffineSubspaceV(direction, random_vector(n, rng))

        inputs = [subspace() for _ in range(count)]
        hull = hull_of_affine_v(inputs)
        for m in inputs:
            assert hull.contains(m.mu)
            for b in m.direction.basis:
                assert hull.contains(m.mu + b)
            assert m.subset_of(hull)
        superset = inputs + [subspace()]
        rng.shuffle(superset)
        assert hull.subset_of(hull_of_affine_v(superset))

