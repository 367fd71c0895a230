"""Isometry algebra: invariants, classification, products with reflections."""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import factor
from scherk.isometry import (
    ELLIPTIC,
    HYPERBOLIC,
    Isometry,
    IsometryClass,
    OrthogonalityError,
    Reflection,
    _motion,
    _rows,
    classify,
    interval_contains,
    interval_leq,
    min_set,
    move_set,
    predict_product,
    reflection_bisecting,
    reflection_distance,
    reflection_length,
    standard_splitting,
    translation,
)
from scherk.linalg import (
    DimensionError,
    LinearSubspace,
    Matrix,
    Vector,
    orthogonal_complement,
    span,
)
from scherk.oracle import corpus, random_isometry, random_reflection, sample_interval
from strategies import isometries, no_deadline, seeds


def vec(*coords):
    return Vector(coords)


def pt(*coords):
    return Point(coords)


def e(n, i):
    return Vector.basis(n, i)


def mirror(point, normal):
    return AffineSubspaceE(point, orthogonal_complement(span([normal])))


def glide():
    return Isometry(Matrix([[1, 0], [0, -1]]), vec(1, 0))


def half_turn():
    return Isometry(Matrix([[-1, 0], [0, -1]]), vec(0, 0))


class TestConstruction:
    def test_non_orthogonal_matrix_rejected(self):
        with pytest.raises(OrthogonalityError):
            Isometry(Matrix([[1, 0], [0, 2]]), vec(0, 0))

    def test_group_axioms_on_random_products(self):
        rng = random.Random(5)
        for w in corpus(3, 40, rng):
            assert w.compose(w.inverse()) == Isometry.identity(3)
            assert w.inverse().compose(w) == Isometry.identity(3)
        a, b, c = corpus(2, 3, 99)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestReflections:
    def test_reflect_across_x_axis(self):
        r = Reflection(e(2, 1), 0)
        assert r.to_isometry().apply(pt(0, 1)) == pt(0, -1)

    def test_reflect_across_shifted_line(self):
        r = Reflection(e(2, 0), 1)
        assert r.to_isometry().apply(pt(0, 0)) == pt(2, 0)

    def test_translations_cancel(self):
        t = translation(vec(2, 0))
        back = translation(vec(-2, 0))
        assert t.compose(back) == Isometry.identity(2)

    def test_reflection_is_involution(self):
        rng = random.Random(31)
        for dim in (1, 2, 3, 4):
            for _ in range(20):
                r = random_reflection(dim, rng).to_isometry()
                assert r.compose(r) == Isometry.identity(dim)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            Reflection(Vector.zero(2), 0)


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestReflectionValue:
    """A reflection keeps the value of its mirror root . x = p / q as two
    ints in lowest terms with q > 0 (q = 1 when p = 0); ``offset`` is the
    Fraction p / q, the value given scaled as the normal is to the root."""

    @given(st.lists(rationals, min_size=1, max_size=4), rationals)
    @example([-2, 0], Fraction(-1))
    @example([0, Fraction(-3, 4)], Fraction(0))
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def test_value_is_lowest_terms(self, normal, value):
        normal = Vector(normal)
        assume(not normal.is_zero())
        r = Reflection(normal, value)
        assert type(r.p) is int and type(r.q) is int
        assert r.q > 0 and math.gcd(r.p, r.q) == 1
        assert r.offset == Fraction(r.p, r.q) and type(r.offset) is Fraction
        i = next(i for i, x in enumerate(normal.num) if x)
        assert r.offset == value * r.root[i] / normal[i]

    def test_int_and_string_values_build_the_same_reflection(self):
        for value in (3, "3", " 3 ", Fraction(3), "6/2", "3.0"):
            assert Reflection(vec(2, -4), value) == Reflection(vec(1, -2), Fraction(3, 2))
        assert Reflection(vec(2, -4), True) == Reflection(vec(1, -2), Fraction(1, 2))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Vector([1, 0.5]), id="Vector"),
        pytest.param(lambda: Matrix([[1.0, 0], [0, 1]]), id="Matrix"),
        pytest.param(lambda: Point([0.5, 0]), id="Point"),
        pytest.param(lambda: LinearSubspace(2, [[0.5, 1]]), id="LinearSubspace"),
        pytest.param(lambda: vec(1, 0).scale(0.5), id="Vector.scale"),
        pytest.param(lambda: Reflection(vec(1, 0), 0.5), id="Reflection"),
    ],
)
def test_floats_rejected(build):
    """Every predicate is exact: a float raises instead of being rounded
    into a coordinate or compared with one."""
    with pytest.raises(TypeError):
        build()


class TestBisectingReflection:
    def test_horizontal_bisector(self):
        r = reflection_bisecting(pt(0, 0), pt(2, 0))
        assert r.mirror == mirror(pt(1, 0), e(2, 0))
        assert r.to_isometry().apply(pt(0, 0)) == pt(2, 0)
        assert r.to_isometry().apply(pt(2, 0)) == pt(0, 0)

    def test_vertical_bisector(self):
        r = reflection_bisecting(pt(0, 0), pt(0, 2))
        assert r.mirror == mirror(pt(0, 1), e(2, 1))

    def test_symmetric_in_arguments(self):
        assert reflection_bisecting(pt(1, 3), pt(4, -1)) == reflection_bisecting(
            pt(4, -1), pt(1, 3)
        )

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            reflection_bisecting(pt(1, 1), pt(1, 1))


class TestMoveSet:
    def test_identity_moves_nothing(self):
        m = move_set(Isometry.identity(2))
        assert m.dim == 0 and m.is_linear()

    def test_glide_move_set(self):
        m = move_set(glide())
        assert m.direction == span([e(2, 1)])
        assert m.mu == vec(1, 0)
        assert not m.is_linear()

    def test_half_turn_moves_everywhere(self):
        m = move_set(half_turn())
        assert m.direction == LinearSubspace.full(2)
        assert m.is_linear()


class TestMinSet:
    def test_reflection_min_set_is_mirror(self):
        h = mirror(pt(1, 0), e(2, 0))
        assert min_set(Reflection(e(2, 0), 1).to_isometry()) == h

    def test_identity_min_set_is_everything(self):
        assert min_set(Isometry.identity(3)) == AffineSubspaceE.full(3)

    def test_glide_min_set_is_axis(self):
        assert min_set(glide()) == AffineSubspaceE(pt(0, 0), span([e(2, 0)]))


class TestClassify:
    def test_identity(self):
        cls = classify(Isometry.identity(2))
        assert cls.tag == ELLIPTIC and cls.length == 0

    def test_translation(self):
        cls = classify(translation(vec(2, 0)))
        assert cls.tag == HYPERBOLIC
        assert cls.move_set.dim == 0
        assert cls.length == 2

    def test_glide_and_half_turn(self):
        assert classify(glide()).length == 3
        assert classify(glide()).tag == HYPERBOLIC
        assert classify(half_turn()).length == 2
        assert classify(half_turn()).tag == ELLIPTIC


class TestStandardSplitting:
    def test_translation_splits_trivially(self):
        mu, u = standard_splitting(translation(vec(3, 1)))
        assert mu == vec(3, 1)
        assert u == Isometry.identity(2)

    def test_glide_splits_into_shift_and_mirror(self):
        mu, u = standard_splitting(glide())
        assert mu == vec(1, 0)
        assert u == Reflection(e(2, 1), 0).to_isometry()
        assert translation(mu).compose(u) == glide()

    def test_elliptic_splits_as_itself(self):
        w = half_turn()
        mu, u = standard_splitting(w)
        assert mu.is_zero()
        assert u is w

    def test_splitting_invariants_on_corpus(self):
        for dim in (1, 2, 3):
            for w in corpus(dim, 30, seed=dim):
                mu, u = standard_splitting(w)
                assert translation(mu).compose(u) == w
                ucls = classify(u)
                assert ucls.tag == ELLIPTIC
                assert ucls.move_set.direction == move_set(w).direction
                assert ucls.min_set == min_set(w)


class TestPredictProduct:
    def test_translation_killed_by_inner_mirror(self):
        w = translation(vec(2, 0))
        r = Reflection(e(2, 0), 1)
        prediction = predict_product(r, w)
        assert (prediction.tag, prediction.length) == (ELLIPTIC, 1)
        product = r.to_isometry().compose(w)
        assert classify(product).length == 1

    def test_translation_grows_to_glide(self):
        w = translation(vec(2, 0))
        r = Reflection(e(2, 1), 0)
        prediction = predict_product(r, w)
        assert (prediction.tag, prediction.length) == (HYPERBOLIC, 3)

    def test_half_turn_grows_to_glide(self):
        r = Reflection(e(2, 1), 1)
        prediction = predict_product(r, half_turn())
        assert (prediction.tag, prediction.length) == (HYPERBOLIC, 3)
        product = r.to_isometry().compose(half_turn())
        assert product.apply(pt(0, 0)) == pt(0, 2)

    def test_agreement_with_direct_computation(self):
        rng = random.Random(71)
        for dim in (2, 3, 4):
            for w in corpus(dim, 60, rng):
                r = random_reflection(dim, rng)
                prediction = predict_product(r, w)
                actual = classify(r.to_isometry().compose(w))
                assert prediction.tag == actual.tag
                assert prediction.length == actual.length
                if prediction.move_set is not None:
                    assert prediction.move_set == actual.move_set
                else:
                    within = prediction.move_set_within
                    assert actual.move_set.subset_of(within)
                    assert actual.move_set.dim == within.dim - 1


class TestReflectionsBelow:
    def test_inner_mirror_is_below_translation(self):
        w = translation(vec(2, 0))
        r = Reflection(e(2, 0), 1)
        assert reflection_length(r.compose(w)) < reflection_length(w)

    def test_axis_mirror_is_not_below_translation(self):
        w = translation(vec(2, 0))
        r = Reflection(e(2, 1), 0)
        assert not reflection_length(r.compose(w)) < reflection_length(w)

    def test_motion_reflection_bisects(self):
        w = translation(vec(2, 0))
        x = pt(0, 0)
        r = reflection_bisecting(x, w.apply(x))
        assert r == Reflection(e(2, 0), 1)
        assert reflection_length(r.compose(w)) < reflection_length(w)

    def test_motion_reflection_is_the_bisector_on_corpus(self):
        """The walks' motion reflection, on integer rows, is the bisector
        of x and w(x), and None where w fixes x."""
        rng = random.Random(14)
        for dim in (1, 2, 3, 4, 5):
            for w in corpus(dim, 12, rng):
                for _ in range(3):
                    x = Point(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(dim)
                    )
                    y = w.apply(x)
                    r = _motion(_rows(w), x.vector.num, x.vector.den)
                    assert r == (None if y == x else reflection_bisecting(x, y))

    def test_motion_reflection_is_below_on_corpus(self):
        rng = random.Random(13)
        for dim in (1, 2, 3):
            for w in corpus(dim, 25, rng):
                if w == Isometry.identity(dim):
                    continue
                x = next(
                    p
                    for p in AffineSubspaceE.full(dim).points()
                    if w.apply(p) != p
                )
                r = reflection_bisecting(x, w.apply(x))
                assert reflection_length(r.compose(w)) < reflection_length(w)


class TestIntervals:
    def test_identity_is_always_inside(self):
        for w in corpus(2, 10, seed=3):
            assert interval_contains(w, Isometry.identity(2))

    def test_endpoint_is_inside(self):
        for w in corpus(2, 10, seed=4):
            assert interval_contains(w, w)

    def test_half_translation_mirror(self):
        w = translation(vec(2, 0))
        r = Reflection(e(2, 0), 1).to_isometry()
        assert interval_contains(w, r)
        assert interval_leq(w, Isometry.identity(2), r)
        assert interval_leq(w, r, w)
        assert not interval_leq(w, w, r)

    def test_mixed_dimensions_raise(self):
        """An isometry of another dimension raises in every position, also
        where the lengths alone would answer (here 0, 1 and 3 in each
        dimension)."""
        isometries = [
            Isometry.identity(2),
            Reflection(e(2, 0), 1).to_isometry(),
            glide(),
            Isometry.identity(3),
            Reflection(e(3, 1), 0).to_isometry(),
            translation(vec(1, 0, 0)).compose(Reflection(e(3, 2), 0).to_isometry()),
        ]
        assert [reflection_length(w) for w in isometries] == [0, 1, 3] * 2
        for ours, odd in itertools.product(isometries, repeat=2):
            if ours.dim == odd.dim:
                continue
            for position in range(3):
                args = [ours] * 3
                args[position] = odd
                with pytest.raises(DimensionError):
                    interval_leq(*args)
            for args in ((odd, ours), (ours, odd)):
                with pytest.raises(DimensionError):
                    interval_contains(*args)


class TestIntervalOrderDefinition:
    def test_orders_match_the_sums(self):
        """Both orders against the literal sums l(u) + d(u, w) = l(w) and
        l(u) + d(u, u2) + d(u2, w) = l(w), on every ordered pair of a pool
        of members of [1, w], w itself, the identity and isometries outside
        [1, w], for seeded w in dims 2-6."""
        seen = collections.Counter()
        for dim in range(2, 7):
            rng = random.Random(dim)
            for w in corpus(dim, 6, rng):
                pool = [
                    *sample_interval(w, rng, 4),
                    w,
                    Isometry.identity(dim),
                    *corpus(dim, 2, rng),
                ]
                top = reflection_length(w)
                for u in pool:
                    inside = reflection_length(u) + reflection_distance(u, w) == top
                    assert interval_contains(w, u) == inside
                    seen["outside"] += not inside
                for u, u2 in itertools.product(pool, repeat=2):
                    below = (
                        reflection_length(u)
                        + reflection_distance(u, u2)
                        + reflection_distance(u2, w)
                    ) == top
                    assert interval_leq(w, u, u2) == below
                    seen["below"] += below
                    seen["u == u2"] += u == u2
                    seen["u2 == w"] += u != u2 and u2 == w
                    seen["equal lengths"] += u != u2 and (
                        reflection_length(u) == reflection_length(u2)
                    )
        assert min(seen.values()) >= 20, seen


class TestInvariantSuite:
    def test_complementary_orthogonal_invariants(self):
        rng = random.Random(83)
        for dim in range(1, 7):
            for w in corpus(dim, 40, rng):
                cls = classify(w)
                mov, mn = cls.move_set, cls.min_set
                assert mov.dim + mn.dim == dim
                total = span(
                    list(mov.direction.basis) + list(mn.direction.basis), ambient=dim
                )
                assert total == LinearSubspace.full(dim)
                for a in mov.direction.basis:
                    for b in mn.direction.basis:
                        assert a.dot(b) == 0
                mu = mov.mu
                for x in mn.points():
                    assert w.apply(x) - x == mu
                assert w.image_of_affine(mn) == mn

    def test_motion_is_affine_in_the_point(self):
        rng = random.Random(19)
        for dim in (2, 3):
            for w in corpus(dim, 20, rng):
                x = Point([rng.randint(-3, 3) for _ in range(dim)])
                y = Point([rng.randint(-3, 3) for _ in range(dim)])
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                combo = Point(
                    c * a + (1 - c) * b
                    for a, b in zip(x.coords, y.coords)
                )
                motion = (w.apply(combo) - combo)
                expected = (w.apply(x) - x).scale(c) + (w.apply(y) - y).scale(1 - c)
                assert motion == expected

    def test_parity_flips_under_reflection(self):
        rng = random.Random(29)
        for dim in (1, 2, 3, 4):
            for w in corpus(dim, 25, rng):
                r = random_reflection(dim, rng)
                before = reflection_length(w)
                after = reflection_length(r.to_isometry().compose(w))
                assert abs(after - before) == 1

    def test_move_set_transition(self):
        rng = random.Random(37)
        for dim in (2, 3, 4):
            for w in corpus(dim, 30, rng):
                r = random_reflection(dim, rng)
                mov = move_set(w)
                product_mov = move_set(r.to_isometry().compose(w))
                if mov.direction.contains(r.root):
                    assert product_mov.subset_of(mov)
                    assert product_mov.dim == mov.dim - 1
                else:
                    grown = AffineSubspaceV(
                        span([*mov.direction.basis, r.root]), mov.mu
                    )
                    assert product_mov == grown

    def test_descent_shapes(self):
        rng = random.Random(41)
        for dim in (2, 3):
            for w in corpus(dim, 40, rng):
                if w == Isometry.identity(dim):
                    continue
                x = next(
                    p
                    for p in AffineSubspaceE.full(dim).points()
                    if w.apply(p) != p
                )
                r = reflection_bisecting(x, w.apply(x))
                product = r.to_isometry().compose(w)
                wcls = classify(w)
                pcls = classify(product)
                assert pcls.length == wcls.length - 1
                if wcls.tag == ELLIPTIC:
                    assert pcls.tag == ELLIPTIC
                    assert wcls.min_set.subset_of(pcls.min_set)
                    assert pcls.min_set.dim == wcls.min_set.dim + 1
                elif pcls.tag == HYPERBOLIC:
                    assert pcls.move_set.subset_of(wcls.move_set)
                    assert pcls.move_set.dim == wcls.move_set.dim - 1
                else:
                    assert pcls.min_set.direction == wcls.move_set.span_complement()

    def test_rebasing_leaves_invariant_dimensions_alone(self):
        # conjugating by a translation moves the basepoint; the invariant
        # data moves with it and the type and length are unchanged
        rng = random.Random(43)
        for w in corpus(3, 20, rng):
            shift = translation(Vector([rng.randint(-3, 3) for _ in range(3)]))
            conjugated = shift.compose(w).compose(shift.inverse())
            assert classify(conjugated).tag == classify(w).tag
            assert classify(conjugated).length == classify(w).length


def _random_pairs(seed, count):
    """(reflection, isometry) pairs in dimensions 1..6."""
    rng = random.Random(seed)
    for dim in range(1, 7):
        for _ in range(count):
            yield random_reflection(dim, rng), random_isometry(dim, rng)


class TestHyperplaneForm:
    def test_rank_one_product_matches_matrix_product(self):
        for r, w in _random_pairs(61, 15):
            assert r.compose(w) == r.to_isometry().compose(w)

    def test_to_isometry_fixes_mirror_and_flips_root(self):
        for r, _ in _random_pairs(62, 10):
            iso = r.to_isometry()
            for p in r.mirror.points():
                assert iso.apply(p) == p
            assert iso.apply_vector(r.root) == -r.root

    def test_rebuilding_from_mirror_gives_same_reflection(self):
        for r, _ in _random_pairs(63, 10):
            m = r.mirror
            normal = orthogonal_complement(m.direction).basis[0]
            again = Reflection(normal, normal.dot(m.point.vector))
            assert again == r
            assert hash(again) == hash(r)
            k = Fraction(-3, 2)
            rescaled = Reflection(r.root.scale(k), k * r.offset)
            assert rescaled == r and hash(rescaled) == hash(r)

    def test_equal_exactly_when_mirrors_equal(self):
        rng = random.Random(64)
        for dim in range(1, 7):
            # small coordinates, so that some pairs share a mirror
            pool = [
                reflection_bisecting(
                    Point(rng.randint(-1, 1) for _ in range(dim)),
                    Point(rng.randint(2, 3) for _ in range(dim)),
                )
                for _ in range(12)
            ]
            for r1 in pool:
                for r2 in pool:
                    assert (r1 == r2) == (r1.mirror == r2.mirror)

    def test_conjugate_is_sandwich_product(self):
        rng = random.Random(65)
        for dim in range(1, 7):
            for _ in range(10):
                r, s = random_reflection(dim, rng), random_reflection(dim, rng)
                sandwich = r.compose(s.compose(r.to_isometry()))
                assert s.conjugate(r).to_isometry() == sandwich
                assert s.conjugate(s) == s
        with pytest.raises(DimensionError):
            s.conjugate(random_reflection(dim + 1, rng))


class TestInvariantsOnce:
    def test_class_slot_ignored_by_equality(self):
        rng = random.Random(66)
        for dim in range(1, 7):
            for _ in range(10):
                w = random_isometry(dim, rng)
                copy = Isometry(w.matrix, w.translation)
                assert w == copy and hash(w) == hash(copy)
                cls = classify(w)
                assert w == copy and hash(w) == hash(copy)
                assert cls == classify(copy)
                assert classify(w) is cls

    def test_move_set_is_hull_of_unit_point_motions(self):
        # Mov(w) is the affine hull of the motions of any affinely spanning
        # set of points; the origin and the unit points are one.
        rng = random.Random(67)
        for dim in range(1, 7):
            for _ in range(10):
                w = random_isometry(dim, rng)
                points = [Point.origin(dim)] + [
                    Point(Vector.basis(dim, i)) for i in range(dim)
                ]
                motions = [w.apply(x) - x for x in points]
                hull = AffineSubspaceV(
                    span([m - motions[0] for m in motions[1:]], ambient=dim),
                    motions[0],
                )
                assert move_set(w) == hull

    def test_min_set_points_move_by_mu(self):
        rng = random.Random(68)
        for dim in range(1, 7):
            for _ in range(10):
                w = random_isometry(dim, rng)
                cls = classify(w)
                assert cls.min_set.dim == dim - cls.move_set.dim
                for x in cls.min_set.points():
                    assert w.apply(x) - x == cls.move_set.mu

    def test_translation_mirrors_are_the_min_set_mirrors(self):
        """The canonical min-set point lies in U = Dir(Mov) and mu is
        orthogonal to U, so mu . anchor = 0: the closed-form mirrors are
        those through the min-set point and its mu/2 translate."""
        rng = random.Random(69)
        hyperbolic = 0
        for dim in range(2, 9):
            for w in corpus(dim, 15, rng):
                mov = move_set(w)
                if mov.is_linear():
                    continue
                hyperbolic += 1
                anchor = min_set(w).anchor
                assert mov.direction.contains(anchor)
                near_value = mov.mu.dot(anchor)
                assert near_value == 0
                through_min_set = (
                    Reflection(mov.mu, near_value + mov.mu.norm_sq() / 2),
                    Reflection(mov.mu, near_value),
                )
                assert factor(w).factors[:2] == through_min_set
        assert hyperbolic > 40

    def test_min_set_read_or_not_is_the_same_value(self):
        """Equality, hash and repr of a class do not depend on whether its
        move-set or min-set was read before, and match the class built
        whole by the public constructor."""
        rng = random.Random(70)
        for dim in range(1, 7):
            for w in corpus(dim, 10, rng):

                def fresh():
                    return classify(Isometry(w.matrix, w.translation))

                moved, read = fresh(), fresh()
                assert moved.move_set.mu == moved.mu
                whole = IsometryClass(
                    read.tag, read.move_set, read.min_set, read.length
                )
                assert whole.mu == read.mu
                for other in (moved, read, whole):
                    assert fresh() == other and other == fresh()
                    assert hash(fresh()) == hash(other)
                    assert repr(fresh()) == repr(other)


def quotient_length(u, v):
    """l(u^-1 v) by the definition: the inverse, the product, its class."""
    return reflection_length(u.inverse().compose(v))


class TestReflectionDistance:
    @no_deadline
    @given(st.data())
    def test_is_length_of_quotient(self, data):
        u = data.draw(isometries())
        v = data.draw(isometries(u.dim))
        assert reflection_distance(u, v) == quotient_length(u, v)

    @no_deadline
    @given(st.data())
    def test_metric_axioms(self, data):
        u = data.draw(isometries())
        v = data.draw(isometries(u.dim))
        w = data.draw(isometries(u.dim))
        assert reflection_distance(u, u) == 0
        assert reflection_distance(u, v) == reflection_distance(v, u)
        assert reflection_distance(u, w) <= (
            reflection_distance(u, v) + reflection_distance(v, w)
        )

    @no_deadline
    @given(st.data())
    def test_interval_orders_match_definitions(self, data):
        w = data.draw(isometries())
        members = sample_interval(w, data.draw(seeds), 2)
        members.append(data.draw(isometries(w.dim)))
        total = reflection_length(w)
        for u in members:
            inside = reflection_length(u) + quotient_length(u, w) == total
            assert interval_contains(w, u) == inside
            for u2 in members:
                between = (
                    reflection_length(u)
                    + quotient_length(u, u2)
                    + quotient_length(u2, w)
                ) == total
                assert interval_leq(w, u, u2) == between
