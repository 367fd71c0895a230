"""Brute-force oracles versus the closed-form bound computations."""

import itertools
import random

import pytest

import scherk.poset as poset_module
from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.isometry import Isometry, interval_contains, reflection_length
from scherk.linalg import Vector, span
from scherk.oracle import (
    FiniteUniverse,
    coordinate_universe,
    definitional_join,
    definitional_meet,
    image,
    random_isometry,
    sample_interval,
    search_bowties,
)
from scherk.poset import (
    BoundFamily,
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    dm_join,
    dm_meet,
    join,
    leq,
    meet,
)


def vec(*coords):
    return Vector(coords)


def e(n, i):
    return Vector.basis(n, i)


def plane_top_3d():
    return Hyperbolic(AffineSubspaceV(span([e(3, 0), e(3, 1)]), vec(0, 0, 1)))


def line_top_2d():
    return Hyperbolic(AffineSubspaceV(span([e(2, 0)]), vec(0, 1)))


def axes_top(dim, k):
    """h^M with Dir(M) spanned by the first k axes and mu = e_{dim-1}."""
    direction = span([e(dim, i) for i in range(k)], ambient=dim)
    return Hyperbolic(AffineSubspaceV(direction, e(dim, dim - 1)))


def point_top(dim):
    anchor = Point.origin(dim)
    return Elliptic(AffineSubspaceE.single_point(anchor))


def check_meet_agreement(universe, p, q):
    """The closed form must dominate exactly the definitional lower bounds."""
    ctx = universe.ctx
    result = meet(p, q, ctx)
    maximal = definitional_meet([p, q], universe)
    if isinstance(result, BoundFamily):
        for x in maximal:
            assert result.contains(x)
        for y in universe:
            if result.contains(y):
                assert y in maximal
    else:
        assert leq(result, p) and leq(result, q)
        for x in maximal:
            assert leq(x, result)
        if result in universe:
            assert maximal == {result}


def check_join_agreement(universe, p, q):
    ctx = universe.ctx
    result = join(p, q, ctx)
    minimal = definitional_join([p, q], universe)
    assert result is not None
    if isinstance(result, BoundFamily):
        for x in minimal:
            assert result.contains(x)
        for y in universe:
            if result.contains(y):
                assert y in minimal
    else:
        assert leq(p, result) and leq(q, result)
        for x in minimal:
            assert leq(result, x)
        if result in universe:
            assert minimal == {result}


def check_dm_agreement(universe, subset):
    ctx = universe.ctx
    low = dm_meet(subset, ctx)
    maximal = definitional_meet(subset, universe)
    for q in subset:
        assert leq(low, q)
    for x in maximal:
        assert leq(x, low)
    if low in universe:
        assert maximal == {low}
    high = dm_join(subset, ctx)
    minimal = definitional_join(subset, universe)
    for q in subset:
        assert leq(q, high)
    for x in minimal:
        assert leq(high, x)
    if high in universe:
        assert minimal == {high}


class TestFiniteUniverse:
    def test_sizes_stay_exhaustive_but_small(self):
        u3 = coordinate_universe(3, plane_top_3d())
        assert 30 <= len(u3) <= 40
        u2 = coordinate_universe(2, line_top_2d())
        assert 10 <= len(u2) <= 16
        augmented = coordinate_universe(3, plane_top_3d(), augmented=True)
        assert len(augmented) == len(u3) + 2

    def test_augmented_plane_universe_checks_each_candidate_once(self, monkeypatch):
        """The same 38 elements in generation order, with one membership
        leq per candidate: the top, 27 elliptic and 19 nonlinear hyperbolic
        coordinate candidates, and the two axis lines n^V."""
        top = plane_top_3d()
        expected = [top]
        for pattern in itertools.product((None, 0, 1), repeat=3):
            free = [e(3, i) for i, c in enumerate(pattern) if c is None]
            direction = span(free, ambient=3)
            anchor = [0 if c is None else c for c in pattern]
            candidates = [Elliptic(AffineSubspaceE(Point(anchor), direction))]
            if any(anchor):
                move = AffineSubspaceV(direction, Vector(anchor))
                candidates.append(Hyperbolic(move))
            expected.extend(p for p in candidates if leq(p, top))
        expected.extend(New(span([e(3, i)])) for i in (0, 1))
        calls = []

        def counted(p, q):
            calls.append(q)
            return leq(p, q)

        monkeypatch.setattr(poset_module, "leq", counted)
        universe = coordinate_universe(3, top, augmented=True)
        assert universe.elements == tuple(dict.fromkeys(expected))
        assert len(universe) == 38
        assert len(calls) == 1 + 27 + 19 + 2

    def test_every_element_below_top(self):
        universe = coordinate_universe(3, plane_top_3d())
        for p in universe:
            assert leq(p, universe.ctx.top)

    def test_foreign_elements_rejected(self):
        universe = coordinate_universe(2, line_top_2d())
        foreign = Elliptic(
            AffineSubspaceE(Point([5, 5]), span([], ambient=2))
        )
        with pytest.raises(ValueError):
            universe.lower_bound_indices([foreign])


class TestDefinitionalBounds:
    def test_top_is_its_own_meet(self):
        universe = coordinate_universe(3, plane_top_3d())
        assert definitional_meet([universe.ctx.top], universe) == {
            universe.ctx.top
        }

    def test_single_elliptic_is_its_own_meet(self):
        universe = coordinate_universe(3, plane_top_3d())
        b = Elliptic(
            AffineSubspaceE(Point([0, 0, 0]), span([e(3, 1), e(3, 2)]))
        )
        assert definitional_meet([b], universe) == {b}

    def test_disjoint_hyperbolics_have_two_maximal_lower_bounds(self):
        universe = coordinate_universe(3, plane_top_3d())
        m1 = Hyperbolic(AffineSubspaceV(span([e(3, 0)]), vec(0, 0, 1)))
        m2 = Hyperbolic(AffineSubspaceV(span([e(3, 0)]), vec(0, 1, 1)))
        maximal = definitional_meet([m1, m2], universe)
        wall = span([e(3, 1), e(3, 2)])
        assert len(maximal) == 2
        for x in maximal:
            assert isinstance(x, Elliptic)
            assert x.fix.direction == wall


class TestSearchBowties:
    def test_elliptic_universe_is_bowtie_free(self):
        universe = coordinate_universe(2, point_top(2))
        assert search_bowties(universe) == []

    def test_line_top_universe_is_bowtie_free(self):
        universe = coordinate_universe(2, line_top_2d())
        assert search_bowties(universe) == []

    def test_plane_top_bowties_all_in_normal_form(self):
        universe = coordinate_universe(3, plane_top_3d())
        bowties = search_bowties(universe)
        assert bowties
        for a, b, c, d in bowties:
            assert isinstance(a, Hyperbolic) and isinstance(b, Hyperbolic)
            assert isinstance(c, Elliptic) and isinstance(d, Elliptic)
            u = a.move.direction
            assert b.move.direction == u
            from scherk.linalg import orthogonal_complement

            assert c.fix.direction == orthogonal_complement(u)
            assert d.fix.direction == c.fix.direction


class TestLatticeDecisionMatchesSearch:
    def test_decision_agrees_with_exhaustive_bowtie_scan(self):
        from scherk.poset import is_lattice

        universes = [
            coordinate_universe(2, line_top_2d()),
            coordinate_universe(2, point_top(2)),
            coordinate_universe(3, point_top(3)),
            coordinate_universe(3, plane_top_3d()),
        ]
        for universe in universes:
            assert is_lattice(universe.ctx) == (search_bowties(universe) == [])


class TestAgreementWithClosedForms:
    def test_meet_join_pairs_in_plane_universe(self):
        universe = coordinate_universe(3, plane_top_3d())
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            check_meet_agreement(universe, p, q)
            check_join_agreement(universe, p, q)

    def test_meet_join_pairs_in_line_universe(self):
        universe = coordinate_universe(2, line_top_2d())
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            check_meet_agreement(universe, p, q)
            check_join_agreement(universe, p, q)

    def test_meet_join_pairs_in_elliptic_universe(self):
        universe = coordinate_universe(3, point_top(3))
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            check_meet_agreement(universe, p, q)
            check_join_agreement(universe, p, q)

    def test_dm_pairs_in_augmented_universe(self):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            check_dm_agreement(universe, [p, q])

    @pytest.mark.parametrize("k", [2, 3])
    def test_meet_join_pairs_in_ambient_4_universes(self, k):
        universe = coordinate_universe(4, axes_top(4, k))
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            check_meet_agreement(universe, p, q)
            check_join_agreement(universe, p, q)

    @pytest.mark.parametrize("k", [2, 3])
    def test_dm_sampled_subsets_in_ambient_4_universes(self, k):
        universe = coordinate_universe(4, axes_top(4, k), augmented=True)
        rng = random.Random(61 + k)
        elements = universe.elements
        for _ in range(300):
            subset = rng.sample(range(len(elements)), rng.randint(1, 3))
            check_dm_agreement(universe, [elements[i] for i in subset])

    def test_dm_sampled_triples_in_augmented_universe(self):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        rng = random.Random(47)
        elements = universe.elements
        for _ in range(250):
            subset = rng.sample(range(len(elements)), 3)
            check_dm_agreement(universe, [elements[i] for i in subset])


class TestObliqueImages:
    """The closed forms off the axes: images of the coordinate universes,
    plain and augmented, under seeded isometries, with rational anchors
    and oblique directions."""

    @pytest.mark.parametrize("seed", (1, 3, 4, 7))
    def test_dm_bounds_on_isometric_images(self, seed):
        """Under the plane top of R^3, and under the tops of R^4 and R^5
        whose Span(M) is a proper subspace, so that no demand fills R^n
        and a join reaches the top by the rank of Span(M) alone."""
        for dim, count in ((3, 600), (4, 250), (5, 250)):
            base = coordinate_universe(dim, axes_top(dim, 2), augmented=True)
            g = random_isometry(dim, seed)
            ctx = PosetContext(top=image(g, base.ctx.top), augmented=True)
            universe = FiniteUniverse(ctx, [image(g, p) for p in base])
            assert len(universe) == len(base)
            rng = random.Random(seed)
            tops = 0
            for _ in range(count):
                picks = rng.sample(range(len(base)), rng.randint(1, 3))
                subset = [base.elements[i] for i in picks]
                moved = [universe.elements[i] for i in picks]
                check_dm_agreement(universe, moved)
                assert dm_meet(moved, ctx) == image(g, dm_meet(subset, base.ctx))
                high = dm_join(moved, ctx)
                assert high == image(g, dm_join(subset, base.ctx))
                tops += high == ctx.top
            assert 0 < tops < count

    @pytest.mark.parametrize("seed", (1, 3, 4, 7))
    @pytest.mark.parametrize(
        "dim,top", [(3, plane_top_3d()), (2, line_top_2d())], ids=["plane", "line"]
    )
    def test_plain_bounds_on_isometric_images(self, dim, top, seed):
        base = coordinate_universe(dim, top)
        g = random_isometry(dim, seed)
        ctx = PosetContext(top=image(g, top))
        universe = FiniteUniverse(ctx, [image(g, p) for p in base])
        assert len(universe) == len(base)

        def moved(bound):
            """g applied to an element, or to a family: its direction by the
            linear part, and an h-family lies within the moved top."""
            if not isinstance(bound, BoundFamily):
                return image(g, bound)
            within = None if bound.kind == "e" else ctx.top.move
            return BoundFamily(bound.kind, g.image_of_linear(bound.direction), within)

        pairs = itertools.combinations_with_replacement(range(len(base)), 2)
        for i, j in pairs:
            p, q = base.elements[i], base.elements[j]
            gp, gq = universe.elements[i], universe.elements[j]
            check_meet_agreement(universe, gp, gq)
            check_join_agreement(universe, gp, gq)
            assert meet(gp, gq, ctx) == moved(meet(p, q, base.ctx))
            assert join(gp, gq, ctx) == moved(join(p, q, base.ctx))


class TestGenerators:
    def test_zero_reflections_no_translation_is_identity(self):
        assert random_isometry(3, 5, reflections=0, translate=False) == Isometry.identity(3)

    def test_fixed_seed_reproduces(self):
        a = random_isometry(4, 12345)
        b = random_isometry(4, 12345)
        assert a == b
        assert sample_interval(a, 9, 5) == sample_interval(a, 9, 5)

    def test_different_seeds_differ_somewhere(self):
        outputs = {random_isometry(3, seed) for seed in range(8)}
        assert len(outputs) > 1

    def test_interval_samples_are_inside(self):
        rng = random.Random(61)
        for dim in (2, 3):
            w = random_isometry(dim, rng, reflections=dim, translate=True)
            for u in sample_interval(w, 33, 12):
                assert interval_contains(w, u)

    def test_reflection_counts_bound_length(self):
        rng = random.Random(67)
        for dim in (1, 2, 3, 4):
            for k in range(dim + 2):
                w = random_isometry(dim, rng, reflections=k, translate=False)
                assert reflection_length(w) <= k
