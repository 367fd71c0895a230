"""Model poset order, bounds, bowties, completion, and DOT export."""

import functools
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scherk.affine as affine_module
import scherk.isometry as isometry_module
import scherk.linalg as linalg_module
import scherk.poset as poset_module
from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point, intersect_affine
from scherk.factor import chain_to_factorization, factorization_to_chain
from scherk.isometry import (
    Isometry,
    Reflection,
    classify,
    interval_leq,
    reflection_bisecting,
    translation,
)
from scherk.jsonio import (
    element_from_json,
    element_to_json,
    isometry_from_json,
    isometry_to_json,
)
from scherk.linalg import (
    DimensionError,
    LinearSubspace,
    Vector,
    orthogonal_complement,
    span,
)
from scherk.oracle import (
    coordinate_universe,
    corpus,
    definitional_join,
    definitional_meet,
    image,
    random_isometry,
    random_maximal_chain,
    sample_interval,
)
from scherk.poset import (
    BoundFamily,
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    PosetError,
    covering_pairs,
    dm_join,
    dm_meet,
    find_bowtie,
    hasse_dot,
    hasse_graph,
    inv_map,
    is_bowtie,
    is_lattice,
    join,
    leq,
    meet,
    rank,
)


def vec(*coords):
    return Vector(coords)


def pt(*coords):
    return Point(coords)


def e(n, i):
    return Vector.basis(n, i)


def elliptic(point, *directions):
    n = point.dim
    return Elliptic(AffineSubspaceE(point, span(list(directions), ambient=n)))


def hyperbolic(shift, *directions):
    n = shift.dim
    return Hyperbolic(AffineSubspaceV(span(list(directions), ambient=n), shift))


def plane_top_3d():
    """Top h^M with M the plane z = 1 in the vector space."""
    return Hyperbolic(AffineSubspaceV(span([e(3, 0), e(3, 1)]), vec(0, 0, 1)))


def plane_top(n, k):
    """Top h^M with M = <e_0, ..., e_{k-1}> + e_{n-1} in R^n."""
    direction = span([e(n, i) for i in range(k)], ambient=n)
    return Hyperbolic(AffineSubspaceV(direction, e(n, n - 1)))


class TestInvMap:
    def test_identity_maps_to_full_space(self):
        assert inv_map(Isometry.identity(2)) == Elliptic(AffineSubspaceE.full(2))

    def test_translation_maps_to_point_move_set(self):
        p = inv_map(translation(vec(2, 0)))
        assert p == hyperbolic(vec(2, 0))

    def test_reflection_maps_to_mirror(self):
        mirror = AffineSubspaceE(pt(0, 0), span([e(2, 0)]))
        r = Reflection(e(2, 1), 0)
        assert inv_map(r.to_isometry()) == Elliptic(mirror)


class TestOrder:
    def test_bottom_below_every_hyperbolic(self):
        bottom = Elliptic(AffineSubspaceE.full(3))
        assert leq(bottom, plane_top_3d())

    def test_hyperbolic_never_below_elliptic(self):
        h = hyperbolic(vec(2, 0))
        for el in (
            Elliptic(AffineSubspaceE.full(2)),
            elliptic(pt(0, 0), e(2, 0)),
        ):
            assert not leq(h, el)

    def test_mixed_comparison_through_span(self):
        b = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        assert leq(b, m1)

    def test_augmented_clauses(self):
        n_e1 = New(span([e(3, 0)]))
        n_big = New(span([e(3, 0), e(3, 1)]))
        assert leq(n_e1, n_big)
        assert not leq(n_big, n_e1)
        assert leq(n_e1, plane_top_3d())
        b = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        assert leq(b, n_e1)
        assert not leq(n_e1, b)
        assert not leq(plane_top_3d(), n_big)

    def test_order_axioms_on_curated_universe(self):
        universe = coordinate_universe(3, plane_top_3d())
        elements = universe.elements
        lm = universe.leq_matrix
        n = len(elements)
        for i in range(n):
            assert lm[i][i]
        for i, j in itertools.product(range(n), repeat=2):
            if lm[i][j] and lm[j][i]:
                assert elements[i] == elements[j]
        for i, j, k in itertools.product(range(n), repeat=3):
            if lm[i][j] and lm[j][k]:
                assert lm[i][k]

    @pytest.mark.parametrize("kinds", ["ee", "eh", "en", "he", "hh", "hn", "ne", "nh", "nn"])
    def test_order_across_ambients_is_a_dimension_error(self, kinds):
        in_3d = {"e": BOTTOM_3D, "h": plane_top_3d(), "n": NEW_3D}
        in_2d = {
            "e": Elliptic(AffineSubspaceE.full(2)),
            "h": hyperbolic(vec(0, 1), e(2, 0)),
            "n": New(span([e(2, 0)])),
        }
        first, second = kinds
        for p, q in ((in_3d[first], in_2d[second]), (in_2d[first], in_3d[second])):
            with pytest.raises(DimensionError):
                leq(p, q)


def definitional_contains(ctx, p):
    """leq(p, top); an n^V also needs an augmented context and V a proper
    subspace of the top direction."""
    if isinstance(p, New):
        return (
            ctx.augmented
            and leq(p, ctx.top)
            and p.subspace.dim < ctx.top.move.direction.dim
        )
    return leq(p, ctx.top)


def membership_pool():
    """The augmented universes under the planes z = 1 and x = 1, so each
    top below sees elements it must reject, and a tilted line: its shift
    lies in the plane z = 1 and in the span of each top, but its direction
    leaves the plane."""
    tops = (plane_top_3d(), hyperbolic(vec(1, 0, 0), e(3, 1), e(3, 2)))
    pool = [p for top in tops for p in coordinate_universe(3, top, augmented=True)]
    return pool + [hyperbolic(vec(-1, 0, 1), vec(1, 0, 1))]


def membership_contexts():
    line_top = hyperbolic(vec(0, 0, 1), e(3, 0))
    for top in (plane_top_3d(), line_top):
        for augmented in (False, True):
            yield PosetContext(top=top, augmented=augmented)
    yield PosetContext(top=elliptic(pt(0, 0, 0), e(3, 0)))


class TestMembership:
    """The dot-product membership test against the definitional rule."""

    def check(self, ctx, pool):
        accepted = 0
        for p in pool:
            expected = definitional_contains(ctx, p)
            assert ctx.contains(p) == expected, p
            if expected:
                ctx.require(p)
                accepted += 1
            else:
                with pytest.raises(PosetError):
                    ctx.require(p)
        return accepted

    def test_matches_definition_on_coordinate_elements(self):
        pool = membership_pool()
        for ctx in membership_contexts():
            assert 0 < self.check(ctx, pool) < len(pool)

    @pytest.mark.parametrize("seed", (1, 3, 4))
    def test_matches_definition_on_oblique_images(self, seed):
        g = random_isometry(3, seed)
        pool = [image(g, p) for p in membership_pool()]
        for ctx in membership_contexts():
            moved = PosetContext(top=image(g, ctx.top), augmented=ctx.augmented)
            assert 0 < self.check(moved, pool) < len(pool)

    def test_ambient_mismatch_is_a_dimension_error(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        for p in (
            Elliptic(AffineSubspaceE.full(2)),
            hyperbolic(vec(0, 1), e(2, 0)),
            New(span([e(2, 0)])),
        ):
            with pytest.raises(DimensionError):
                ctx.require(p)

    # A context checks each element once and then trusts it; these pin
    # that the trust is kept per context, not per top or per element.

    def test_acceptance_elsewhere_does_not_carry_to_a_lower_top(self):
        upper = PosetContext(top=plane_top_3d(), augmented=True)
        lower = PosetContext(top=line_top_3d(), augmented=True)
        assert leq(lower.top, upper.top)
        kinds = set()
        for p in membership_pool():
            if upper.contains(p) and not lower.contains(p):
                upper.require(p)
                with pytest.raises(PosetError):
                    lower.require(p)
                kinds.add(p.kind)
        assert kinds == {"e", "h", "n"}

    def test_augmented_acceptance_does_not_carry_to_the_plain_context(self):
        top = plane_top_3d()
        augmented = PosetContext(top=top, augmented=True)
        plain = PosetContext(top=top)
        pool = membership_pool()
        news = [p for p in pool if isinstance(p, New) and augmented.contains(p)]
        assert news
        for p in news:
            augmented.require(p)
            with pytest.raises(PosetError):
                plain.require(p)
            with pytest.raises(PosetError):
                meet(p, BOTTOM_3D, plain)
            with pytest.raises(PosetError):
                join(BOTTOM_3D, p, plain)
            augmented.require(p)

    def test_rejection_is_not_remembered(self):
        ctx = PosetContext(top=line_top_3d(), augmented=True)
        rejected = [p for p in membership_pool() if not ctx.contains(p)]
        assert {p.kind for p in rejected} == {"e", "h", "n"}
        for p in rejected:
            for _ in range(2):
                with pytest.raises(PosetError):
                    ctx.require(p)

    def test_equal_contexts_give_the_same_answers(self):
        pool = membership_pool()
        for ctx in membership_contexts():
            top = element_from_json(element_to_json(ctx.top))
            twin = PosetContext(top=top, augmented=ctx.augmented)
            assert twin == ctx and twin.top is not ctx.top
            first = self.check(ctx, pool)
            assert self.check(twin, pool) == first
            assert self.check(ctx, pool) == first

    def test_acceptance_does_not_carry_across_dimensions(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        accepted = [BOTTOM_3D, plane_top_3d(), NEW_3D]
        ctx.require(*accepted)
        for other in (
            PosetContext(top=hyperbolic(vec(0, 1), e(2, 0)), augmented=True),
            PosetContext(top=Elliptic(AffineSubspaceE.full(4))),
        ):
            for p in accepted:
                with pytest.raises(DimensionError):
                    other.require(p)


class TestRank:
    def test_bottom_rank_zero(self):
        assert rank(Elliptic(AffineSubspaceE.full(3))) == 0

    def test_point_move_set_rank_two(self):
        assert rank(hyperbolic(vec(2, 0))) == 2

    def test_mirror_rank_one(self):
        assert rank(elliptic(pt(0, 0), e(2, 0))) == 1

    def test_new_rank_between(self):
        n_e1 = New(span([e(3, 0)]))
        assert rank(n_e1) == 2

    def test_context_rejects_foreign_elements(self):
        ctx = PosetContext(top=elliptic(pt(0, 0), e(2, 0)))
        with pytest.raises(PosetError):
            ctx.require(hyperbolic(vec(2, 0)))

    def test_rank_matches_reflection_length_of_preimages(self):
        rng = random.Random(121)
        from scherk.isometry import reflection_length

        for dim in (1, 2, 3):
            for w in corpus(dim, 30, rng):
                assert rank(inv_map(w)) == reflection_length(w)


class TestOrderPreservation:
    def test_descents_are_covering_in_the_poset(self):
        rng = random.Random(131)
        for dim in (2, 3):
            for w in corpus(dim, 500, rng):
                if w == Isometry.identity(dim):
                    continue
                x = next(
                    p
                    for p in AffineSubspaceE.full(dim).points()
                    if w.apply(p) != p
                )
                r = reflection_bisecting(x, w.apply(x))
                shorter = r.to_isometry().compose(w)
                low, high = inv_map(shorter), inv_map(w)
                assert leq(low, high)
                assert rank(high) - rank(low) == 1


class TestMeet:
    def test_two_points_meet_along_their_line(self):
        ctx = PosetContext(top=plane_top_3d())
        p1 = elliptic(pt(0, 0, 0))
        p2 = elliptic(pt(0, 1, 0))
        result = meet(p1, p2, ctx)
        assert result == elliptic(pt(0, 0, 0), e(3, 1))

    def test_hyperbolic_pair_with_common_point(self):
        ctx = PosetContext(top=plane_top_3d())
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        m2 = hyperbolic(vec(0, 0, 1), e(3, 1))
        result = meet(m1, m2, ctx)
        assert result == hyperbolic(vec(0, 0, 1))

    def test_disjoint_hyperbolics_give_a_family(self):
        ctx = PosetContext(top=plane_top_3d())
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        m2 = hyperbolic(vec(0, 1, 1), e(3, 0))
        result = meet(m1, m2, ctx)
        assert isinstance(result, BoundFamily)
        assert result.kind == "e"
        assert result.direction == span([e(3, 1), e(3, 2)])
        member = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        assert result.contains(member)
        assert leq(member, m1)

    def test_elliptic_with_hyperbolic(self):
        ctx = PosetContext(top=plane_top_3d())
        b = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        result = meet(b, m1, ctx)
        assert isinstance(result, Elliptic)
        assert leq(result, b) and leq(result, m1)

    def test_meet_with_comparable_pair_returns_lower(self):
        ctx = PosetContext(top=plane_top_3d())
        m_small = hyperbolic(vec(0, 0, 1), e(3, 0))
        assert meet(m_small, plane_top_3d(), ctx) == m_small


class TestJoin:
    def test_crossing_elliptics_join_at_intersection(self):
        ctx = PosetContext(top=plane_top_3d())
        b1 = elliptic(pt(0, 0, 0), e(3, 0), e(3, 2))
        b2 = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        result = join(b1, b2, ctx)
        assert result == elliptic(pt(0, 0, 0), e(3, 2))

    def test_join_with_top_is_top(self):
        ctx = PosetContext(top=plane_top_3d())
        b = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        assert join(b, plane_top_3d(), ctx) == plane_top_3d()

    def test_disjoint_parallel_mirrors_under_line_top(self):
        top = hyperbolic(vec(0, 1), e(2, 0))
        ctx = PosetContext(top=top)
        b1 = elliptic(pt(0, 0), e(2, 0))
        b2 = elliptic(pt(0, 1), e(2, 0))
        result = join(b1, b2, ctx)
        assert result == hyperbolic(vec(0, 1))

    def test_disjoint_parallel_mirrors_under_plane_top(self):
        ctx = PosetContext(top=plane_top_3d())
        b1 = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        b2 = elliptic(pt(1, 0, 0), e(3, 1), e(3, 2))
        result = join(b1, b2, ctx)
        assert isinstance(result, BoundFamily)
        assert result.kind == "h"
        assert result.direction == span([e(3, 0)])
        member = hyperbolic(vec(0, 0, 1), e(3, 0))
        assert result.contains(member)
        assert leq(b1, member) and leq(b2, member)

    def test_hyperbolic_join_is_hull(self):
        ctx = PosetContext(top=plane_top_3d())
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        m2 = hyperbolic(vec(0, 1, 1), e(3, 0))
        result = join(m1, m2, ctx)
        assert result == plane_top_3d()

    @pytest.mark.parametrize("seed", [None, 2, 5])
    def test_elliptic_join_with_a_common_point_is_the_intersection(self, seed):
        """join and dm_join of elliptics decide from one stacked system;
        with a common point it is intersect_affine's answer, and without
        one the bound is not elliptic.  seed None is the coordinate
        universe of R^3, the others its images under seeded isometries."""
        base = coordinate_universe(3, plane_top_3d(), augmented=True)
        g = Isometry.identity(3) if seed is None else random_isometry(3, seed)
        ctx = PosetContext(top=image(g, base.ctx.top), augmented=True)
        plain = PosetContext(top=ctx.top)
        ells = [image(g, p) for p in base if isinstance(p, Elliptic)]
        subsets = [*itertools.combinations_with_replacement(ells, 2)]
        rng = random.Random(0 if seed is None else seed)
        subsets += rng.sample([*itertools.combinations(ells, 3)], 300)
        common_points = 0
        for subset in subsets:
            common = intersect_affine(*(p.fix for p in subset))
            high = dm_join(subset, ctx)
            if common is None:
                assert not isinstance(high, Elliptic)
            else:
                common_points += 1
                assert high == Elliptic(common)
            if len(subset) == 2:
                low = join(*subset, plain)
                assert low == high or isinstance(low, BoundFamily)
        assert 0 < common_points < len(subsets)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_joins_under_an_elliptic_top_are_elliptic(self, dim):
        # every member contains the top's fixed point, so every pair meets
        universe = coordinate_universe(dim, elliptic(pt(*[1] * dim)))
        assert len(universe.elements) == 2**dim
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            assert isinstance(join(p, q, universe.ctx), Elliptic)


class TestLattice:
    def test_elliptic_contexts_are_lattices(self):
        ctx = PosetContext(top=elliptic(pt(0, 0, 0), e(3, 0)))
        assert is_lattice(ctx)

    def test_line_move_set_is_a_lattice(self):
        ctx = PosetContext(top=hyperbolic(vec(0, 1), e(2, 0)))
        assert is_lattice(ctx)

    def test_plane_move_set_is_not(self):
        assert not is_lattice(PosetContext(top=plane_top_3d()))

    def test_augmented_always_is(self):
        assert is_lattice(PosetContext(top=plane_top_3d(), augmented=True))


class TestBowties:
    def test_find_bowtie_matches_expected_layout(self):
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        assert a == hyperbolic(vec(0, 0, 1), e(3, 0))
        assert b == hyperbolic(vec(0, 1, 1), e(3, 0))
        assert c == elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        assert d == elliptic(pt(1, 0, 0), e(3, 1), e(3, 2))
        assert is_bowtie(a, b, c, d, ctx)

    def test_line_top_has_no_bowtie(self):
        ctx = PosetContext(top=hyperbolic(vec(0, 1), e(2, 0)))
        with pytest.raises(PosetError):
            find_bowtie(ctx)

    def test_second_direction_gives_a_distinct_bowtie(self):
        ctx = PosetContext(top=plane_top_3d())
        m1 = hyperbolic(vec(0, 0, 1), e(3, 1))
        m2 = hyperbolic(vec(1, 0, 1), e(3, 1))
        b1 = elliptic(pt(0, 0, 0), e(3, 0), e(3, 2))
        b2 = elliptic(pt(0, 1, 0), e(3, 0), e(3, 2))
        assert is_bowtie(m1, m2, b1, b2, ctx)

    def test_comparable_tuples_are_not_bowties(self):
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        assert not is_bowtie(a, a, c, d, ctx)
        assert not is_bowtie(a, b, c, c, ctx)
        assert not is_bowtie(a, plane_top_3d(), c, d, ctx)

    def test_swapped_roles_are_not_a_bowtie(self):
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        assert not is_bowtie(c, d, a, b, ctx)

    def test_augmented_context_has_no_bowties(self):
        a, b, c, d = find_bowtie(PosetContext(top=plane_top_3d()))
        assert not is_bowtie(a, b, c, d, PosetContext(plane_top_3d(), augmented=True))

    @pytest.mark.parametrize(
        "ctx",
        [
            PosetContext(top=plane_top_3d(), augmented=True),
            PosetContext(top=hyperbolic(vec(0, 1), e(2, 0))),
            PosetContext(top=elliptic(pt(0, 0, 0), e(3, 0))),
        ],
        ids=["augmented", "line-top", "elliptic-top"],
    )
    def test_lattice_fails_before_building(self, ctx, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a bowtie was built in a lattice")

        monkeypatch.setattr(poset_module, "is_bowtie", unreachable)
        monkeypatch.setattr(poset_module, "AffineSubspaceV", unreachable)
        with pytest.raises(PosetError, match="lattice"):
            find_bowtie(ctx)

    def test_meet_that_is_an_element_is_not_a_bowtie(self):
        """Crossing lines of the top meet at their common point."""
        ctx = PosetContext(top=plane_top_3d())
        a = hyperbolic(vec(0, 0, 1), e(3, 0))
        b = hyperbolic(vec(0, 0, 1), e(3, 1))
        c = elliptic(pt(0, 0, 0), e(3, 0), e(3, 1))
        d = elliptic(pt(0, 0, 1), e(3, 0), e(3, 1))
        assert meet(a, b, ctx) == hyperbolic(vec(0, 0, 1))
        assert all(leq(low, high) for low in (c, d) for high in (a, b))
        assert not is_bowtie(a, b, c, d, ctx)

    def test_lower_bounds_outside_the_meet_family_are_not_a_bowtie(self):
        """Under a plane top a lower bound of two disjoint move-sets is the
        bottom or in their meet family, so this needs dim M = 3: c and d are
        hyperplanes, and the family holds the planes of direction <e2, e3>."""
        ctx = PosetContext(top=plane_top(4, 3))
        a = hyperbolic(e(4, 3), e(4, 0), e(4, 1))
        b = hyperbolic(vec(0, 0, 1, 1), e(4, 0), e(4, 1))
        c = elliptic(pt(0, 0, 0, 0), e(4, 0), e(4, 2), e(4, 3))
        d = elliptic(pt(0, 1, 0, 0), e(4, 0), e(4, 2), e(4, 3))
        family = meet(a, b, ctx)
        assert family.direction == span([e(4, 2), e(4, 3)])
        assert all(leq(low, high) for low in (c, d) for high in (a, b))
        assert not is_bowtie(a, b, c, d, ctx)

    def test_join_that_is_an_element_is_not_a_bowtie(self, monkeypatch):
        """Once c and d lie in the meet family of a and b they are distinct
        parallel elliptics, whose join is always a family, so only a join
        replaced by one returning the top reaches this exit."""
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        monkeypatch.setattr(poset_module, "join", lambda p, q, ctx: ctx.top)
        assert not is_bowtie(a, b, c, d, ctx)

    def test_dim_three_top_also_has_bowties(self):
        top = Hyperbolic(
            AffineSubspaceV(
                span([e(4, 0), e(4, 1), e(4, 2)]), vec(0, 0, 0, 1)
            )
        )
        ctx = PosetContext(top=top)
        a, b, c, d = find_bowtie(ctx)
        assert is_bowtie(a, b, c, d, ctx)


class TestCompletion:
    def test_meet_of_disjoint_hyperbolics_is_new(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        m1 = hyperbolic(vec(0, 0, 1), e(3, 0))
        m2 = hyperbolic(vec(0, 1, 1), e(3, 0))
        assert dm_meet([m1, m2], ctx) == New(span([e(3, 0)]))

    def test_join_of_parallel_elliptics_is_new(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        b1 = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        b2 = elliptic(pt(1, 0, 0), e(3, 1), e(3, 2))
        assert dm_join([b1, b2], ctx) == New(span([e(3, 0)]))

    def test_singletons_are_fixed_points(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        for p in (
            plane_top_3d(),
            New(span([e(3, 0)])),
            elliptic(pt(0, 0, 0), e(3, 1), e(3, 2)),
        ):
            assert dm_meet([p], ctx) == p
            assert dm_join([p], ctx) == p

    def test_mixed_meet_with_new_element(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        n_u = New(span([e(3, 0)]))
        m = hyperbolic(vec(0, 0, 1), e(3, 0), e(3, 1))
        assert dm_meet([n_u, m], ctx) == n_u
        b = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        result = dm_meet([n_u, b], ctx)
        assert isinstance(result, Elliptic)
        assert leq(result, n_u) and leq(result, b)

    def test_meet_drops_to_bottom_when_directions_clash(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        n1 = New(span([e(3, 0)]))
        n2 = New(span([e(3, 1)]))
        bottom = dm_meet([n1, n2], ctx)
        assert bottom == Elliptic(AffineSubspaceE.full(3))
        assert bottom.fix is AffineSubspaceE.full(3)
        assert bottom.fix.direction is LinearSubspace.full(3)

    def test_meet_whose_hull_fills_the_space_is_the_one_full_space(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        floor = elliptic(pt(0, 0, 0), e(3, 0), e(3, 1))
        ceiling = elliptic(pt(0, 0, 1), e(3, 0), e(3, 1))
        wall = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
        for members in ([floor, ceiling], [wall, New(span([e(3, 1)]))]):
            bottom = dm_meet(members, ctx)
            assert bottom == Elliptic(AffineSubspaceE.full(3))
            assert bottom.fix is AffineSubspaceE.full(3)
            assert bottom.fix.direction is LinearSubspace.full(3)
            assert bottom.fix.anchor == Vector.zero(3)
        plain = PosetContext(top=plane_top_3d())
        assert meet(floor, ceiling, plain).fix is AffineSubspaceE.full(3)

    def test_join_of_news_sums_directions(self):
        ctx = PosetContext(top=plane_top_3d(), augmented=True)
        n1 = New(span([e(3, 0)]))
        n2 = New(span([e(3, 1)]))
        assert dm_join([n1, n2], ctx) == plane_top_3d()

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 2), (5, 2)])
    def test_bounds_off_the_model_match_definitional(self, n, k):
        """Under a top with Span(M) a proper subspace of R^n the demands
        never fill R^n, and a bound reaches the top by the dimension of
        Span(M) alone; each bound still agrees with the finite scan."""
        universe = coordinate_universe(n, plane_top(n, k), augmented=True)
        ctx = universe.ctx
        rng = random.Random(100 * n + k)
        tops = 0
        for _ in range(300):
            subset = rng.sample(universe.elements, rng.randint(1, 3))
            low, high = dm_meet(subset, ctx), dm_join(subset, ctx)
            assert all(leq(low, q) and leq(q, high) for q in subset)
            maximal = definitional_meet(subset, universe)
            assert all(leq(x, low) for x in maximal)
            if low in universe:
                assert maximal == {low}
            minimal = definitional_join(subset, universe)
            assert all(leq(high, x) for x in minimal)
            if high in universe:
                assert minimal == {high}
            tops += high == ctx.top
        assert 100 < tops < 300

    def test_plain_context_rejects_dm_ops(self):
        ctx = PosetContext(top=plane_top_3d())
        with pytest.raises(PosetError):
            dm_meet([plane_top_3d()], ctx)


def count_linalg_calls(monkeypatch, *names):
    """Calls of the named linalg functions, counted in every loaded scherk
    module that binds them, into the returned dict."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        wrap_linalg(monkeypatch, name, functools.partial(counted, name))
    return counts


def wrap_linalg(monkeypatch, name, wrap):
    """Replace the linalg function ``name`` by ``wrap`` of it in every loaded
    scherk module that binds it."""
    original = getattr(linalg_module, name)
    wrapper = wrap(original)
    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("scherk"):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)


class TestOperationBudget:
    # Elimination passes and project calls of dm_meet + dm_join over every
    # pair of the augmented plane universe.  Each elimination is a forward
    # pass (_independent) and, when a reduced basis is needed, an upward
    # pass (_upward); _rref is the two in turn, so counting the passes
    # counts every elimination whatever calls it.  RREF_BUDGET bounds the
    # upward passes, one per reduction to the reduced row echelon form.  A
    # standard form that projects or eliminates once more per subspace goes
    # over these, and so does an all-elliptic join that solves its system
    # and then spans its normals again.  PROJECT_BUDGET bounds the calls of
    # project and of _project, the projection past the trivial cases that
    # project and the standard form of an affine subspace both run; an
    # anchor already orthogonal to its direction is not projected.
    RREF_BUDGET = 851
    FORWARD_BUDGET = 1485
    PROJECT_BUDGET = 147
    # Vectors built (linalg._vec, behind every Vector the library makes) by
    # the same ops, from empty memos of the full spaces, so R^3 and E^3 are
    # built once here: a bound decided at full rank builds nothing, and the
    # bounds build no Vector per member row.
    VEC_BUDGET = 2082

    def test_completion_pairs_stay_within_budget(self, monkeypatch):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        assert len(universe) == 38
        counts = count_linalg_calls(
            monkeypatch,
            "_independent",
            "_upward",
            "project",
            "_project",
            "solve_affine",
        )
        ctx = universe.ctx
        pairs = list(itertools.combinations_with_replacement(universe.elements, 2))
        assert len(pairs) == 741
        for pair in pairs:
            dm_meet(pair, ctx)
            dm_join(pair, ctx)
        assert 0 < counts["_upward"] <= self.RREF_BUDGET
        assert 0 < counts["_independent"] <= self.FORWARD_BUDGET
        assert 0 < counts["project"] <= self.PROJECT_BUDGET
        assert 0 < counts["_project"] <= self.PROJECT_BUDGET
        assert counts["solve_affine"] == 0

    def test_reading_the_universe_back_eliminates_nothing(self, monkeypatch):
        """Every element is written in normal form, a reduced basis and an
        anchor orthogonal to it, so reading it back recognizes that form:
        no elimination pass, no projection and no kernel."""
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        written = [element_to_json(p) for p in universe]
        names = ("_independent", "_upward", "project", "_project", "_kernel")
        counts = count_linalg_calls(monkeypatch, *names)
        read = [element_from_json(doc) for doc in written]
        assert read == list(universe) and len(read) == 38
        assert counts == dict.fromkeys(names, 0)

    def test_completion_pairs_build_vectors_within_budget(self, monkeypatch):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        linalg_module._full.cache_clear()
        affine_module._full_e.cache_clear()  # E^n holds the R^n it was built on
        counts = count_linalg_calls(monkeypatch, "_vec")
        ctx = universe.ctx
        for pair in itertools.combinations_with_replacement(universe.elements, 2):
            dm_meet(pair, ctx)
            dm_join(pair, ctx)
        assert 0 < counts["_vec"] <= self.VEC_BUDGET

    def test_all_elliptic_join_is_one_forward_pass(self, monkeypatch):
        """Each join of elliptics reduces its stacked system [normals |
        values] once, and that pass decides both cases: no solve, no second
        span of the normals and no other elimination, and at most one
        upward pass, which a join that reaches the top by rank skips."""
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        ctx = universe.ctx
        ells = [p for p in universe if isinstance(p, Elliptic)]
        counts = count_linalg_calls(
            monkeypatch, "_independent", "_upward", "solve_affine", "span"
        )
        shapes = set()
        for pair in itertools.combinations_with_replacement(ells, 2):
            before = dict(counts)
            high = dm_join(pair, ctx)
            made = {name: counts[name] - before[name] for name in counts}
            assert made["_independent"] == 1
            assert made["solve_affine"] == made["span"] == 0
            assert made["_upward"] <= 1
            shapes.add((high.kind, made["_upward"]))
        assert shapes == {("e", 1), ("h", 0), ("h", 1), ("n", 1)}

    def test_a_second_join_sweep_builds_no_equation_row(self, monkeypatch):
        """Each fixed set keeps its equations [e N | N . A] once a join has
        read them: a second dm_join over the 741 pairs stacks the stored
        rows and builds none, and a join leaves them as they were."""
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        ctx = universe.ctx
        pairs = list(itertools.combinations_with_replacement(universe.elements, 2))
        assert len(pairs) == 741
        built = []
        original = affine_module._AffineSubspace._equation_rows

        def counted(space):
            fresh = space._equations is None
            rows = original(space)
            if fresh:
                built.append(len(rows))
            return rows

        monkeypatch.setattr(affine_module._AffineSubspace, "_equation_rows", counted)
        for pair in pairs:
            dm_join(pair, ctx)
        first = sum(built)
        fixes = [p.fix for p in universe if isinstance(p, Elliptic)]
        stored = [b._equations for b in fixes]
        assert 0 < len(built) <= len(fixes) and first > 0
        for b, rows in zip(fixes, stored):
            assert type(rows) is tuple and len(rows) == b.codim
            assert all(type(row) is tuple and len(row) == 4 for row in rows)
        snapshot = [[list(row) for row in rows] for rows in stored]
        for pair in pairs:
            dm_join(pair, ctx)
        assert sum(built) == first
        assert all(b._equations is rows for b, rows in zip(fixes, stored))
        assert [[list(row) for row in rows] for rows in stored] == snapshot

    def test_the_shared_full_space_has_no_equation(self):
        """E^n is built with its (empty) equations in place, so reading them
        writes no slot of the shared value."""
        for n in range(6):
            assert affine_module._full_e.__wrapped__(n)._equations == ()
            full = AffineSubspaceE.full(n)
            assert full._equations == () and full._equation_rows() == ()

    def test_the_passes_never_write_their_input_rows(self, monkeypatch):
        """_independent and _upward read the rows they are given, which may
        be the stored equations of a subspace, and never write them: every
        call of dm_meet + dm_join over the 741 pairs, and of the public
        intersections, is checked against a copy of its input."""
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        ctx = universe.ctx
        calls = dict.fromkeys(("_independent", "_upward"), 0)

        def checked(name, fn):
            def wrapper(rows, *args):
                rows = list(rows)
                before = [list(row) for row in rows]
                out = fn(rows, *args)
                assert [list(row) for row in rows] == before
                calls[name] += 1
                return out

            return wrapper

        for name in calls:
            wrap_linalg(monkeypatch, name, functools.partial(checked, name))
        for pair in itertools.combinations_with_replacement(universe.elements, 2):
            dm_meet(pair, ctx)
            dm_join(pair, ctx)
        fixes = [p.fix for p in universe if isinstance(p, Elliptic)]
        for a, b in itertools.combinations(fixes, 2):
            intersect_affine(a, b)
        assert all(calls.values())

    # leq calls of dm_meet + dm_join over every pair of the augmented plane
    # universe, its elements rebuilt from JSON so that no context has
    # checked them yet: membership is checked once per element.
    LEQ_BUDGET = 38

    def test_completion_checks_membership_once_per_element(self, monkeypatch):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        elements = [element_from_json(element_to_json(p)) for p in universe]
        calls = []
        original = leq

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for module in sys.modules.values():
            if module and module.__name__.startswith("scherk"):
                if getattr(module, "leq", None) is original:
                    monkeypatch.setattr(module, "leq", counted)
        for pair in itertools.combinations_with_replacement(elements, 2):
            dm_meet(pair, universe.ctx)
            dm_join(pair, universe.ctx)
        assert len(elements) == self.LEQ_BUDGET
        assert 0 < len(calls) <= self.LEQ_BUDGET

    # Elimination passes and orthogonal_section calls of dm_meet + dm_join
    # over a seeded sample of 1000 of the 8436 triples of the augmented
    # plane universe, as the complete workload runs them: no more
    # eliminations per op than when pinned, and a bound equal to the top is
    # not rebuilt by a section.
    TRIPLE_RREF_BUDGET = 387
    TRIPLE_FORWARD_BUDGET = 2000
    TRIPLE_SECTION_BUDGET = 114

    def test_completion_triples_stay_within_budget(self, monkeypatch):
        universe = coordinate_universe(3, plane_top_3d(), augmented=True)
        triples = list(itertools.combinations(universe.elements, 3))
        assert len(triples) == 8436
        counts = count_linalg_calls(
            monkeypatch, "_independent", "_upward", "orthogonal_section"
        )
        for triple in random.Random(12).sample(triples, 1000):
            dm_meet(triple, universe.ctx)
            dm_join(triple, universe.ctx)
        assert 0 < counts["_upward"] <= self.TRIPLE_RREF_BUDGET
        assert 0 < counts["_independent"] <= self.TRIPLE_FORWARD_BUDGET
        assert 0 < counts["orthogonal_section"] <= self.TRIPLE_SECTION_BUDGET

    # move_set and Isometry.compose calls on the chain paths, over ops
    # shaped like the benchmark's chains workload.  inv_map and the
    # interval order read the class of an isometry, not move_set; the chain
    # read places its move-sets from spans instead of classifying a suffix;
    # and both chain walks work with rank-one reflection updates, never a
    # full product.
    MOVE_SET_PER_CHAIN_OP = 0

    def test_chain_ops_stay_within_budget(self, monkeypatch):
        ops = chain_ops()
        assert len(ops) == 180
        counts = {"move_set": 0, "compose": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        original = isometry_module.move_set
        wrapper = counted("move_set", original)
        for module in sys.modules.values():
            if module and module.__name__.startswith("scherk"):
                if getattr(module, "move_set", None) is original:
                    monkeypatch.setattr(module, "move_set", wrapper)
        compose = counted("compose", Isometry.compose)
        monkeypatch.setattr(Isometry, "compose", compose)
        for w, chain, u, v in ops:
            f = chain_to_factorization(chain, w)
            assert factorization_to_chain(f) == chain
            pu, pv = inv_map(u), inv_map(v)
            assert interval_leq(w, u, v) == leq(pu, pv)
        assert counts["move_set"] <= self.MOVE_SET_PER_CHAIN_OP * len(ops)
        assert counts["compose"] == 0


def chain_ops():
    """(w, chain, u, v) for 20 corpus isometries in each of dimensions 2-4,
    with 3 random maximal chains and 3 interval members per isometry: chain
    i goes with member pair i.  Everything is rebuilt from JSON, so no
    isometry carries its invariants yet."""
    rng = random.Random(31)
    pairs = list(itertools.combinations(range(3), 2))
    ops = []
    for dim in (2, 3, 4):
        for w in corpus(dim, 20, 31):
            chains = [random_maximal_chain(w, rng) for _ in range(3)]
            samples = sample_interval(w, rng, 3)
            w = isometry_from_json(isometry_to_json(w))
            chains = [
                [element_from_json(element_to_json(p)) for p in c] for c in chains
            ]
            samples = [isometry_from_json(isometry_to_json(u)) for u in samples]
            for chain, (a, b) in zip(chains, pairs):
                ops.append((w, chain, samples[a], samples[b]))
    return ops


def line_top_3d():
    """Top h^M with M the line y = 0, z = 1; the plane z = 1 lies above it."""
    return Hyperbolic(AffineSubspaceV(span([e(3, 0)]), vec(0, 0, 1)))


def call_bound(name, members, ctx):
    functions = {"meet": meet, "join": join, "dm_meet": dm_meet, "dm_join": dm_join}
    if name in ("meet", "join"):
        return functions[name](*members, ctx)
    return functions[name](members, ctx)


BOTTOM_3D = Elliptic(AffineSubspaceE.full(3))
MIRROR_3D = elliptic(pt(0, 0, 0), e(3, 1), e(3, 2))
NEW_3D = New(span([e(3, 0)]))


class TestBoundGuards:
    """meet, join, dm_meet and dm_join share one argument check."""

    @pytest.mark.parametrize(
        "name,augmented,members",
        [
            ("meet", True, [BOTTOM_3D, MIRROR_3D]),
            ("join", True, [BOTTOM_3D, MIRROR_3D]),
            ("meet", False, [NEW_3D, BOTTOM_3D]),
            ("join", False, [BOTTOM_3D, NEW_3D]),
            ("dm_meet", False, [BOTTOM_3D]),
            ("dm_join", False, [BOTTOM_3D]),
            ("dm_meet", True, []),
            ("dm_join", True, []),
        ],
    )
    def test_wrong_context_new_element_or_empty(self, name, augmented, members):
        ctx = PosetContext(top=plane_top_3d(), augmented=augmented)
        with pytest.raises(PosetError):
            call_bound(name, members, ctx)

    @pytest.mark.parametrize("name", ["meet", "join", "dm_meet", "dm_join"])
    def test_element_above_the_top(self, name):
        ctx = PosetContext(top=line_top_3d(), augmented=name.startswith("dm_"))
        assert leq(line_top_3d(), plane_top_3d())
        with pytest.raises(PosetError):
            call_bound(name, [plane_top_3d(), BOTTOM_3D], ctx)


class TestPlainAgainstAugmented:
    def test_bounds_agree_or_leftover_becomes_new(self):
        universe = coordinate_universe(3, plane_top_3d())
        plain = universe.ctx
        augmented = PosetContext(top=plane_top_3d(), augmented=True)
        kinds = set()
        for p, q in itertools.combinations_with_replacement(universe.elements, 2):
            low, high = meet(p, q, plain), join(p, q, plain)
            if isinstance(low, BoundFamily):
                assert low.kind == "e"
                low = New(orthogonal_complement(low.direction))
            if isinstance(high, BoundFamily):
                assert high.kind == "h" and high.within == plane_top_3d().move
                high = New(high.direction)
            assert dm_meet([p, q], augmented) == low
            assert dm_join([p, q], augmented) == high
            kinds.update({type(low), type(high)})
        assert kinds == {Elliptic, Hyperbolic, New}


class TestEllipticIso:
    """Under an elliptic top e^B, e^C maps to Dir(C)^perp, a subspace of
    Dir(B)^perp; reverse inclusion of fixed sets becomes inclusion."""

    def test_top_and_bottom_map_to_extremes(self):
        assert orthogonal_complement(elliptic(pt(0, 0)).fix.direction) == (
            LinearSubspace.full(2)
        )
        bottom = Elliptic(AffineSubspaceE.full(2))
        assert orthogonal_complement(bottom.fix.direction) == span([], ambient=2)

    def test_axis_maps_to_normal_line(self):
        x_axis = elliptic(pt(0, 0), e(2, 0))
        assert orthogonal_complement(x_axis.fix.direction) == span([e(2, 1)])

    def test_round_trip_and_order_reversal(self):
        base = elliptic(pt(1, 2, 0))
        family = [
            base,
            elliptic(pt(1, 2, 0), e(3, 0)),
            elliptic(pt(1, 2, 0), e(3, 1)),
            elliptic(pt(1, 2, 0), e(3, 0), e(3, 1)),
            Elliptic(AffineSubspaceE.full(3)),
        ]
        images = [orthogonal_complement(p.fix.direction) for p in family]
        assert len(set(images)) == len(family)
        for p, s in zip(family, images):
            back = Elliptic(AffineSubspaceE(base.fix.point, orthogonal_complement(s)))
            assert back == p
        for (p, s), (q, t) in itertools.product(zip(family, images), repeat=2):
            assert leq(p, q) == s.subset_of(t)


class TestHasse:
    def test_single_node(self):
        dot = hasse_dot([Elliptic(AffineSubspaceE.full(2))])
        assert dot.count("label") == 1
        assert "->" not in dot

    def test_chain_is_a_path(self):
        bottom = Elliptic(AffineSubspaceE.full(2))
        middle = elliptic(pt(0, 0), e(2, 0))
        top = hyperbolic(vec(2, 0))
        dot = hasse_dot([bottom, middle, top])
        assert dot.count("->") == 2

    def test_bowtie_subgraph_shape(self):
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        bottom = Elliptic(AffineSubspaceE.full(3))
        dot = hasse_dot([plane_top_3d(), a, b, c, d, bottom])
        # bottom -> c, d; c, d -> a, b; a, b -> top: eight covering edges
        assert dot.count("->") == 8

    def test_new_element_sorts_between_its_bounds(self):
        bottom = Elliptic(AffineSubspaceE.full(3))
        line = New(span([e(3, 0)]))
        nodes, edges = hasse_graph([plane_top_3d(), line, bottom], top=plane_top_3d())
        assert nodes == [bottom, line, plane_top_3d()]
        assert edges == [(0, 1), (1, 2)]

    def test_declared_top_enforced(self):
        with pytest.raises(PosetError):
            hasse_dot(
                [hyperbolic(vec(2, 0))],
                top=elliptic(pt(0, 0), e(2, 0)),
            )

    @pytest.mark.parametrize(
        "top", [hyperbolic(vec(0, 1), e(2, 0)), plane_top_3d()], ids=["line", "plane"]
    )
    def test_top_direction_is_not_a_node(self, top):
        """n^{Dir M} is in no poset: the completion adds only the n^V with
        V a proper nonzero subspace of Dir M."""
        with pytest.raises(PosetError):
            hasse_dot([New(top.move.direction)], top=top)

    def test_new_top_is_rejected(self):
        with pytest.raises(PosetError):
            hasse_dot([BOTTOM_3D], top=New(span([e(3, 0)])))

    @pytest.mark.parametrize(
        "p",
        [BOTTOM_3D, plane_top_3d(), New(span([e(3, 0)]))],
        ids=["bottom", "top", "new"],
    )
    def test_equal_elements_cover_neither_way(self, p):
        assert covering_pairs([p, p]) == []
        expected = [] if p == BOTTOM_3D else [(0, 1), (0, 2)]
        assert covering_pairs([BOTTOM_3D, p, p]) == expected

    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_cover_is_the_transitive_reduction(self, n, augmented):
        """On shuffled subsets, unsorted, the cover is what the definition
        gives from every ordered pair."""
        universe = list(coordinate_universe(n, plane_top(n, n - 1), augmented=augmented))
        rng = random.Random(n + 10 * augmented)
        for _ in range(40):
            subset = rng.sample(universe, rng.randint(0, min(12, len(universe))))
            less = [[p != q and leq(p, q) for q in subset] for p in subset]
            size = range(len(subset))
            reduction = [
                (i, j)
                for i in size
                for j in size
                if less[i][j] and not any(less[i][k] and less[k][j] for k in size)
            ]
            assert covering_pairs(subset) == reduction

    def test_deterministic_output(self):
        ctx = PosetContext(top=plane_top_3d())
        a, b, c, d = find_bowtie(ctx)
        elements = [plane_top_3d(), a, b, c, d, Elliptic(AffineSubspaceE.full(3))]
        rng = random.Random(7)
        for _ in range(5):
            shuffled = elements[:]
            rng.shuffle(shuffled)
            assert hasse_dot(shuffled) == hasse_dot(elements)


def anchor_and_basis(p):
    space = p._space
    return space.basis if p.kind == "n" else (space.anchor, *space.direction.basis)


def fraction_key(p):
    """Rank, kind, then the coordinates of the anchor and the basis, each a
    Fraction: the order hasse_graph must give, taken from the definition."""
    coords = tuple(c for v in anchor_and_basis(p) for c in v.coords)
    return (rank(p), "ehn".index(p.kind), coords)


@functools.cache
def oblique_universe(n, seed):
    """The augmented universe under the top h^M, M = R^{n-1} + e_n, moved by
    a seeded random isometry, whose rational reflections give the images
    coordinates over many different denominators."""
    g = random_isometry(n, random.Random(seed))
    universe = coordinate_universe(n, plane_top(n, n - 1), augmented=True)
    return [image(g, p) for p in universe]


def denominators(p):
    return {v.den for v in anchor_and_basis(p)}


class TestHasseOrder:
    @settings(deadline=None, max_examples=60, derandomize=True, database=None)
    @given(data=st.data())
    def test_integer_keys_order_as_the_rationals(self, data):
        """hasse_graph sorts on integer keys over one common denominator;
        on oblique images, with mixed denominators, the nodes come in the
        order of the Fraction keys, and with duplicates dropped."""
        n = data.draw(st.sampled_from((3, 4)))
        elements = oblique_universe(n, data.draw(st.integers(3, 11)))
        assert len(set().union(*map(denominators, elements))) > 2
        subset = data.draw(
            st.lists(st.sampled_from(elements), min_size=1, max_size=14)
        )
        nodes, _ = hasse_graph(subset)
        assert nodes == sorted(dict.fromkeys(subset), key=fraction_key)


class TestSelfDuality:
    """delta(u) = u^-1 w reverses the interval [1, w], because reflection
    lengths add along it, so inv carries delta to an order-reversing
    bijection of the model poset below inv(w).  It is computed by inverse,
    compose and inv_map alone, so it checks leq and the bound kernels
    without a finite universe."""

    @pytest.fixture(scope="class")
    def intervals(self):
        """(kind of w, context under inv(w), delta on sampled elements) for
        the first three w of length >= 2 in each of dimensions 2-6."""
        found = []
        for dim in range(2, 7):
            tops = [w for w in corpus(dim, 12, 5) if classify(w).length >= 2][:3]
            for w in tops:
                delta = {
                    inv_map(u): inv_map(u.inverse().compose(w))
                    for u in sample_interval(w, 11, 12)
                }
                found.append((classify(w).tag, PosetContext(top=inv_map(w)), delta))
        return found

    def test_delta_reverses_order_and_carries_joins_to_meets(self, intervals):
        reversed_pairs, joins = 0, 0
        for _, ctx, delta in intervals:
            for p, q in itertools.product(delta, repeat=2):
                assert leq(p, q) == leq(delta[q], delta[p])
                reversed_pairs += 1
            for p, q in itertools.combinations(delta, 2):
                upper = join(p, q, ctx)
                if upper in delta:
                    assert meet(delta[p], delta[q], ctx) == delta[upper]
                    joins += 1
        assert {kind for kind, _, _ in intervals} == {"elliptic", "hyperbolic"}
        assert (reversed_pairs, joins) == (872, 271)

    def test_delta_carries_meets_to_joins(self, intervals):
        """On these seeds every plain meet of a sampled pair is an element,
        never a family, so families are not reached here."""
        meets, families = 0, 0
        for _, ctx, delta in intervals:
            for p, q in itertools.combinations(delta, 2):
                lower = meet(p, q, ctx)
                families += isinstance(lower, BoundFamily)
                if lower in delta:
                    assert join(delta[p], delta[q], ctx) == delta[lower]
                    meets += 1
        assert (meets, families) == (344, 0)
