"""Minimal factorizations, chain conversions, and rewriting moves."""

import importlib
import json
import pathlib
import random
import sys

import pytest
from hypothesis import given

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point, intersect_affine
from scherk.factor import (
    ChainError,
    Factorization,
    _peel,
    chain_to_factorization,
    factor,
    factorization_to_chain,
    hurwitz,
    hurwitz_inverse,
    rewrite_shift,
    verify_minimal,
)
from scherk.isometry import (
    Isometry,
    Reflection,
    _image,
    _motion,
    _rows,
    classify,
    interval_leq,
    product,
    reflection_distance,
    reflection_length,
    standard_splitting,
    translation,
)
from scherk.jsonio import isometry_from_json, isometry_to_json
from scherk.linalg import (
    DimensionError,
    LinearSubspace,
    Matrix,
    Vector,
    orthogonal_complement,
    span,
)
from scherk.oracle import (
    corpus,
    definitional_peel,
    first_unfixed_point,
    random_isometry,
    random_maximal_chain,
    random_minimal_factorization,
    random_reflection,
    sample_interval,
)
from scherk.poset import Elliptic, Hyperbolic, inv_map, leq, rank
from strategies import isometries, no_deadline, seeds


def patch_everywhere(monkeypatch, original, replacement):
    """Bind ``replacement`` in place of the function ``original`` in every
    loaded scherk module that binds it under its own name."""
    name = original.__name__
    for module in list(sys.modules.values()):
        if module.__name__.startswith("scherk") and (
            getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, replacement)


def vec(*coords):
    return Vector(coords)


def pt(*coords):
    return Point(coords)


def e(n, i):
    return Vector.basis(n, i)


def mirror(point, normal):
    return AffineSubspaceE(point, orthogonal_complement(span([normal])))


def half_turn():
    return Isometry(Matrix([[-1, 0], [0, -1]]), vec(0, 0))


def glide():
    return Isometry(Matrix([[1, 0], [0, -1]]), vec(1, 0))


def screw():
    """Quarter turn about the z-axis, then a unit shift along it."""
    return Isometry(Matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), vec(0, 0, 1))


def line_element(point, direction):
    return Hyperbolic(AffineSubspaceV(span([vec(*direction)]), vec(*point)))


def below_screw_step():
    """Elements below the translation by (2, 0, 1) and its move-set."""
    shift = vec(2, 0, 1)
    return [
        Hyperbolic(AffineSubspaceV(LinearSubspace.zero(3), shift)),
        Elliptic(AffineSubspaceE(pt(0, 0, 0), orthogonal_complement(span([shift])))),
    ]


class TestFactorElliptic:
    def test_identity_factors_empty(self):
        f = factor(Isometry.identity(3))
        assert len(f) == 0
        assert verify_minimal(f)

    def test_half_turn_with_explicit_chain(self):
        """A chosen chain of fixed sets is walked as the elements e^B."""
        chain = [
            Elliptic(AffineSubspaceE.single_point(pt(0, 0))),
            Elliptic(AffineSubspaceE(pt(0, 0), span([e(2, 0)]))),
            Elliptic(AffineSubspaceE.full(2)),
        ]
        f = chain_to_factorization(chain, half_turn())
        assert [r.mirror for r in f.factors] == [
            mirror(pt(0, 0), e(2, 0)),
            mirror(pt(0, 0), e(2, 1)),
        ]
        assert f.is_exact()

    def test_single_reflection_factors_as_itself(self):
        r = Reflection(vec(1, 1), 3)
        f = factor(r.to_isometry())
        assert len(f) == 1
        assert f.factors[0] == r

    def test_unfixed_point_scan_is_full_space_scan(self):
        rng = random.Random(71)
        for dim in range(1, 7):
            for w in corpus(dim, 10, rng) + [Isometry.identity(dim)]:
                scan = AffineSubspaceE.full(dim).points()
                expected = next((x for x in scan if w.apply(x) != x), None)
                assert first_unfixed_point(w) == expected

    def test_rejects_bad_chains(self):
        w = half_turn()
        fix = Elliptic(AffineSubspaceE.single_point(pt(0, 0)))
        full = Elliptic(AffineSubspaceE.full(2))
        with pytest.raises(ChainError):
            chain_to_factorization([fix, full], w)
        with pytest.raises(ChainError):
            chain_to_factorization(
                [
                    Elliptic(AffineSubspaceE.single_point(pt(5, 5))),
                    Elliptic(AffineSubspaceE(pt(0, 0), span([e(2, 0)]))),
                    full,
                ],
                w,
            )
        with pytest.raises(ChainError):
            chain_to_factorization(
                [fix, Elliptic(AffineSubspaceE(pt(0, 7), span([e(2, 0)]))), full], w
            )


class TestPeelAgainstOracle:
    """factor's one-pass peel against the definitional rescanning peel."""

    @staticmethod
    def cases():
        """Identities, single reflections, pure translations, and a corpus,
        in dimensions 1-12: past the benchmark's 2-6, the blocks the peel
        updates are larger."""
        rng = random.Random(72)
        for dim in range(1, 13):
            yield Isometry.identity(dim)
            for _ in range(3):
                yield random_isometry(dim, rng, reflections=1, translate=False)
                yield random_isometry(dim, rng, reflections=0, translate=True)
            yield from corpus(dim, 12, rng)

    def test_factor_equals_definitional_peel(self):
        hyperbolic = 0
        for w in self.cases():
            factors = factor(w).factors
            if classify(w).is_elliptic:
                assert factors == definitional_peel(w)
            else:
                hyperbolic += 1
                _, u = standard_splitting(w)
                assert factors[2:] == definitional_peel(u)
                assert factor(u).factors == factors[2:]
        assert hyperbolic >= 40

    def test_peel_past_the_length_raises(self):
        """The peel stops at l(u) factors; asked for more, it runs out of
        columns and raises instead of returning a short factorization."""
        elliptic = [w for w in self.cases() if classify(w).is_elliptic][::6]
        elliptic += [half_turn(), Reflection(vec(3, 4), 5).to_isometry()]
        for w in elliptic:
            length = reflection_length(w)
            assert _peel(w, length) == factor(w).factors
            with pytest.raises(ValueError):
                _peel(w, length + 1)
        assert len(elliptic) == 24

    def test_definitional_peel_stops_on_a_broken_reflection(self, monkeypatch):
        """With a reflection that multiplies in as the identity the product
        never changes; the oracle raises after dim + 1 reflections instead
        of looping."""
        monkeypatch.setattr(Reflection, "compose", lambda r, w: w)
        for w in (half_turn(), glide(), screw()):
            with pytest.raises(ValueError):
                definitional_peel(w)

    def test_golden_elliptic_part_is_oblique_and_translated(self):
        doc = pathlib.Path(__file__).parent / "data" / "hyperbolic5.json"
        w = isometry_from_json(json.loads(doc.read_text()))
        _, u = standard_splitting(w)
        assert not classify(w).is_elliptic
        assert not u.translation.is_zero()
        assert u.matrix.den > 1
        assert factor(w).factors[2:] == definitional_peel(u)


def interval_triples():
    """(w, u, v) with u and v drawn from [1, w], for 10 corpus isometries in
    each of dimensions 2-6, every isometry classified."""
    rng = random.Random(107)
    triples = []
    for dim in range(2, 7):
        for w in corpus(dim, 10, rng):
            u, v = sample_interval(w, rng, 2)
            triples.append((w, u, v))
    for triple in triples:
        for x in triple:
            classify(x)
    return triples


class TestOperationBudget:
    @pytest.fixture
    def calls(self):
        return []

    @pytest.fixture
    def counted(self, calls):
        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        return counted

    def test_factor_composes_nothing(self, monkeypatch, calls, counted):
        """The peel works on integer rows: no product, no motion reflection."""
        monkeypatch.setattr(
            Reflection, "compose", counted("Reflection.compose", Reflection.compose)
        )
        monkeypatch.setattr(
            Isometry, "compose", counted("Isometry.compose", Isometry.compose)
        )
        patch_everywhere(monkeypatch, _motion, counted("_motion", _motion))
        rng = random.Random(73)
        ws = [w for dim in range(2, 7) for w in corpus(dim, 20, rng)]
        calls.clear()
        lengths = [len(factor(w)) for w in ws]
        assert calls == []
        assert sum(lengths) > 200

    def test_classify_and_factor_build_no_min_set(self, monkeypatch, calls, counted):
        """Scherk's formula reads only the rank and mu, and the translation
        mirrors are a closed form: one forward pass per isometry, and no
        upward pass, projection, complement, min-set or matrix product."""
        rng = random.Random(89)
        ws = [
            isometry_from_json(isometry_to_json(w))
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        linalg = importlib.import_module("scherk.linalg")
        names = ("_independent", "_upward", "_rref", "orthogonal_complement", "project")
        for name in names:
            original = getattr(linalg, name)
            patch_everywhere(monkeypatch, original, counted(name, original))
        monkeypatch.setattr(
            AffineSubspaceE,
            "__init__",
            counted("AffineSubspaceE", AffineSubspaceE.__init__),
        )
        monkeypatch.setattr(
            Matrix, "__mul__", counted("Matrix.__mul__", Matrix.__mul__)
        )
        hyperbolic = 0
        for w in ws:
            calls.clear()
            hyperbolic += not classify(w).is_elliptic
            factor(w)
            assert calls == ["_independent"]
        assert hyperbolic > 20

    def test_move_set_basis_is_built_on_its_first_read(
        self, monkeypatch, calls, counted
    ):
        """The reduced basis of Dir(Mov) is one upward pass over the rows
        of the forward pass, made on the first read of move_set and kept."""
        rng = random.Random(97)
        ws = [
            isometry_from_json(isometry_to_json(w))
            for dim in range(1, 7)
            for w in corpus(dim, 10, rng)
        ]
        linalg = importlib.import_module("scherk.linalg")
        for name in ("_independent", "_upward", "_rref"):
            original = getattr(linalg, name)
            patch_everywhere(monkeypatch, original, counted(name, original))
        for w in ws:
            calls.clear()
            cls = classify(w)
            assert calls == ["_independent"]
            first = cls.move_set
            assert calls == ["_independent", "_upward"]
            assert cls.move_set is first
            assert calls == ["_independent", "_upward"]
            assert first.mu is cls.mu
            assert first.dim == cls.length - (0 if cls.is_elliptic else 2)

    def test_chain_walk_checks_order_once(self, monkeypatch, calls, counted):
        """The step certificate is the walk's only order check, and each
        hyperplane is one closed form: no leq, no conjugate, no transpose."""
        rng = random.Random(83)
        walks = [
            (random_maximal_chain(w, rng), w)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        patch_everywhere(monkeypatch, leq, counted("leq", leq))
        monkeypatch.setattr(
            Reflection, "conjugate", counted("conjugate", Reflection.conjugate)
        )
        monkeypatch.setattr(
            Matrix, "transpose", counted("transpose", Matrix.transpose)
        )
        steps = sum(len(chain_to_factorization(*walk)) for walk in walks)
        assert calls == []
        assert (len(walks), steps) == (100, 309)

    def test_chain_read_makes_no_order_check(self, monkeypatch, calls, counted):
        """Reading the suffix chain off a minimal factorization needs no order
        check: an exact product of Scherk length steps down one reflection
        at a time."""
        rng = random.Random(97)
        fs = [
            random_minimal_factorization(w, rng)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        patch_everywhere(monkeypatch, leq, counted("leq", leq))
        steps = sum(len(factorization_to_chain(f)) - 1 for f in fs)
        assert calls == []
        assert (len(fs), steps) == (100, 307)

    def test_elliptic_chain_step_scans_its_frame_once(self, monkeypatch, calls):
        """A step down to e^B computes the image of each point of B's frame
        (its canonical point, then its basis translates) up to the first one
        it moves, once, on integer rows, and takes the reflection from that
        image; the certificate applies the linear part to the basis vectors
        past that point only.  So under an elliptic top a walk computes
        exactly dim B + 1 integer-row images a step, none twice, and makes
        no matrix-vector product.  The bottom step computes its scan images
        only: the origin's, and when the last mirror passes through the
        origin, those of e_0 up to the first unit point off it."""
        rng = random.Random(79)
        walks = [
            (random_maximal_chain(w, rng), w)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
            if classify(w).is_elliptic
        ]
        lasts = [
            chain_to_factorization(chain, w).factors[-1]
            for chain, w in walks
            if len(chain) > 1
        ]

        def scanned(r):
            return 1 if r.offset else 2 + next(k for k, a in enumerate(r.root.num) if a)

        budget = sum(p.fix.dim + 1 for chain, _ in walks for p in chain[1:-1])
        budget += sum(map(scanned, lasts))
        multiply = Matrix.__mul__

        def count_vector_products(matrix, other):
            if isinstance(other, Vector):
                calls.append("Matrix * Vector")
            return multiply(matrix, other)

        def count_images(rows, v):
            calls.append("_image")
            return _image(rows, v)

        monkeypatch.setattr(Matrix, "__mul__", count_vector_products)
        patch_everywhere(monkeypatch, _image, count_images)
        steps = sum(len(chain_to_factorization(*walk)) for walk in walks)
        assert calls == ["_image"] * budget
        assert (len(walks), steps, budget) == (62, 159, 442)

    def test_chain_walks_build_no_isometry_per_step(self, monkeypatch, calls, counted):
        """Both walks keep their products as integer rows, and the read
        places its move-sets from spans: neither the walk down a chain nor
        the read builds an Isometry."""
        rng = random.Random(109)
        walks = [
            (random_maximal_chain(w, rng), w)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        fs = [chain_to_factorization(*walk) for walk in walks]
        isometry = importlib.import_module("scherk.isometry")
        patch_everywhere(
            monkeypatch, isometry._isometry, counted("_isometry", isometry._isometry)
        )
        monkeypatch.setattr(
            Isometry, "__init__", counted("Isometry", Isometry.__init__)
        )
        steps = sum(len(chain_to_factorization(*walk)) for walk in walks)
        assert calls == []
        for f in fs:
            factorization_to_chain(f)
            assert calls == []
        assert (len(walks), steps) == (100, 330)

    def test_chain_read_classifies_only_the_target(self, monkeypatch, calls, counted):
        """The length check classifies the target, and every other element
        of the read is a cut fixed set or a placed span: one invariant
        elimination for a target rebuilt from JSON, and none at all once
        the target carries its class.  The length is the rank of that
        elimination's forward pass, so under an elliptic target, whose
        move-set the read never places, no upward pass is made."""
        rng = random.Random(113)
        fs = [
            random_minimal_factorization(w, rng)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        fresh = [
            Factorization(isometry_from_json(isometry_to_json(f.target)), f.factors)
            for f in fs
        ]
        isometry = importlib.import_module("scherk.isometry")
        linalg = importlib.import_module("scherk.linalg")
        for original in (isometry._invariants, linalg._upward):
            name = original.__name__
            patch_everywhere(monkeypatch, original, counted(name, original))
        hyperbolic = 0
        for f in fresh:
            calls.clear()
            chain = factorization_to_chain(f)
            if isinstance(chain[0], Hyperbolic):
                hyperbolic += 1
                assert calls.count("_invariants") == 1
            else:
                assert calls == ["_invariants"]
            calls.clear()
            assert factorization_to_chain(f) == chain
            assert "_invariants" not in calls
        assert (len(fresh), hyperbolic) == (100, 37)

    def test_elliptic_chain_read_projects_nothing(self, monkeypatch, calls, counted):
        """Under an elliptic target the read walks an orthogonal frame: each
        fixed set's canonical point is a closed form, so no projection, no
        elimination and no AffineSubspaceE constructor."""
        rng = random.Random(103)
        fs = [
            random_minimal_factorization(w, rng)
            for dim in range(2, 7)
            for w in corpus(dim, 20, rng)
        ]
        elliptic = [f for f in fs if classify(f.target).is_elliptic]
        linalg = importlib.import_module("scherk.linalg")
        for name in ("_rref", "_upward", "project"):
            original = getattr(linalg, name)
            patch_everywhere(monkeypatch, original, counted(name, original))
        monkeypatch.setattr(
            AffineSubspaceE,
            "__init__",
            counted("AffineSubspaceE", AffineSubspaceE.__init__),
        )
        steps = sum(len(factorization_to_chain(f)) - 1 for f in elliptic)
        assert calls == []
        assert (len(fs), len(elliptic), steps) == (100, 55, 147)

    def test_interval_leq_reduces_nothing(self, monkeypatch, calls, counted):
        """reflection_distance reads its two ranks off the pivots of a
        forward elimination, so the interval order of classified isometries
        makes no _rref call and no upward pass."""
        triples = interval_triples()
        linalg = importlib.import_module("scherk.linalg")
        for name in ("_rref", "_upward"):
            original = getattr(linalg, name)
            patch_everywhere(monkeypatch, original, counted(name, original))
        below = sum(interval_leq(*t) for t in triples)
        assert calls == []
        assert (len(triples), below) == (50, 24)

    def test_interval_leq_decides_by_length_first(self, monkeypatch, calls, counted):
        """The lengths settle a pair out of order or of equal length, so
        the same triples make 22 distances instead of two per triple."""
        triples = interval_triples()
        patch_everywhere(
            monkeypatch,
            reflection_distance,
            counted("reflection_distance", reflection_distance),
        )
        below = sum(interval_leq(*t) for t in triples)
        assert (len(triples), below, len(calls)) == (50, 24, 22)

    def test_rewrite_shift_builds_no_isometry(self, monkeypatch, calls, counted):
        """Each swap is one Hurwitz move, whose conjugate is a closed form on
        the two roots: no product, no reflection matrix, no matrix product."""
        rng = random.Random(91)
        shifts = []
        for dim in range(2, 7):
            for w in corpus(dim, 20, rng):
                f = random_minimal_factorization(w, rng)
                if len(f) >= 2:
                    positions = rng.sample(range(len(f)), rng.randint(1, len(f) - 1))
                    shifts.append((f, positions, rng.random() < 0.5))
        for name in ("compose", "to_isometry"):
            original = getattr(Reflection, name)
            monkeypatch.setattr(Reflection, name, counted(name, original))
        monkeypatch.setattr(
            Matrix, "__mul__", counted("Matrix.__mul__", Matrix.__mul__)
        )
        moved = [rewrite_shift(*shift) for shift in shifts]
        assert calls == []
        changed = sum(g.factors != f.factors for (f, _, _), g in zip(shifts, moved))
        assert (len(shifts), changed) == (88, 56)


class TestFactorHyperbolic:
    def test_translation_mirrors(self):
        f = factor(translation(vec(2, 0)))
        assert [r.mirror for r in f.factors] == [
            mirror(pt(1, 0), e(2, 0)),
            mirror(pt(0, 0), e(2, 0)),
        ]
        assert f.is_exact()

    def test_glide_needs_three(self):
        f = factor(glide())
        assert len(f) == 3
        assert f.is_exact()
        assert verify_minimal(f)

    def test_one_dimensional_translation(self):
        f = factor(translation(Vector([3])))
        assert len(f) == 2
        assert f.is_exact()
        assert all(r.mirror.dim == 0 for r in f.factors)


class TestChainToFactorization:
    def test_translation_through_elliptic_chain(self):
        w = translation(vec(2, 0))
        chain = [
            Hyperbolic(classify(w).move_set),
            Elliptic(AffineSubspaceE(pt(0, 0), span([e(2, 1)]))),
            Elliptic(AffineSubspaceE.full(2)),
        ]
        f = chain_to_factorization(chain, w)
        assert [r.mirror for r in f.factors] == [
            mirror(pt(1, 0), e(2, 0)),
            mirror(pt(0, 0), e(2, 0)),
        ]
        assert verify_minimal(f)

    def test_half_turn_chain_has_matching_suffixes(self):
        w = half_turn()
        chain = [
            Elliptic(AffineSubspaceE.single_point(pt(0, 0))),
            Elliptic(AffineSubspaceE(pt(0, 0), span([e(2, 0)]))),
            Elliptic(AffineSubspaceE.full(2)),
        ]
        f = chain_to_factorization(chain, w)
        assert factorization_to_chain(f) == chain

    def test_trivial_chain_for_identity(self):
        w = Isometry.identity(2)
        f = chain_to_factorization([Elliptic(AffineSubspaceE.full(2))], w)
        assert len(f) == 0

    def test_rejects_wrong_top(self):
        with pytest.raises(ChainError):
            chain_to_factorization([Elliptic(AffineSubspaceE.full(2))], half_turn())

    def test_rejects_rank_gaps(self):
        w = half_turn()
        with pytest.raises(ChainError):
            chain_to_factorization(
                [
                    Elliptic(AffineSubspaceE.single_point(pt(0, 0))),
                    Elliptic(AffineSubspaceE.full(2)),
                ],
                w,
            )

    @pytest.mark.parametrize("index", [1, 2])
    def test_rejects_an_entry_of_another_dimension(self, index):
        """An entry of another dimension is named as such when the walk
        reaches it, after the steps above it have been taken."""
        w = screw()
        chain = random_maximal_chain(w, 5)
        chain[index] = Elliptic(AffineSubspaceE(pt(0, 0), span([e(2, 0)])))
        with pytest.raises(ChainError, match="dimension other than the isometry's"):
            chain_to_factorization(chain, w)


class TestFactorizationToChain:
    def test_identity_gives_singleton_chain(self):
        f = Factorization(target=Isometry.identity(2), factors=())
        assert factorization_to_chain(f) == [Elliptic(AffineSubspaceE.full(2))]

    def test_translation_chain_tops_out_at_move_set(self):
        w = translation(vec(2, 0))
        chain = factorization_to_chain(factor(w))
        assert len(chain) == 3
        assert chain[0] == Hyperbolic(classify(w).move_set)

    def test_single_reflection(self):
        r = Reflection(e(2, 1), 0)
        f = Factorization(target=r.to_isometry(), factors=(r,))
        assert factorization_to_chain(f) == [
            Elliptic(r.mirror),
            Elliptic(AffineSubspaceE.full(2)),
        ]

    def test_rejects_non_minimal(self):
        r = Reflection(e(2, 1), 0)
        doubled = Factorization(target=Isometry.identity(2), factors=(r, r))
        with pytest.raises(ChainError):
            factorization_to_chain(doubled)

    def test_rejects_wrong_product(self):
        r = Reflection(e(2, 1), 0)
        wrong = Factorization(target=Isometry.identity(2), factors=(r,))
        with pytest.raises(ChainError, match="do not multiply to the target"):
            factorization_to_chain(wrong)

    @pytest.mark.parametrize("other", [2, 4])
    def test_rejects_factors_of_another_dimension(self, other):
        """A factor of another dimension is a DimensionError from the first
        product that meets it, not a wrong product: its rows are never cut
        to the target's."""
        w = screw()
        factors = factor(w).factors
        stray = Reflection(e(other, 0), 0)
        for mixed in (
            (stray,) * len(factors),
            factors[:-1] + (stray,),
            (stray,) + factors[1:],
        ):
            f = Factorization(target=w, factors=mixed)
            with pytest.raises(DimensionError):
                factorization_to_chain(f)
            with pytest.raises(DimensionError):
                f.product()


class TestRewriteShift:
    def test_shift_second_mirror_to_front(self):
        f = factor(translation(vec(2, 0)))
        shifted = rewrite_shift(f, [1], to_front=True)
        assert shifted.factors[0] == f.factors[1]
        assert shifted.is_exact()
        assert len(shifted) == len(f)

    def test_all_positions_unchanged(self):
        f = factor(glide())
        assert rewrite_shift(f, [0, 1, 2]).factors == f.factors

    def test_empty_positions_unchanged(self):
        f = factor(glide())
        assert rewrite_shift(f, []).factors == f.factors

    def test_out_of_range_rejected(self):
        f = factor(glide())
        with pytest.raises(IndexError):
            rewrite_shift(f, [5])

    @pytest.mark.parametrize("to_front", [True, False])
    def test_positions_read_once(self, to_front):
        f = factor(glide())
        once = rewrite_shift(f, (p for p in [0, 2]), to_front=to_front)
        assert once.factors == rewrite_shift(f, [0, 2], to_front=to_front).factors

    def test_shift_to_back_preserves_target(self):
        rng = random.Random(55)
        for w in corpus(3, 15, rng):
            if reflection_length(w) < 2:
                continue
            f = factor(w)
            positions = [0]
            back = rewrite_shift(f, positions, to_front=False)
            assert back.factors[-1] == f.factors[0]
            assert back.is_exact()
            assert all(
                reflection_length(r.compose(w)) < reflection_length(w)
                for r in back.factors
            )

    def test_several_positions_to_front_and_back(self):
        rng = random.Random(57)
        for dim in (2, 3, 4):
            for w in corpus(dim, 12, rng):
                f = random_minimal_factorization(w, rng)
                if len(f) < 3:
                    continue
                count = rng.randint(2, len(f) - 1)
                positions = sorted(rng.sample(range(len(f)), count))
                chosen = [f.factors[i] for i in positions]
                front = rewrite_shift(f, positions, to_front=True)
                back = rewrite_shift(f, positions, to_front=False)
                assert list(front.factors[: len(chosen)]) == chosen
                assert list(back.factors[-len(chosen) :]) == chosen
                for shifted in (front, back):
                    assert shifted.is_exact()
                    assert len(shifted) == len(f)


class TestHurwitz:
    """The braid group acts on minimal factorizations, one chain element per
    move: sigma_i maps (a, b) at i, i + 1 to (a b a, a), its inverse to
    (b, b a b)."""

    @pytest.fixture(scope="class")
    def factorizations(self):
        """One seeded minimal factorization per corpus isometry, dims 2-8."""
        rng = random.Random(100)
        return [
            random_minimal_factorization(w, rng)
            for dim in range(2, 9)
            for w in corpus(dim, 25, 100 + dim)
        ]

    def test_move_changes_one_chain_element_and_walks_back(self, factorizations):
        rng = random.Random(101)
        moves = 0
        for f in factorizations:
            if len(f) < 2:
                continue
            i = rng.randrange(len(f) - 1)
            assert hurwitz_inverse(hurwitz(f, i), i).factors == f.factors
            assert hurwitz(hurwitz_inverse(f, i), i).factors == f.factors
            a, b = f.factors[i : i + 2]
            move, pair = rng.choice(
                [(hurwitz, (b.conjugate(a), a)), (hurwitz_inverse, (b, a.conjugate(b)))]
            )
            g = move(f, i)
            assert g.target == f.target
            assert g.factors == f.factors[:i] + pair + f.factors[i + 2 :]
            assert verify_minimal(g)
            chain, moved = factorization_to_chain(f), factorization_to_chain(g)
            changed = [j for j, (p, q) in enumerate(zip(chain, moved)) if p != q]
            assert changed == [i + 1]
            assert chain_to_factorization(moved, f.target).factors == g.factors
            moves += 1
        assert moves == 151

    def test_braid_relations(self, factorizations):
        rng = random.Random(102)
        adjacent = far = 0
        for f in factorizations:
            if len(f) >= 3:
                i = rng.randrange(len(f) - 2)
                left = hurwitz(hurwitz(hurwitz(f, i), i + 1), i)
                right = hurwitz(hurwitz(hurwitz(f, i + 1), i), i + 1)
                assert left.factors == right.factors
                adjacent += 1
            if len(f) >= 4:
                i, j = sorted(rng.sample(range(len(f) - 1), 2))
                if j - i < 2:
                    continue
                assert hurwitz(hurwitz(f, i), j).factors == (
                    hurwitz(hurwitz(f, j), i).factors
                )
                far += 1
        assert (adjacent, far) == (121, 49)

    @pytest.mark.parametrize("move", [hurwitz, hurwitz_inverse])
    def test_index_out_of_range(self, move):
        f = factor(glide())
        assert len(move(f, 1)) == 3
        for i in (-1, -2, 2, 3):
            with pytest.raises(IndexError):
                move(f, i)
        with pytest.raises(IndexError):
            move(Factorization(target=Isometry.identity(2), factors=()), 0)


class TestCanonicalRoots:
    def test_reflections_built_from_roots_are_canonical(self):
        """The derived paths (the peel, the translation mirrors, the chain
        steps, conjugation and the motion reflection) build reflections on
        integer rows through ``isometry._reflection_across``; each must
        equal the reflection the public constructor builds from the same
        root and offset."""
        built = []
        rng = random.Random(103)
        for dim in range(2, 9):
            for w in corpus(dim, 15, 200 + dim):
                built.extend(factor(w).factors)
                f = random_minimal_factorization(w, rng)
                built.extend(f.factors)
                for i in range(len(f) - 1):
                    built.append(hurwitz(f, i).factors[i])
                    built.append(hurwitz_inverse(f, i).factors[i + 1])
                x = first_unfixed_point(w)
                if x is not None:
                    built.append(_motion(_rows(w), x.vector.num, x.vector.den))
        for r in built:
            assert r == Reflection(r.root, r.offset)
        assert len(built) == 1456


class TestVerifyMinimal:
    def test_constructed_factorizations_verify(self):
        rng = random.Random(66)
        for dim in (1, 2, 3, 4):
            for w in corpus(dim, 20, rng):
                assert verify_minimal(factor(w))

    def test_doubled_reflection_fails(self):
        r = Reflection(e(2, 1), 0)
        doubled = Factorization(target=Isometry.identity(2), factors=(r, r))
        assert not verify_minimal(doubled)

    def test_wrong_product_fails(self):
        r = Reflection(e(2, 1), 0)
        wrong = Factorization(target=translation(vec(1, 0)), factors=(r,))
        assert not verify_minimal(wrong)


class TestIndependentRoots:
    """Carter's lemma, which lets ``verify_minimal`` test the product and
    the length alone: the roots of a minimal factorization of an elliptic
    isometry are independent."""

    @staticmethod
    def independent(f):
        return span([r.root for r in f.factors], ambient=f.target.dim).dim == len(f)

    def test_constructed_elliptic_factorizations(self):
        """factor, the chain walks and the Hurwitz moves, dims 1-8."""
        rng = random.Random(151)
        checked = 0
        for dim in range(1, 9):
            for w in corpus(dim, 10, rng):
                if not classify(w).is_elliptic:
                    continue
                f = random_minimal_factorization(w, rng)
                moved = [hurwitz(f, i) for i in range(len(f) - 1)]
                moved += [hurwitz_inverse(f, i) for i in range(len(f) - 1)]
                for g in [factor(w), f, *moved]:
                    assert verify_minimal(g) and self.independent(g)
                    checked += 1
        assert checked == 286

    def test_random_products_at_their_scherk_length(self):
        """Seeded products of k <= dim + 1 reflections, dims 1-5: each that
        is minimal, with an elliptic target, has independent roots."""
        rng = random.Random(152)
        checked = 0
        for dim in range(1, 6):
            for _ in range(300):
                k = rng.randint(1, dim + 1)
                factors = [random_reflection(dim, rng) for _ in range(k)]
                f = Factorization(target=product(factors, dim), factors=tuple(factors))
                if verify_minimal(f) and classify(f.target).is_elliptic:
                    assert self.independent(f)
                    checked += 1
        assert checked == 1034


class TestMinimalFactorizationProperties:
    def test_length_and_suffix_chain_on_corpus(self):
        rng = random.Random(77)
        for dim in (1, 2, 3, 4):
            for w in corpus(dim, 25, rng):
                f = factor(w)
                assert len(f) == reflection_length(w)
                assert f.is_exact()
                chain = factorization_to_chain(f)
                ranks = [rank(p) for p in chain]
                assert ranks == list(range(len(f), -1, -1))

    def test_chain_round_trip_random(self):
        rng = random.Random(88)
        for dim in (2, 3):
            for w in corpus(dim, 15, rng):
                for _ in range(3):
                    chain = random_maximal_chain(w, rng)
                    f = chain_to_factorization(chain, w)
                    assert factorization_to_chain(f) == chain

    @pytest.mark.parametrize("dim", [7, 8])
    def test_chain_round_trip_past_dimension_six(self, dim):
        """Three random walks per isometry of a corpus in R^7 and R^8: the
        factorization multiplies to w and reads back as its chain."""
        rng = random.Random(dim)
        for w in corpus(dim, 3, 7):
            for _ in range(3):
                chain = random_maximal_chain(w, rng)
                f = chain_to_factorization(chain, w)
                assert f.product() == w
                assert factorization_to_chain(f) == chain

    def test_elliptic_roots_independent_and_mirrors_cut_fix(self):
        from scherk.affine import intersect_affine
        from scherk.isometry import min_set

        rng = random.Random(99)
        for dim in (2, 3, 4):
            for w in corpus(dim, 20, rng):
                cls = classify(w)
                if cls.tag != "elliptic" or w == Isometry.identity(dim):
                    continue
                f = factor(w)
                roots = span([r.root for r in f.factors], ambient=dim)
                assert roots.dim == len(f)
                common = f.factors[0].mirror
                for r in f.factors[1:]:
                    common = intersect_affine(common, r.mirror)
                assert common == min_set(w)

    def test_invariant_injective_on_samples(self):
        rng = random.Random(111)
        for w in corpus(3, 6, rng):
            seen = {}
            for u in sample_interval(w, rng, 50):
                key = inv_map(u)
                if key in seen:
                    assert seen[key] == u
                else:
                    seen[key] = u


def assert_read_by_definition(f):
    """factorization_to_chain(f) is the invariant of every suffix product,
    and its elliptic prefix is the full space cut by one mirror at a time,
    up to the first mirror that misses: the definition, sharing no code
    with the orthogonal frame the read walks.  Returns the number of
    elliptic steps."""
    chain = factorization_to_chain(f)
    dim = f.target.dim
    suffixes = [product(f.factors[i:], dim) for i in range(len(f) + 1)]
    assert chain == [inv_map(s) for s in suffixes]
    fix = AffineSubspaceE(Point.origin(dim), LinearSubspace.full(dim))
    folded = [fix]
    for r in reversed(f.factors):
        fix = intersect_affine(fix, r.mirror)
        if fix is None:
            break
        folded.append(fix)
    assert folded == [p.fix for p in reversed(chain) if isinstance(p, Elliptic)]
    return len(folded) - 1


class TestChainReadOracle:
    def test_factor_and_walks_on_corpus(self):
        """factor(w) and one random walk per isometry, dims 1-10."""
        rng = random.Random(101)
        steps = reads = 0
        for dim in range(1, 11):
            for w in corpus(dim, 2, rng):
                walk = random_maximal_chain(w, rng)
                for f in (factor(w), chain_to_factorization(walk, w)):
                    steps += assert_read_by_definition(f)
                    reads += 1
        assert (reads, steps) == (40, 133)

    @pytest.mark.parametrize("dim", [16, 24])
    def test_factor_at_scale(self, dim):
        """factor(w) of two isometries."""
        steps = sum(assert_read_by_definition(factor(w)) for w in corpus(dim, 2, 7))
        assert steps > 0


class TestChainClosedForms:
    @no_deadline
    @given(isometries(), seeds)
    def test_chain_is_suffix_invariants(self, w, seed):
        f = random_minimal_factorization(w, seed)
        suffixes = [Isometry.identity(w.dim)]
        for r in reversed(f.factors):
            suffixes.append(r.to_isometry().compose(suffixes[-1]))
        expected = [inv_map(s) for s in reversed(suffixes)]
        assert factorization_to_chain(f) == expected

    @pytest.mark.parametrize(
        "w, wrong, rest",
        [
            # the product fixes the point (1, 0) of the wrong line x = 1,
            # but is the reflection in the x-axis
            (half_turn(), Elliptic(AffineSubspaceE(pt(1, 0), span([e(2, 1)]))), []),
            # the product has b in the wrong line, but Mov(product) is the
            # line (2, t, 1), not parallel to it
            (screw(), line_element((2, -2, 1), (-2, 1, 1)), below_screw_step()),
            # Mov(product), the line (2, t, 1), is parallel to the wrong
            # line (2, t, 2) but does not meet it
            (screw(), line_element((2, 1, 2), (0, 1, 0)), below_screw_step()),
        ],
    )
    def test_wrong_element_of_right_rank_does_not_land(
        self, monkeypatch, w, wrong, rest
    ):
        """The order check is made to pass everything, and the elements after
        the wrong one lie below the product the walk really reaches, so
        only the step certificate can reject the chain."""
        patch_everywhere(monkeypatch, leq, lambda p, q: True)
        chain = [inv_map(w), wrong, *rest, Elliptic(AffineSubspaceE.full(w.dim))]
        assert [rank(p) for p in chain] == list(range(len(chain) - 1, -1, -1))
        with pytest.raises(ChainError, match="did not land"):
            chain_to_factorization(chain, w)
