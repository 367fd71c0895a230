"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality; there are no tolerances anywhere.  Each
test prints a single PASS line on success (visible with pytest -s), and a
failing assertion marks the criterion as failed.
"""

import itertools
import pathlib
import random
import subprocess
import sys
import time

import pytest

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import factor, factorization_to_chain, chain_to_factorization
from scherk.isometry import (
    classify,
    interval_contains,
    interval_leq,
    predict_product,
)
from scherk.linalg import LinearSubspace, Vector, orthogonal_complement, span
from scherk.oracle import (
    coordinate_universe,
    corpus,
    definitional_join,
    definitional_meet,
    random_maximal_chain,
    random_reflection,
    sample_interval,
    search_bowties,
)
from scherk.poset import (
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    dm_join,
    dm_meet,
    find_bowtie,
    inv_map,
    is_bowtie,
    is_lattice,
    leq,
)

HERE = pathlib.Path(__file__).parent

CORPUS_PER_DIM = 500
CLASSIFIER_PAIRS = 1000
CHAIN_ISOMETRIES = 100
CHAINS_PER_ISOMETRY = 10


@pytest.fixture(scope="module")
def shared_corpus():
    return {dim: corpus(dim, CORPUS_PER_DIM, seed=1000 + dim) for dim in range(1, 7)}


_clock = {}


@pytest.fixture(autouse=True)
def _start_clock():
    """Start each criterion's clock once its module fixtures are built."""
    _clock["start"] = time.perf_counter()


def _report(number, text):
    elapsed = time.perf_counter() - _clock["start"]
    print(f"ACCEPTANCE {number} PASS: {text} [{elapsed:.1f} s]")


def test_criterion_1_scherk_agreement(shared_corpus):
    for dim, isometries in shared_corpus.items():
        for w in isometries:
            cls = classify(w)
            f = factor(w)
            assert f.product() == w
            expected = cls.move_set.dim + (0 if cls.is_elliptic else 2)
            assert len(f.factors) == expected
            assert cls.length == expected
            assert cls.length >= cls.move_set.dim
            determinant = w.matrix.det()
            assert determinant in (1, -1)
            assert (determinant == 1) == (cls.length % 2 == 0)
    _report(1, f"{CORPUS_PER_DIM} isometries per dimension 1..6 factor exactly "
               "at the closed-form length with matching parity")


def test_criterion_2_invariant_suite(shared_corpus):
    for dim, isometries in shared_corpus.items():
        full = LinearSubspace.full(dim)
        for w in isometries:
            cls = classify(w)
            mov, mn = cls.move_set, cls.min_set
            assert mov.dim + mn.dim == dim
            assert span(
                list(mov.direction.basis) + list(mn.direction.basis), ambient=dim
            ) == full
            for a in mov.direction.basis:
                for b in mn.direction.basis:
                    assert a.dot(b) == 0
            mu = mov.mu
            for x in mn.points():
                assert w.apply(x) - x == mu
            assert w.image_of_affine(mn) == mn
            floor = mu.norm_sq()
            for v in orthogonal_complement(mn.direction).basis:
                off = mn.point + v
                assert (w.apply(off) - off).norm_sq() > floor
    _report(2, "move/min dimensions complement, directions decompose "
               "orthogonally, and min-sets are exactly the minimal movers")


def test_criterion_3_classifier_equivalence():
    for dim in (2, 3, 4):
        rng = random.Random(3000 + dim)
        pairs = corpus(dim, CLASSIFIER_PAIRS, rng)
        agreements = 0
        for w in pairs:
            r = random_reflection(dim, rng)
            prediction = predict_product(r, w)
            actual = classify(r.to_isometry().compose(w))
            assert prediction.tag == actual.tag
            assert prediction.length == actual.length
            if prediction.move_set is not None:
                assert prediction.move_set == actual.move_set
            else:
                assert actual.move_set.subset_of(prediction.move_set_within)
                assert actual.move_set.dim == prediction.move_set_within.dim - 1
            agreements += 1
        assert agreements == CLASSIFIER_PAIRS
    _report(3, f"{CLASSIFIER_PAIRS} reflection products per dimension 2..4 "
               "match the case-by-case prediction, 100% agreement")


def test_criterion_4_chain_factorization_bijection():
    for dim in (2, 3, 4):
        rng = random.Random(4000 + dim)
        for w in corpus(dim, CHAIN_ISOMETRIES, rng):
            for _ in range(CHAINS_PER_ISOMETRY):
                chain = random_maximal_chain(w, rng)
                f = chain_to_factorization(chain, w)
                assert factorization_to_chain(f) == chain
            samples = sample_interval(w, rng, 6)
            invariants = [inv_map(u) for u in samples]
            for u, pu in zip(samples, invariants):
                assert interval_contains(w, u)
                assert leq(pu, inv_map(w))
            for (u, pu), (v, pv) in itertools.combinations(
                zip(samples, invariants), 2
            ):
                assert interval_leq(w, u, v) == leq(pu, pv)
                assert interval_leq(w, v, u) == leq(pv, pu)
                if pu == pv:
                    assert u == v
    _report(4, f"{CHAINS_PER_ISOMETRY} chains for {CHAIN_ISOMETRIES} isometries "
               "per dimension 2..4 round-trip; interval order matches the model")


def _line_top(dim):
    return Hyperbolic(
        AffineSubspaceV(span([Vector.basis(dim, 0)]), Vector.basis(dim, dim - 1))
    )


def _plane_top(dim, move_dim):
    direction = span([Vector.basis(dim, i) for i in range(move_dim)], ambient=dim)
    return Hyperbolic(AffineSubspaceV(direction, Vector.basis(dim, dim - 1)))


def test_criterion_5_lattice_dichotomy():
    for dim in (2, 3):
        for fix_dim in range(dim + 1):
            direction = span(
                [Vector.basis(dim, i) for i in range(fix_dim)], ambient=dim
            )
            top = Elliptic(AffineSubspaceE(Point.origin(dim), direction))
            assert is_lattice(PosetContext(top=top))
    assert is_lattice(PosetContext(top=Hyperbolic(
        AffineSubspaceV(span([], ambient=2), Vector([2, 0])))))
    assert is_lattice(PosetContext(top=_line_top(2)))
    for move_dim, dim in ((2, 3), (3, 4)):
        top = _plane_top(dim, move_dim)
        ctx = PosetContext(top=top)
        assert not is_lattice(ctx)
        a, b, c, d = find_bowtie(ctx)
        assert is_bowtie(a, b, c, d, ctx)
    normal_form_count = 0
    for universe in (
        coordinate_universe(2, _line_top(2)),
        coordinate_universe(2, point_elliptic_top(2)),
        coordinate_universe(3, point_elliptic_top(3)),
    ):
        assert search_bowties(universe) == []
    plane_universe = coordinate_universe(3, _plane_top(3, 2))
    bowties = search_bowties(plane_universe)
    assert bowties
    for a, b, c, d in bowties:
        u = a.move.direction
        assert b.move.direction == u
        assert 0 < u.dim < 2
        wall = orthogonal_complement(u)
        assert c.fix.direction == wall and d.fix.direction == wall
        normal_form_count += 1
    _report(5, "elliptic and short hyperbolic posets are lattices; "
               f"bowties found and all {normal_form_count} exhaustive hits "
               "are in normal form")


def point_elliptic_top(dim):
    return Elliptic(AffineSubspaceE.single_point(Point.origin(dim)))


def test_criterion_6_completion_correctness():
    universe = coordinate_universe(3, _plane_top(3, 2), augmented=True)
    ctx = universe.ctx
    checked = 0
    for size in (1, 2, 3):
        for subset in itertools.combinations(universe.elements, size):
            low = dm_meet(subset, ctx)
            for q in subset:
                assert leq(low, q)
            maximal = definitional_meet(subset, universe)
            for x in maximal:
                assert leq(x, low)
            if low in universe:
                assert maximal == {low}
            high = dm_join(subset, ctx)
            for q in subset:
                assert leq(q, high)
            minimal = definitional_join(subset, universe)
            for x in minimal:
                assert leq(high, x)
            if high in universe:
                assert minimal == {high}
            checked += 1
    news = [p for p in universe if isinstance(p, New)]
    assert news
    top_move = ctx.top.move
    for n in news:
        u = n.subspace
        m1 = Hyperbolic(AffineSubspaceV(u, top_move.mu))
        outside = next(
            b for b in top_move.direction.basis if not u.contains(b)
        )
        m2 = Hyperbolic(AffineSubspaceV(u, top_move.mu + outside))
        assert dm_meet([m1, m2], ctx) == n
        wall = orthogonal_complement(u)
        b1 = Elliptic(AffineSubspaceE(Point.origin(3), wall))
        b2 = Elliptic(AffineSubspaceE(Point.origin(3) + u.basis[0], wall))
        assert dm_join([b1, b2], ctx) == n
    _report(6, f"augmented meets/joins match definitional bounds on {checked} "
               f"subsets; all {len(news)} new elements are meets of "
               "hyperbolics and joins of elliptics")


CLI_GOLDEN_CASES = [
    (("analyze", "data/glide.json", "--seed", "0"), "analyze_glide.json"),
    (("analyze", "data/translation.json", "--seed", "0"), "analyze_translation.json"),
    (("analyze", "data/rotation.json", "--seed", "0"), "analyze_rotation.json"),
    (("factorize", "data/glide.json", "--seed", "0"), "factorize_glide.json"),
    (
        ("factorize", "data/translation.json", "--seed", "0"),
        "factorize_translation.json",
    ),
    (("hasse", "data/bowtie_universe.json", "--seed", "0"), "hasse_bowtie.dot"),
    (("bowtie", "data/bowtie_top.json", "--seed", "0"), "bowtie_plane.json"),
]


def test_criterion_7_cli_golden_files():
    for argv, golden in CLI_GOLDEN_CASES:
        command = [sys.executable, "-m", "scherk.cli", argv[0], str(HERE / argv[1])]
        command.extend(argv[2:])
        runs = [
            subprocess.run(command, capture_output=True, text=True)
            for _ in range(2)
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout == (HERE / "golden" / golden).read_text()
    _report(7, f"{len(CLI_GOLDEN_CASES)} CLI outputs byte-stable across runs "
               "and equal to the checked-in golden files")
