"""Conjugation as an exact oracle for the invariants, the chain bijection
and the interval order.

Let g be a rational similarity, g(x) = lam S x + t with S orthogonal and
lam a nonzero rational.  For an isometry w = (A, b) the conjugate
w' = g w g^-1 is the isometry (S A S^T, t - S A S^T t + lam S b), and a
reflection across {alpha . x = c} goes to the reflection across
{S alpha . y = lam c + S alpha . t}.  Motions scale by lam S:
w'(g x) - g x = lam S (w x - x).  So, with the images built here and not
in the library, every answer below must move with g exactly:

* ``classify``: the tag and length are unchanged, Mov(w') = lam S Mov(w)
  and Min(w') = g Min(w);
* ``inv_map``: inv(w') is the image of inv(w), e^B to e^{gB} and h^M to
  h^{lam S M};
* ``standard_splitting``: w' = t_mu' u' with mu' = lam S mu and
  u' = g u g^-1;
* the chain bijection: a maximal chain determines its factorization, so
  ``chain_to_factorization`` of the moved chain is the conjugated factors,
  and ``factorization_to_chain`` of those is the moved chain;
* ``hurwitz`` and ``hurwitz_inverse`` commute with conjugating the factors;
* ``reflection_distance``, ``interval_leq`` and ``interval_contains`` are
  unchanged.

``factor`` peels at the origin and the unit points, a choice of basis that
conjugation does not keep, so its factorization of w' is held only to
``verify_minimal``.

g is of three kinds: a product of reflections (an isometry), a
translation, and a homothety about a point.
"""

import itertools
import random
from fractions import Fraction

from scherk.affine import AffineSubspaceE, AffineSubspaceV, Point
from scherk.factor import (
    chain_to_factorization,
    factor,
    factorization_to_chain,
    hurwitz,
    hurwitz_inverse,
    verify_minimal,
)
from scherk.isometry import (
    Isometry,
    Reflection,
    classify,
    interval_contains,
    interval_leq,
    reflection_distance,
    standard_splitting,
)
from scherk.linalg import LinearSubspace, Matrix, Vector, span
from scherk.oracle import corpus, random_isometry, random_maximal_chain, sample_interval
from scherk.poset import Elliptic, Hyperbolic, PosetElement, inv_map

PER_KIND = 2


class Similarity:
    """g(x) = lam S x + t, with S orthogonal and lam a nonzero rational."""

    def __init__(self, lam: Fraction, s: Matrix, t: Vector):
        self.lam, self.s, self.t = lam, s, t

    def vector(self, v: Vector) -> Vector:
        """The image lam S v of a motion."""
        return (self.s * v).scale(self.lam)

    def direction(self, u: LinearSubspace) -> LinearSubspace:
        return span([self.s * v for v in u.basis], ambient=u.ambient)

    def fixed(self, b: AffineSubspaceE) -> AffineSubspaceE:
        anchor = Point(self.vector(b.anchor) + self.t)
        return AffineSubspaceE(anchor, self.direction(b.direction))

    def moved(self, m: AffineSubspaceV) -> AffineSubspaceV:
        return AffineSubspaceV(self.direction(m.direction), self.vector(m.mu))

    def isometry(self, w: Isometry) -> Isometry:
        a = self.s * w.matrix * self.s.transpose()
        return Isometry(a, self.t - a * self.t + self.vector(w.translation))

    def reflection(self, r: Reflection) -> Reflection:
        alpha = self.s * r.root
        return Reflection(alpha, self.lam * r.offset + alpha.dot(self.t))

    def reflections(self, factors) -> tuple[Reflection, ...]:
        return tuple(map(self.reflection, factors))

    def element(self, p: PosetElement) -> PosetElement:
        """e^B to e^{gB} and h^M to h^{lam S M}: inv_map and chains
        hold no other kind."""
        if isinstance(p, Elliptic):
            return Elliptic(self.fixed(p.fix))
        return Hyperbolic(self.moved(p.move))


def similarities(dim: int, rng: random.Random):
    """PER_KIND seeded maps of each kind: a product of reflections, a
    translation, and a homothety about a small integer point."""
    one, unit = Fraction(1), Matrix.identity(dim)
    for _ in range(PER_KIND):
        g = random_isometry(dim, rng, reflections=rng.randint(1, dim + 1))
        yield Similarity(one, g.matrix, g.translation)
    for _ in range(PER_KIND):
        yield Similarity(one, unit, Vector(rng.randint(-3, 3) for _ in range(dim)))
    for i in range(PER_KIND):
        lam = Fraction(rng.choice([-1, 1]) * (7 + i), 3 + 2 * dim)
        center = Vector(rng.randint(-3, 3) for _ in range(dim))
        yield Similarity(lam, unit, center.scale(1 - lam))


def test_every_answer_moves_with_the_similarity():
    rng = random.Random(2024)
    cases = 0
    for dim in range(1, 9):
        for g in similarities(dim, rng):
            [w] = corpus(dim, 1, rng)
            moved = g.isometry(w)
            cls, moved_cls = classify(w), classify(moved)
            assert (moved_cls.tag, moved_cls.length) == (cls.tag, cls.length)
            assert moved_cls.move_set == g.moved(cls.move_set)
            assert moved_cls.min_set == g.fixed(cls.min_set)
            assert inv_map(moved) == g.element(inv_map(w))
            mu, u = standard_splitting(w)
            assert standard_splitting(moved) == (g.vector(mu), g.isometry(u))

            chain = random_maximal_chain(w, rng)
            f = chain_to_factorization(chain, w)
            moved_f = chain_to_factorization([g.element(p) for p in chain], moved)
            assert moved_f.factors == g.reflections(f.factors)
            assert factorization_to_chain(moved_f) == [g.element(p) for p in chain]
            for i in range(len(f) - 1):
                for move in (hurwitz, hurwitz_inverse):
                    assert move(moved_f, i).factors == g.reflections(move(f, i).factors)

            others = sample_interval(w, rng, 2) + corpus(dim, 2, rng)
            for v in others:
                inside = interval_contains(w, v)
                assert interval_contains(moved, g.isometry(v)) == inside
            for v, v2 in itertools.permutations(others, 2):
                gv, gv2 = g.isometry(v), g.isometry(v2)
                assert reflection_distance(gv, gv2) == reflection_distance(v, v2)
                assert interval_leq(moved, gv, gv2) == interval_leq(w, v, v2)

            assert verify_minimal(factor(moved))
            cases += 1
    assert cases == 8 * 3 * PER_KIND
