"""Affine Weyl groups as an exact oracle for hyperbolic tops.

Take an irreducible affine Weyl group W of rank n + 1 acting on E^m and
its Coxeter element c = s_0 s_1 ... s_n, the product of its simple
reflections, s_n acting first.  Each type below needs only integer roots
and rational offsets:

* C~_n, B~_n and D~_n act on R^n, with simple roots e_i - e_{i+1} and
  e_n (e_{n-1} + e_n for D~), and the affine mirror x_1 = 1/2 for C~ and
  x_1 + x_2 = 1 for B~ and D~;
* A~_n acts on R^{n+1}, with simple roots e_i - e_{i+1} and the affine
  mirror x_1 - x_{n+1} = 1;
* G~_2 acts on R^3, in the plane x_1 + x_2 + x_3 = 0, with simple roots
  e_1 - e_2 and -2 e_1 + e_2 + e_3 and the affine mirror theta . x = -1
  for the highest root theta = (-1, -1, 2).

Classical theorems then fix what the library must answer:

* c is hyperbolic, and its min-set is the Coxeter axis, a line of R^n
  (McCammond, "Dual euclidean Artin groups and the failure of the lattice
  property", J. Algebra 2015; McCammond-Sulway, "Artin groups of
  euclidean type", Invent. Math. 2017).  In A~_n and G~_2 the vector
  (1, ..., 1) is fixed as well, so the min-set is a plane of R^{n+1}.
  Either way dim Mov(c) = n - 1.
* l_W(c) = n + 1: by Dyer's theorem (Proc. AMS 2001) the reflection
  length of an element of a Coxeter group is the least number of letters
  to delete from a reduced word to reach the identity, and no proper
  subword of s_0 ... s_n is the identity.
* Every reflection of W is a euclidean reflection, so l_E <= l_W, and by
  Scherk's formula l_E(c) = dim Mov(c) + 2 = n + 1 = l_W(c).  So every
  minimal W-factorization of c is a minimal euclidean one (the
  library's ``verify_minimal``), and for u in [1, c]^W the triangle
  inequality l_E(u) + l_E(u^-1 c) >= l_E(c) = l_W(c) = l_W(u) + l_W(u^-1 c)
  makes u a member of the euclidean interval [1, c], of length the
  prefix length: every prefix product passes ``interval_contains``, with
  ``rank(inv_map(u))`` the number of its factors.
* The invariant map is a poset isomorphism from [1, c] onto the model
  poset below inv(c) (the source paper), so a factorization and its chain
  of suffix invariants convert into each other losslessly, and the chain
  read agrees with the classification of each suffix product.
* The Hurwitz action of the braid group keeps W-reflections, as W is
  closed under conjugation, and is transitive on the minimal
  W-factorizations of c (Baumeister-Dyer-Stump-Wegener, Proc. AMS Ser. B
  2014).  The orbit is infinite, so the test takes the ball of radius 2
  around (s_0, ..., s_n).  A finite ball is a truncation, so nothing
  below tests a lattice property of [1, c].

The builders below work on affine maps as rows of Fractions and on
mirrors as (integer root, Fraction offset) pairs, and share no code with
``linalg``, ``isometry`` or ``factor``: they compose maps, conjugate
mirrors for the Hurwitz moves and multiply out prefixes and suffixes with
their own arithmetic.  The library sees their answers only as isometries
and reflections built by the public constructors.  So the chain read of
a hyperbolic target (its cut fixed sets and placed move-sets), the walk
down a chain to h^M, conjugation in the library's Hurwitz moves and the
interval order are checked against arithmetic that shares none of them.
"""

import math
import random
from fractions import Fraction

import pytest

from scherk.factor import (
    Factorization,
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
    interval_contains,
    move_set,
    reflection_length,
)
from scherk.linalg import Matrix, Vector
from scherk.oracle import FiniteUniverse, definitional_join, definitional_meet
from scherk.poset import (
    BoundFamily,
    Elliptic,
    PosetContext,
    dm_join,
    dm_meet,
    inv_map,
    join,
    leq,
    meet,
    rank,
)

RADIUS = 2
# type: (ambient dimension, factorizations in the Hurwitz ball of RADIUS)
TYPES = {
    "A2": (3, 13),
    "A3": (4, 23),
    "A4": (5, 39),
    "C2": (2, 13),
    "C3": (3, 25),
    "C4": (4, 41),
    "B3": (3, 21),
    "B4": (4, 35),
    "D4": (4, 30),
    "D5": (5, 46),
    "G2": (3, 12),
}


def unit(m, i):
    return tuple(int(k == i) for k in range(m))


def minus(m, i, j):
    return tuple(a - b for a, b in zip(unit(m, i), unit(m, j)))


def plus(m, i, j):
    return tuple(a + b for a, b in zip(unit(m, i), unit(m, j)))


def simple_mirrors(kind, n):
    """(ambient dimension, the mirrors of s_0, s_1, ..., s_n), each mirror
    {alpha . x = k} as the pair (alpha, k)."""
    zero = Fraction(0)
    if kind == "G":
        theta, alpha_2 = (-1, -1, 2), (-2, 1, 1)
        return 3, [(theta, Fraction(-1)), (minus(3, 0, 1), zero), (alpha_2, zero)]
    if kind == "A":
        m = n + 1
        return m, [(minus(m, 0, n), Fraction(1))] + [
            (minus(m, i, i + 1), zero) for i in range(n)
        ]
    chain = [(minus(n, i, i + 1), zero) for i in range(n - 1)]
    if kind == "C":
        return n, [(unit(n, 0), Fraction(1, 2))] + chain + [(unit(n, n - 1), zero)]
    last = unit(n, n - 1) if kind == "B" else plus(n, n - 2, n - 1)
    return n, [(plus(n, 0, 1), Fraction(1))] + chain + [(last, zero)]


def normal(mirror):
    """The mirror with a primitive root whose first nonzero entry is
    positive, so that equal mirrors are equal pairs."""
    alpha, k = mirror
    g = math.gcd(*alpha)
    if next(a for a in alpha if a) < 0:
        g = -g
    return tuple(a // g for a in alpha), k / g


def conjugate(a, b):
    """The mirror of a b a: the image of b's mirror under the reflection
    across a's, {(beta - t alpha) . y = l - t k} for t = 2 alpha . beta /
    |alpha|^2, an integer in a crystallographic root system."""
    (alpha, k), (beta, l) = a, b
    dot = sum(x * y for x, y in zip(alpha, beta))
    t, rest = divmod(2 * dot, sum(x * x for x in alpha))
    assert rest == 0
    return normal((tuple(y - t * x for x, y in zip(alpha, beta)), l - t * k))


def reflection_map(mirror):
    """The affine map x -> x - 2 (alpha . x - k) alpha / |alpha|^2, as
    (rows, translation) of Fractions."""
    alpha, k = mirror
    norm = sum(x * x for x in alpha)
    rows = tuple(
        tuple(int(i == j) - Fraction(2 * a * b, norm) for j, b in enumerate(alpha))
        for i, a in enumerate(alpha)
    )
    return rows, tuple(Fraction(2 * a) * k / norm for a in alpha)


def after(f, g):
    """The affine map f after g."""
    (a, s), (b, t) = f, g
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )
    shift = tuple(sum(x * y for x, y in zip(row, t)) + z for row, z in zip(a, s))
    return rows, shift


def hurwitz_ball(start, radius):
    """Every factorization at most ``radius`` Hurwitz moves from start."""
    ball, frontier = {start}, [start]
    for _ in range(radius):
        grown = []
        for f in frontier:
            for i in range(len(f) - 1):
                a, b = f[i], f[i + 1]
                for pair in ((conjugate(a, b), a), (b, conjugate(b, a))):
                    g = f[:i] + pair + f[i + 2 :]
                    if g not in ball:
                        ball.add(g)
                        grown.append(g)
        frontier = grown
    return ball


class AffineGroup:
    """c, its Hurwitz ball, and the product of each run of factors, the
    first acting last, as a library isometry: a prefix is the prefix one
    shorter after its last factor, and a suffix its first factor after the
    suffix one shorter, each multiplied out once."""

    def __init__(self, name):
        kind, n = name[0], int(name[1:])
        self.name, self.n = name, n
        self.m, simple = simple_mirrors(kind, n)
        self.simple = tuple(normal(mirror) for mirror in simple)
        m = self.m
        identity = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        self.maps = {(): (identity, (0,) * m)}
        self.isometries = {}
        self.c = self.product(self.simple)
        self.ball = hurwitz_ball(self.simple, RADIUS)

    def affine(self, mirrors, prefix):
        if mirrors not in self.maps:
            if prefix:
                w = after(self.affine(mirrors[:-1], True), reflection_map(mirrors[-1]))
            else:
                w = after(reflection_map(mirrors[0]), self.affine(mirrors[1:], False))
            self.maps[mirrors] = w
        return self.maps[mirrors]

    def product(self, mirrors, prefix=False):
        if mirrors not in self.isometries:
            rows, shift = self.affine(mirrors, prefix)
            matrix = Matrix([list(row) for row in rows])
            self.isometries[mirrors] = Isometry(matrix, Vector(shift))
        return self.isometries[mirrors]

    def factorization(self, mirrors):
        factors = tuple(Reflection(Vector(alpha), k) for alpha, k in mirrors)
        return Factorization(target=self.c, factors=factors)


@pytest.fixture(scope="module", params=list(TYPES))
def group(request):
    return AffineGroup(request.param)


def test_coxeter_element_is_hyperbolic_of_length_n_plus_one(group):
    m, count = TYPES[group.name]
    assert group.m == m
    assert reflection_length(group.c) == group.n + 1
    mov = move_set(group.c)
    assert not mov.is_linear()
    assert mov.dim == group.n - 1
    assert verify_minimal(factor(group.c))
    assert len(group.ball) == count


def test_every_ball_factorization_is_minimal_and_round_trips(group):
    for mirrors in group.ball:
        f = group.factorization(mirrors)
        assert verify_minimal(f)
        chain = factorization_to_chain(f)
        assert chain_to_factorization(chain, group.c) == f
        assert len(chain) == group.n + 2
        for i, p in enumerate(chain):
            assert p == inv_map(group.product(mirrors[i:]))


def test_every_prefix_lies_in_the_interval_at_its_length(group):
    prefixes = {mirrors[:i] for mirrors in group.ball for i in range(group.n + 2)}
    for mirrors in prefixes:
        u = group.product(mirrors, prefix=True)
        assert interval_contains(group.c, u)
        assert rank(inv_map(u)) == len(mirrors)


def test_library_hurwitz_moves_stay_in_the_ball(group):
    """The library's conjugation agrees with the builders': every Hurwitz
    move from a factorization inside the ball's inner radius lands in the
    ball."""
    inner = hurwitz_ball(group.simple, RADIUS - 1)
    ball = {group.factorization(mirrors) for mirrors in group.ball}
    for mirrors in inner:
        f = group.factorization(mirrors)
        for i in range(len(f) - 1):
            assert hurwitz(f, i) in ball
            assert hurwitz_inverse(f, i) in ball


# type: elements of the prefix universe, inv of every prefix product of
# the Hurwitz ball of radius 3 (the empty prefix and c itself included)
PREFIX_UNIVERSES = {"A3": 43, "C3": 48}


def check_plain(universe, pair):
    """meet and join of a pair against the scans of the finite universe.
    A bound in the universe is the one extremal bound the scan finds, and
    every scanned extremal bound lies on its side of the closed form.  A
    family's members in the universe are extremal there, and every
    scanned extremal bound is of the family's kind with a direction that
    holds the family's: it lies on its side of some member."""
    ctx = universe.ctx
    for bound, scan, below in (
        (meet(*pair, ctx), definitional_meet(pair, universe), True),
        (join(*pair, ctx), definitional_join(pair, universe), False),
    ):
        if isinstance(bound, BoundFamily):
            assert {p for p in universe if bound.contains(p)} <= scan
            for x in scan:
                assert x.kind == bound.kind
                assert bound.direction.subset_of(x._space.direction)
            continue
        for q in pair:
            assert leq(bound, q) if below else leq(q, bound)
        for x in scan:
            assert leq(x, bound) if below else leq(bound, x)
        if bound in universe:
            assert scan == {bound}


def check_completed(universe, subset):
    """dm_meet and dm_join of a subset against the scans, as above; the
    completion always has the bound, which may be a new element that no
    finite universe of prefixes holds.  Returns the join."""
    ctx = universe.ctx
    low, high = dm_meet(subset, ctx), dm_join(subset, ctx)
    for q in subset:
        assert leq(low, q) and leq(q, high)
    maximal = definitional_meet(subset, universe)
    minimal = definitional_join(subset, universe)
    assert all(leq(x, low) for x in maximal)
    assert all(leq(high, x) for x in minimal)
    if low in universe:
        assert maximal == {low}
    if high in universe:
        assert minimal == {high}
    return high


@pytest.mark.parametrize("name", list(PREFIX_UNIVERSES))
def test_bounds_in_the_prefix_universe_match_the_scans(name):
    """The hyperbolic universe below inv(c): inv of every prefix product,
    built by the test's own maps.  The fixed sets are oblique, with
    rational anchors, so elliptics join both at a common point and, with
    none, higher up.  Plain bounds on seeded pairs and completed bounds on
    seeded pairs and triples agree with the definitional scans."""
    group = AffineGroup(name)
    ball = hurwitz_ball(group.simple, 3)
    prefixes = {mirrors[:i] for mirrors in ball for i in range(group.n + 2)}
    elements = {inv_map(group.product(mirrors, prefix=True)) for mirrors in prefixes}
    top = inv_map(group.c)
    plain = FiniteUniverse(PosetContext(top), elements)
    completed = FiniteUniverse(PosetContext(top, augmented=True), elements)
    assert len(plain) == len(completed) == PREFIX_UNIVERSES[name]
    fixes = [p for p in plain if isinstance(p, Elliptic)]
    assert any(p.fix.anchor.den > 1 for p in fixes)
    rng = random.Random(name)
    kinds = set()
    for _ in range(150):
        pair = rng.sample(fixes, 2)
        check_plain(plain, pair)
        kinds.add(check_completed(completed, pair).kind)
    assert {"e", "h"} <= kinds
    for _ in range(150):
        check_plain(plain, rng.sample(plain.elements, 2))
        check_completed(completed, rng.sample(completed.elements, 3))
