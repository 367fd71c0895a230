"""Brute-force oracles and seeded random generators.

The oracles here never use the closed-form meet/join machinery: bounds are
found by exhaustive scans over a finite universe using only the order
predicate, so they can certify the formulas independently.  Likewise the
definitional peel rescans for an unfixed point and multiplies out every
product, which certifies the one-pass peel of ``factor``.  The generators
are deterministic per seed, with small integer coefficients to keep exact
arithmetic fast.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Optional

from .affine import AffineSubspaceE, AffineSubspaceV, Point
from .factor import Factorization, chain_to_factorization
from .isometry import Isometry, Reflection, product, reflection_bisecting, translation
from .linalg import Vector, orthogonal_section, span
from .poset import (
    Elliptic,
    Hyperbolic,
    New,
    PosetContext,
    PosetElement,
    inv_map,
    leq,
)


class FiniteUniverse:
    """An explicit finite chunk of a model poset, with a cached order matrix."""

    def __init__(self, ctx: PosetContext, elements: Iterable[PosetElement]):
        self.ctx = ctx
        self.elements: tuple[PosetElement, ...] = tuple(dict.fromkeys(elements))
        self.index = {p: i for i, p in enumerate(self.elements)}
        ctx.require(*self.elements)
        n = len(self.elements)
        self.leq_matrix = [
            [leq(self.elements[i], self.elements[j]) for j in range(n)]
            for i in range(n)
        ]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: PosetElement) -> bool:
        return p in self.index

    def _indices(self, subset: Iterable[PosetElement]) -> list[int]:
        out = []
        for p in subset:
            if p not in self.index:
                raise ValueError(f"{p!r} is not in this universe")
            out.append(self.index[p])
        return out

    def _maximal(self, candidates: list[int]) -> list[int]:
        lm = self.leq_matrix
        return [
            i
            for i in candidates
            if not any(j != i and lm[i][j] for j in candidates)
        ]

    def _minimal(self, candidates: list[int]) -> list[int]:
        lm = self.leq_matrix
        return [
            i
            for i in candidates
            if not any(j != i and lm[j][i] for j in candidates)
        ]

    def lower_bound_indices(self, subset: Iterable[PosetElement]) -> list[int]:
        targets = self._indices(subset)
        lm = self.leq_matrix
        return [i for i in range(len(self.elements)) if all(lm[i][t] for t in targets)]

    def upper_bound_indices(self, subset: Iterable[PosetElement]) -> list[int]:
        targets = self._indices(subset)
        lm = self.leq_matrix
        return [i for i in range(len(self.elements)) if all(lm[t][i] for t in targets)]


def definitional_meet(
    subset: Iterable[PosetElement], universe: FiniteUniverse
) -> set[PosetElement]:
    """Maximal lower bounds of the subset within the universe, by scan."""
    lbs = universe.lower_bound_indices(subset)
    return {universe.elements[i] for i in universe._maximal(lbs)}


def definitional_join(
    subset: Iterable[PosetElement], universe: FiniteUniverse
) -> set[PosetElement]:
    """Minimal upper bounds of the subset within the universe, by scan."""
    ubs = universe.upper_bound_indices(subset)
    return {universe.elements[i] for i in universe._minimal(ubs)}


def search_bowties(universe: FiniteUniverse):
    """Every bowtie (a, b : c, d) in the universe, by exhaustive scan.

    a and b are minimal upper bounds of {c, d} within the universe, and c
    and d maximal lower bounds of {a, b}; pairs are reported with indices
    increasing inside each pair.
    """
    lm = universe.leq_matrix
    n = len(universe.elements)
    found = []
    for c in range(n):
        for d in range(c + 1, n):
            if lm[c][d] or lm[d][c]:
                continue
            ubs = [x for x in range(n) if lm[c][x] and lm[d][x]]
            minimal_ubs = universe._minimal(ubs)
            for a, b in itertools.combinations(sorted(minimal_ubs), 2):
                lbs = [x for x in range(n) if lm[x][a] and lm[x][b]]
                maximal_lbs = set(universe._maximal(lbs))
                if c in maximal_lbs and d in maximal_lbs:
                    found.append(
                        (
                            universe.elements[a],
                            universe.elements[b],
                            universe.elements[c],
                            universe.elements[d],
                        )
                    )
    return found


def _coordinate_patterns(dim: int):
    """Every assignment of each coordinate to free, 0, or 1."""
    return itertools.product((None, 0, 1), repeat=dim)


def coordinate_universe(
    dim: int, top: PosetElement, augmented: bool = False
) -> FiniteUniverse:
    """All coordinate-aligned subspaces (equations x_i = 0 or 1) below top.

    Elliptic elements come from point-space subspaces of that shape,
    hyperbolic ones from the nonlinear vector-space subspaces contained in
    the top move-set.  In augmented universes the new elements are the
    spans of the proper nonempty subsets of the top direction's basis.
    A candidate is kept when ``ctx.contains`` accepts it, which the
    element remembers, so the universe does not check it again.
    """
    ctx = PosetContext(top=top, augmented=augmented)
    candidates: list[PosetElement] = [top]
    for pattern in _coordinate_patterns(dim):
        free = [i for i, c in enumerate(pattern) if c is None]
        direction = span([Vector.basis(dim, i) for i in free], ambient=dim)
        anchor = [0 if c is None else c for c in pattern]
        candidates.append(Elliptic(AffineSubspaceE(Point(anchor), direction)))
        move = AffineSubspaceV(direction, Vector(anchor))
        if not move.is_linear():
            candidates.append(Hyperbolic(move))
    if augmented:
        basis = top.move.direction.basis
        for r in range(1, len(basis)):
            for subset in itertools.combinations(basis, r):
                candidates.append(New(span(list(subset), ambient=dim)))
    return FiniteUniverse(ctx, filter(ctx.contains, candidates))


def image(g: Isometry, p: PosetElement) -> PosetElement:
    """The element g.p: e^B to e^{gB}, h^M to h^{AM}, n^U to n^{AU}.

    A is the linear part of g.  Conjugation by g maps Fix and Mov this
    way, so the order, and with it every bound, commutes with images.
    """
    if isinstance(p, Elliptic):
        return Elliptic(g.image_of_affine(p.fix))
    if isinstance(p, Hyperbolic):
        direction = g.image_of_linear(p.move.direction)
        return Hyperbolic(AffineSubspaceV(direction, g.apply_vector(p.move.mu)))
    return New(g.image_of_linear(p.subspace))


def first_unfixed_point(w: Isometry) -> Optional[Point]:
    """First point w moves among the origin, then the unit points in order.

    This is the scan of AffineSubspaceE.full(n).points().  The origin is
    fixed exactly when b = 0, and then e_i is fixed exactly when column i
    of A = N / d is e_i, i.e. column i of N is d e_i.  None when w is the
    identity.
    """
    n = w.dim
    if not w.translation.is_zero():
        return Point.origin(n)
    rows, d = w.matrix.num, w.matrix.den
    for i in range(n):
        if any(row[i] != (d if j == i else 0) for j, row in enumerate(rows)):
            return Point(Vector.basis(n, i))
    return None


def definitional_peel(w: Isometry) -> tuple[Reflection, ...]:
    """The peel of an elliptic w by its definition, product by product.

    Rescans for the first unfixed point x, takes the reflection bisecting
    x and its image, multiplies it onto w, and repeats until the product
    is the identity.  Each step grows the fixed set by one dimension, so
    no isometry takes more than dim w + 1 steps (the first fixes the
    origin); a product that is not the identity by then raises ValueError
    instead of looping, as a broken reflection would make it do.
    ``factor`` must give exactly these reflections in one pass.
    """
    factors = []
    current = w
    while (x := first_unfixed_point(current)) is not None:
        if len(factors) > w.dim:
            raise ValueError(f"no identity after {len(factors)} reflections")
        r = reflection_bisecting(x, current.apply(x))
        factors.append(r)
        current = r.compose(current)
    return tuple(factors)


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def random_vector(dim: int, rng: random.Random) -> Vector:
    return Vector(rng.randint(-3, 3) for _ in range(dim))


def random_nonzero_vector(dim: int, rng: random.Random) -> Vector:
    while True:
        v = random_vector(dim, rng)
        if not v.is_zero():
            return v


def random_point(dim: int, rng: random.Random) -> Point:
    return Point(random_vector(dim, rng))


def random_reflection(dim: int, rng: random.Random) -> Reflection:
    """Mirror through a small integer point with a small integer root."""
    root = random_nonzero_vector(dim, rng)
    anchor = random_vector(dim, rng)
    return Reflection(root, root.dot(anchor))


def random_isometry(
    dim: int,
    seed,
    reflections: Optional[int] = None,
    translate: bool = True,
) -> Isometry:
    """Product of random reflections, optionally followed by a translation.

    Deterministic per seed.  With ``reflections=0`` and ``translate=False``
    the result is the identity.
    """
    rng = _rng(seed)
    if reflections is None:
        reflections = rng.randrange(dim + 3)
    w = product([random_reflection(dim, rng) for _ in range(reflections)], dim)
    if translate:
        w = translation(random_vector(dim, rng)).compose(w)
    return w


def corpus(dim: int, count: int, seed) -> list[Isometry]:
    """A reproducible mixed bag of isometries for property sweeps."""
    rng = _rng(seed)
    out = []
    for _ in range(count):
        out.append(
            random_isometry(
                dim, rng, reflections=None, translate=bool(rng.randrange(2))
            )
        )
    return out


def _random_codim_one_move(
    move: AffineSubspaceV, rng: random.Random
) -> AffineSubspaceV:
    basis = move.direction.basis
    while True:
        coeffs = [rng.randint(-2, 2) for _ in basis]
        if any(coeffs):
            break
    normal = Vector.zero(move.ambient)
    for c, b in zip(coeffs, basis):
        normal = normal + b.scale(c)
    smaller, _ = orthogonal_section(move.direction, normal)
    anchor = move.mu
    for b in basis:
        anchor = anchor + b.scale(rng.randint(-2, 2))
    return AffineSubspaceV(smaller, anchor)


def random_maximal_chain(w: Isometry, seed) -> list[PosetElement]:
    """A random maximal chain of the model poset from inv(w) down to e^E."""
    rng = _rng(seed)
    dim = w.dim
    bottom = Elliptic(AffineSubspaceE.full(dim))
    chain = [inv_map(w)]
    current = chain[0]
    while current != bottom:
        if isinstance(current, Hyperbolic):
            if current.move.dim >= 1 and rng.randrange(2):
                current = Hyperbolic(_random_codim_one_move(current.move, rng))
            else:
                direction = current.move.span_complement()
                current = Elliptic(
                    AffineSubspaceE(random_point(dim, rng), direction)
                )
        else:
            fix = current.fix
            while True:
                v = random_nonzero_vector(dim, rng)
                if not fix.direction.contains(v):
                    break
            grown = AffineSubspaceE(
                fix.point, span(list(fix.direction.basis) + [v], ambient=dim)
            )
            current = Elliptic(grown)
        chain.append(current)
    return chain


def random_minimal_factorization(w: Isometry, seed) -> Factorization:
    return chain_to_factorization(random_maximal_chain(w, seed), w)


def sample_interval(w: Isometry, seed, count: int) -> list[Isometry]:
    """Members of the interval below w: prefix products of random minimal
    factorizations, which lie between the identity and w by construction."""
    rng = _rng(seed)
    out = []
    for _ in range(count):
        f = random_minimal_factorization(w, rng)
        cut = rng.randrange(len(f.factors) + 1)
        out.append(product(f.factors[:cut], w.dim))
    return out
