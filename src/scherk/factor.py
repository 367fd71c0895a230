"""Minimal reflection factorizations and their chain form.

A factorization stores its target and a list of reflections whose product,
first factor applied last, equals the target exactly.  Minimal ones have
length equal to the Scherk length of the target.

Two constructions produce minimal factorizations:

* ``factor``, which splits off the translation mu of the target (0 exactly
  when a point is fixed) as two reflections and peels off motion
  reflections, the classical upper bound arguments, and
* walking a maximal chain of the model poset downward from the invariant
  of the target (``chain_to_factorization``); the suffixes of the result
  map back onto the chain under the invariant map, so chains and minimal
  factorizations convert losslessly in both directions.

Both directions of that conversion rest on one rule: a reflection changes
the reflection length by exactly one.  By at most one, since
l(r w) <= l(w) + 1 and w = r (r w); not by zero, since det A = (-1)^l(w).
Walking a chain down, the product after each step therefore
has length at least the rank of the element it should land on, so an
inclusion (it fixes the requested fixed set, or its motions lie in the
requested move-set) certifies the step without classifying the product.
It is also the walk's only order check: each product lies one reflection
below the last in [1, w], and inv preserves order, so a chain that does
not descend cannot land.
Reading a chain off a factorization, len(f) = l(target) forces the suffix
lengths 0, 1, ..., len(f), and the suffix invariants follow from fixed
sets cut by one mirror at a time, on an orthogonal frame of their normals,
and then from spans that grow by one root at a time.  A hyperbolic suffix
lies below the target's h^M, so the span of its move-set N fixes N =
Span(N) meet {x . mu = |mu|^2}, the rule ``poset._place`` holds for every
bound; the read places each move-set by that rule and classifies nothing
but the target.

The braid group acts on the minimal factorizations of w by Hurwitz moves:
sigma_i replaces the factors (a, b) at positions i, i + 1 by (a b a, a),
and its inverse replaces them by (b, b a b).  Both keep the product
(a b a a = a b) and the length, so minimality, and both change only the
product of the factors from position i + 1 on: exactly one element, index
i + 1, of the suffix chain.  ``rewrite_shift`` is a run of these moves.

The peel behind ``factor`` takes the motion reflection of the first point
that w = (A, b) moves, scanning the origin and then the unit points
e_0, ..., e_{n-1}, and repeats on the product.  The mirror of a motion
reflection contains the fixed set, so each step keeps every point already
fixed and fixes one more: dim Mov(w) steps, a minimal factorization
(Scherk's formula).  No product is ever built:

* If b != 0 the origin moves to b, the root is b and the mirror the
  bisector of 0 and b.  The reflection sends b back to 0, so the product
  fixes the origin: its translation is exactly 0, and every later mirror
  passes through the origin, with offset 0.
* Then e_i moves to column a_i of A, and the root is alpha = a_i - e_i.
  As A^T A = I, alpha^T A = e_i^T - row_i(A) and |alpha|^2 = 2 (1 - a_ii),
  so 2 / |alpha|^2 = 1 / (1 - a_ii) and the product's linear part
  A - alpha (e_i^T - row_i(A)) / (1 - a_ii) needs no dot product.  A unit
  column a_i is e_i exactly when a_ii = 1.
* Step i fixes e_i and keeps e_0, ..., e_{i-1} fixed, so one forward pass
  over the columns, skipping those with a_ii = 1, yields exactly the
  reflections of rescanning from the origin after every step.
* A fixes e_j exactly when A^T does, so a fixed e_j leaves row and column
  j of A equal to e_j: past step i only the block of rows and columns
  after i changes, every later root is zero up to index i, and the peel
  updates that block alone, sum (n - i)^2 entries instead of n^3.
* By Scherk's formula the peel takes exactly l(w) steps.  ``factor``
  passes the length that classifying w already gave, and the peel stops
  at the last reflection without multiplying it in.

The chain walks pick their points by a deterministic scan too: the frame
of the relevant subspace, its canonical point and then its basis
translates, as `affine._frame` gives it in integer rows (the same scan
as ``AffineSubspaceE.points``), so repeated runs produce identical
output.  The image of each scanned point is computed once, on integer
rows, and the reflection is taken from it.  The same scan certifies an
elliptic step: after the reflection the points it had passed stay fixed,
so only the basis vectors past the reflected point are applied, dim B + 1
images per step in all.  The bottom step needs the scan images alone:
the product above it is a reflection, the one the scan finds.

Both walks hold their products as integer rows (N, d, B, e), A = N / d and
b = B / e in lowest terms, and multiply a reflection in by one rank-one
update of those rows, the one behind ``Reflection.compose`` and
``isometry.product``.  The scanned points are integer rows too, so a step
builds no Point, Vector or Isometry.  The update ends with the normal
form `linalg` computes for every Matrix and Vector, so reading a chain
compares the rows of the whole product with the target's fields and
builds no Isometry.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .affine import AffineSubspaceE, AffineSubspaceV, _affine_e, _frame
from .isometry import (
    Isometry,
    Reflection,
    Rows,
    _identity_rows,
    _image,
    _motion,
    _reflect,
    _reflection_across,
    _rows,
    product,
    reflection_length,
    standard_splitting,
)
from .linalg import _dot, _vec, _vector, orthogonal_complement, orthogonal_section, span
from .poset import Elliptic, Hyperbolic, PosetContext, PosetElement, _place, inv_map, rank
from .record import Record


class ChainError(ValueError):
    """A supplied chain or factorization is not usable."""


class Factorization(Record):
    """Reflections meant to multiply to the target, the first acting last."""

    __slots__ = ("target", "factors")

    def __init__(self, target: Isometry, factors: tuple[Reflection, ...]):
        self.target = target
        self.factors = factors

    def __len__(self) -> int:
        return len(self.factors)

    def product(self) -> Isometry:
        """Product of the factors; the first listed factor acts last."""
        return product(self.factors, self.target.dim)

    def is_exact(self) -> bool:
        return self.product() == self.target


def _peel(w: Isometry, length: int) -> tuple[Reflection, ...]:
    """The ``length`` = l(w) reflections that reflect away the motion of the
    first unfixed point of an elliptic w, one after another.

    One pass over the integer rows of A = N / d and b = B / e; see the
    module docstring for the derivation.  Each reflection is built by
    :func:`isometry._reflection_across` from the mirror as the rows give
    it.  The origin step takes the bisector of 0 and B / e, the mirror
    B . x = |B|^2 / (2 e), whose normal form has the primitive root beta;
    it leaves the matrix (|beta|^2 N - beta (2 beta^T N)) / (d |beta|^2)
    and no translation.  Column i, unless N_ii = d, then takes the mirror
    c . x = 0 with c = col_i - d e_i, zero before index i, and leaves the
    entries past i as (s N_kl + N_ki N_il) / (d s), s = d - N_ii.  Only
    that block is kept: the rows and columns up to i are d e_j.  The peel
    returns after reflection number ``length``, with no update after it,
    and raises ValueError if the columns run out first.
    """
    if not length:
        return ()
    rows, d, b, e = _rows(w)
    factors = []
    if any(b):
        factors.append(_reflection_across(b, _dot(b, b), 2 * e))
        if length == 1:
            return tuple(factors)
        beta = factors[0].root.num
        norm = _dot(beta, beta)
        top = [2 * _dot(beta, col) for col in zip(*rows)]
        rows = [
            [norm * x - a * t for x, t in zip(row, top)] for a, row in zip(beta, rows)
        ]
        d *= norm
    for i in range(len(b)):
        first, *rest = rows
        s = d - first[0]
        if s == 0:
            rows = [row[1:] for row in rest]
            continue
        below = [row[0] for row in rest]
        factors.append(_reflection_across([0] * i + [-s] + below, 0, 1))
        if len(factors) == length:
            return tuple(factors)
        tail = first[1:]
        rows = [
            [s * x + a * y for x, y in zip(row[1:], tail)]
            for a, row in zip(below, rest)
        ]
        d *= s
        g = math.gcd(d, *itertools.chain.from_iterable(rows))
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            d //= g
    raise ValueError(f"the columns ran out after {len(factors)} of {length} reflections")


def factor(w: Isometry) -> Factorization:
    """Minimal factorization of any isometry.

    Splits w = t_mu u, mu = 0 exactly when w is elliptic.  A nonzero
    translation is realized as two reflections across the mirrors
    {mu . x = |mu|^2 / 2} and {mu . x = 0} (mu . p = 0 for the canonical
    min-set point p, as p lies in U and mu is orthogonal to U).  Then u is
    peeled.  To factor through a chosen chain, walk it with
    :func:`chain_to_factorization`.
    """
    mu, u = standard_splitting(w)
    length = reflection_length(w)
    if mu.is_zero():
        return Factorization(target=w, factors=_peel(w, length))
    far = _reflection_across(mu.num, _dot(mu.num, mu.num), 2 * mu.den)
    near = _reflection_across(mu.num, 0, 1)
    return Factorization(target=w, factors=(far, near) + _peel(u, length - 2))


def _step_to_hyperbolic(rows: Rows, target_move: AffineSubspaceV) -> Reflection:
    """Reflection taking a hyperbolic isometry one step down to h^{target}.

    The points whose motion under the current isometry lies in the smaller
    move-set form an affine hyperplane.  Multiplying the reflection on the
    left means the mirror must contain the images of those points, so the
    preimage hyperplane is pushed forward through the isometry.

    A normal nu of the target U' + mu' asks nu . (A x + b - x) = nu . mu'
    of x.  As A A^T = I, the image y = A x + b has nu . x = A nu . (y - b),
    so the mirror is (nu - A nu) . y = nu . mu' - A nu . b.  Normals of the
    whole move-set have A nu = nu; as the target has codimension one in
    it, the first other normal cuts out the mirror.  On the integer rows
    (N, d, B, e) of the current isometry and nu = n / k, mu' = M / m, that
    mirror times d k is (d n - N n) . y = d (n . M) / m - (N n . B) / e.
    The caller checks that the step lands on the requested element.

    The raise is an invariant check that no walk reaches: A fixes every
    normal of U' only when im(A - I) lies in U', and in a walk im(A - I)
    has the larger dimension (see :func:`chain_to_factorization`).
    """
    n, d, b, e = rows
    mu, m = target_move.mu.num, target_move.mu.den
    for normal in orthogonal_complement(target_move.direction).basis:
        nu = normal.num
        turned = _image(n, nu)
        alpha = [d * x - y for x, y in zip(nu, turned)]
        if any(alpha):
            value = d * e * _dot(nu, mu) - m * _dot(turned, b)
            return _reflection_across(alpha, value, m * e)
    raise ChainError("move-set step does not cut out a hyperplane")  # invariant check


def _lands_on(rows: Rows, move: AffineSubspaceV) -> bool:
    """Whether Mov(current) = M, for current with rows (N, d, B, e) and
    l(current) >= dim M + 2.

    If b lies in M and every column of A - I in Dir M, every motion
    (A - I) x + b lies in M, so Mov ⊆ M; as 0 is not in M, current is
    hyperbolic and l(current) = dim Mov + 2 <= dim M + 2.  The length bound
    makes the inequality an equality, and an inclusion of affine subspaces
    of equal dimension is an equality.  Without the inclusion, h^M is not
    inv(current).
    """
    n, d, b, e = rows
    if not move.contains(_vec(b, e)):
        return False
    direction = move.direction
    return all(
        direction._contains_row(column[:j] + (column[j] - d,) + column[j + 1 :])
        for j, column in enumerate(zip(*n))
    )


def chain_to_factorization(
    chain: Sequence[PosetElement], w: Isometry
) -> Factorization:
    """Factorization whose suffix invariants walk the given maximal chain.

    The chain is consumed in descending order: inv(w) first, the bottom
    element (the full space, elliptic) last.  A step checks the kind,
    dimension and rank of the next element; the certificate alone checks order.
    The current product is held as integer rows (N, d, B, e), A = N / d and
    b = B / e in lowest terms, and each step is one rank-one update of
    them (:func:`isometry._reflect`): the walk builds no Isometry.

    A step down to an elliptic e^B scans the frame of B, its canonical
    point p and then its basis translates p + d_i, built one at a time as
    integer rows, computes the image of each once (:func:`isometry._motion`),
    and reflects the first point x that the current product moves: one
    escapes Fix(current) = Fix(above), and a hyperbolic current moves
    every point.  The frame points before x were fixed by the old product,
    so they lie on the motion reflection's mirror (the bisector of x and
    its image holds every point the old product fixes) and stay fixed,
    and x is fixed by construction.  So the new product fixes p, and
    fixes a later frame point p + d_i exactly when its linear part fixes
    d_i, N d_i = d d_i: the step is certified by the basis vectors past x
    alone.  A product fixing the frame fixes B pointwise, so its length is
    at most codim B = rank(below).  A step down to h^M is certified by
    :func:`_lands_on`.  Either way the product after a step from above has
    length at least rank(above) - 1 = rank(below), so the inclusion is an
    equality.  The last step starts at a certified e^H, H a hyperplane, so
    the product is the reflection across H, and the motion reflection of a
    point it moves is that reflection itself: the step keeps it and
    neither multiplies it in nor certifies the identity that would result.

    Two raises are invariant checks that no input reaches: the current
    product's invariant is the element above, inv(w) at the start and
    certified after each step, and the ranks drop by one.  Under an
    elliptic e^B' it fixes exactly B', and B has one dimension more, so
    some frame point of B moves; under a hyperbolic it fixes no point.
    Down to h^M, im(A - I) = Dir Mov(current) has dimension codim B' =
    dim M + 3 under e^B', or dim M' = dim M + 1 under h^M', so it does not
    lie in Dir M and A moves a normal of Dir M (:func:`_step_to_hyperbolic`).
    """
    chain = list(chain)
    if not chain:
        raise ChainError("empty chain")
    if chain[0] != inv_map(w):
        raise ChainError("chain must start at the invariant of w")
    bottom = chain[-1]
    if not (
        isinstance(bottom, Elliptic)
        and bottom.ambient == w.dim
        and bottom.fix.is_full()
    ):
        raise ChainError("chain must end at the full-space element")
    factors = []
    rows = _rows(w)
    high = rank(chain[0])
    for below in chain[1:]:
        if not isinstance(below, (Elliptic, Hyperbolic)):
            raise ChainError("chains contain only elliptic and hyperbolic elements")
        if below.ambient != w.dim:
            raise ChainError("chain entries of a dimension other than the isometry's")
        low = rank(below)
        if high - low != 1:
            raise ChainError("chain is not maximal: rank must drop by one")
        high = low
        if isinstance(below, Hyperbolic):
            r = _step_to_hyperbolic(rows, below.move)
            rows = _reflect(r, rows)
            landed = _lands_on(rows, below.move)
        else:
            for j, (x, p) in enumerate(_frame(below.fix)):
                if r := _motion(rows, x, p):
                    break
            else:
                # invariant check, see the docstring
                raise ChainError("current fixes every point of the next fixed set")
            if low:
                rows = _reflect(r, rows)
                n, d = rows[0], rows[1]
                rest = (v.num for v in below.fix.direction.basis[j:])
                landed = all(_image(n, v) == [d * x for x in v] for v in rest)
            else:
                landed = True  # r is the product itself, see the docstring
        if not landed:
            raise ChainError("chain step did not land on the requested element")
        factors.append(r)
    return Factorization(target=w, factors=tuple(factors))


def factorization_to_chain(f: Factorization) -> list[PosetElement]:
    """Invariants of the suffixes of a minimal factorization.

    The result is a maximal chain from inv(target) down to the full-space
    element; a factorization whose length is not the Scherk length of its
    target is rejected as non-minimal.

    The product of the factors is accumulated as integer rows (N, d, B, e)
    in lowest terms, one rank-one update each from the identity
    (:func:`isometry._reflect`), and equals the target exactly when its
    rows equal the target's fields.  No suffix product s_j, the product of
    the last j factors, is built or classified: only the target is, by the
    length check.

    With l(s_j) and l(s_j-1) differing by exactly one, len(f) = l(target)
    forces l(s_j) = j for every j, and the invariants follow walking up
    from the identity.  While s_j-1 is elliptic with fixed set F and the
    next mirror H meets F, s_j fixes F ∩ H, of codimension at most j, so
    Fix(s_j) = F ∩ H.  At the first mirror H = {alpha . x = c} that misses
    F, H is parallel to F, so alpha lies in Dir(F)^perp.  The motion of a
    point x of F under s_j = r s_j-1 is r(x) - x, a multiple of alpha, and
    the linear part R A' of s_j has im(R A' - I) inside span(alpha) +
    im(A' - I) = Dir(F)^perp, so every motion of s_j lies in Dir(F)^perp.
    s_j is hyperbolic of length j, so Span(Mov(s_j)) has dimension j - 1 =
    codim F, and Span(Mov(s_j)) = Dir(F)^perp.  Above a hyperbolic s_j the
    next factor, with root alpha, gives Mov(s_j+1) ⊆ Mov(s_j) +
    span(alpha), both of dimension j - 1, so the spans grow by alpha.
    Each s_j-1 lies one reflection below s_j in [1, target] and inv
    preserves order, so the result is a maximal chain without an order
    check, and every hyperbolic N on it lies below the top h^M =
    inv(target).  So N is its span cut by {x . mu = |mu|^2}, the section
    :func:`poset._place` takes under that top.  That section never returns
    the bottom e^E or a bare subspace here, which it gives only for a
    demand inside Dir(M): Span(N) holds the shift mu_N of N, and mu_N .
    mu = |mu|^2 != 0.  The last span has dimension dim M + 1 and is the
    top itself.

    F is walked on an orthogonal frame, integer rows spanning Dir(F)^perp
    (integer Gram-Schmidt, one row per step, divided by its gcd).  The
    root alpha of H less its components along the frame is the vector u
    of Dir(F) normal to Dir(F ∩ H), zero exactly when H is parallel to F
    and misses it.  Otherwise p + ((c - alpha . p) / (alpha . u)) u, for
    p the canonical point of F and H = {alpha . x = c}, is orthogonal to
    Dir(F ∩ H) as p and u are: the canonical point, with no projection.
    """
    dim = f.target.dim
    rows = _identity_rows(dim)
    for r in reversed(f.factors):
        rows = _reflect(r, rows)
    if rows != _rows(f.target):
        raise ChainError("factors do not multiply to the target")
    if len(f) != reflection_length(f.target):
        raise ChainError("factorization is not minimal: suffix ranks must step by one")
    fix = AffineSubspaceE.full(dim)
    frame: list[tuple[Sequence[int], int]] = []
    demand = None
    elements: list[PosetElement] = [Elliptic(fix)]
    for r in reversed(f.factors):
        if demand is None:
            alpha = u = r.root.num
            for row, norm in frame:
                if c := _dot(u, row):
                    u = [norm * a - c * x for a, x in zip(u, row)]
                    g = math.gcd(*u)
                    u = [a // g for a in u] if g > 1 else u
            if any(u):
                direction = orthogonal_section(fix.direction, r.root)[0]
                p, q = fix.anchor.num, fix.anchor.den
                a, b, s = r.p, r.q, _dot(alpha, u)
                t = a * q - b * _dot(alpha, p)
                anchor = _vector([b * s * x + t * y for x, y in zip(p, u)], b * q * s)
                fix = _affine_e(direction, anchor)
                frame.append((u, _dot(u, u)))
                elements.append(Elliptic(fix))
                continue
            ctx = PosetContext(inv_map(f.target))
            demand = orthogonal_complement(fix.direction)
        else:
            demand = span([*demand.basis, r.root])
        elements.append(_place(demand, ctx))
    elements.reverse()
    return elements


def hurwitz(f: Factorization, i: int) -> Factorization:
    """The Hurwitz move sigma_i: (a, b) at positions i, i + 1 becomes (a b a, a)."""
    if not 0 <= i < len(f) - 1:
        raise IndexError(f"no move at {i} for {len(f)} factors")
    a, b = f.factors[i : i + 2]
    factors = f.factors[:i] + (b.conjugate(a), a) + f.factors[i + 2 :]
    return Factorization(target=f.target, factors=factors)


def hurwitz_inverse(f: Factorization, i: int) -> Factorization:
    """The inverse move: (a, b) at positions i, i + 1 becomes (b, b a b)."""
    if not 0 <= i < len(f) - 1:
        raise IndexError(f"no move at {i} for {len(f)} factors")
    a, b = f.factors[i : i + 2]
    factors = f.factors[:i] + (b, a.conjugate(b)) + f.factors[i + 2 :]
    return Factorization(target=f.target, factors=factors)


def rewrite_shift(
    f: Factorization, positions: Sequence[int], to_front: bool = True
) -> Factorization:
    """Move selected factors, unchanged and in order, to the front or back.

    A selected factor reaches the front by inverse Hurwitz moves, each
    passing it over one unselected neighbor, and the back by Hurwitz moves.
    """
    k = len(f)
    positions = list(positions)
    selected = sorted(set(positions), reverse=not to_front)
    if len(selected) != len(positions):
        raise IndexError("positions must be distinct")
    for p in selected:
        if not 0 <= p < k:
            raise IndexError(f"position {p} out of range for {k} factors")
    move = hurwitz_inverse if to_front else hurwitz
    for slot, p in enumerate(selected):
        for i in range(p - 1, slot - 1, -1) if to_front else range(p, k - 1 - slot):
            f = move(f, i)
    return f


def verify_minimal(f: Factorization) -> bool:
    """Whether f is a minimal factorization: an exact product whose length
    is the Scherk length of its target.

    That is the whole definition, and for an elliptic target it makes the
    roots independent too (Carter's lemma), so no third test is needed.
    The linear part R_i of the reflection with root alpha_i has
    im(R_i - I) = span(alpha_i), and R B - I = (R - I) B + (B - I), so by
    induction on the factors the linear part A of r_1 ... r_k has
    im(A - I) inside span(alpha_1, ..., alpha_k).  An elliptic target of
    length k has dim Mov = rank(A - I) = k, so its k roots span a space of
    dimension k: they are independent.
    """
    return f.is_exact() and len(f) == reflection_length(f.target)
