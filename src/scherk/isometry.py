"""Euclidean isometries with exact rational coordinates.

An isometry is stored as a pair (A, b) with A an exactly orthogonal rational
matrix and b a rational vector, acting on coordinates as x -> A x + b.  The
coordinates refer to the global basepoint fixed in :mod:`scherk.affine`, and
composition is function composition: (w1 * w2)(x) = w1(w2(x)).

Two subsets control everything else in this library:

* the move-set Mov(w), the affine subspace of V consisting of all motion
  vectors w(x) - x, stored in standard form U + mu, and
* the min-set Min(w), the affine subspace of E of points moved by exactly
  mu, which are the points moved the least.

An isometry is *elliptic* when it fixes a point, equivalently when mu = 0,
in which case Min(w) is the fixed-point set.  Otherwise it is *hyperbolic*.
Scherk's formula gives the minimal number of reflections multiplying to w
directly from these invariants: dim Mov(w) when w is elliptic and
dim Mov(w) + 2 when w is hyperbolic.  No search is ever performed.  The
move-set, type and length come from one elimination and are kept on the
isometry; the min-set, which the formula never reads, on its first read.

A reflection is stored as its mirror hyperplane {x : alpha . x = p / q},
with alpha the canonical primitive integer root and p / q its value in
lowest terms with q > 0, so two reflections are equal exactly when their
fields are.  Every product, conjugate, chain step and JSON encoding
computes on those ints; the offset p / q is a Fraction built only when
asked for, and this module imports no `fractions`.  One method,
Reflection._normalize, puts a mirror {x : a . x = p / q} given by any
nonzero integer row a into that form.  Reflection(normal, value) calls it
for any nonzero rational normal and value, and the library builds every
reflection it derives (motions, bisectors, conjugates, the peel, the
chain steps and the JSON reader) through _reflection_across on integer
rows.  The mirror as an affine subspace is derived only when asked for.
Roots stay rational because every formula divides by the root's squared
length, so nothing here ever needs a square root.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .affine import AffineSubspaceE, AffineSubspaceV, Point, _affine_v
from .linalg import (
    DimensionError,
    LinearSubspace,
    Matrix,
    Vector,
    _dot,
    _fraction,
    _independent,
    _lowest,
    _lowest_rows,
    _mat,
    _particular,
    _q,
    _rref,
    _subspace,
    _vec,
    _vector,
    orthogonal_complement,
    span,
)
from .record import Record

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"


class OrthogonalityError(ValueError):
    """The linear part of an isometry is not exactly orthogonal."""


class Isometry(Record):
    """A euclidean isometry x -> A x + b with A exactly orthogonal.

    The constructor always verifies orthogonality.  Group operations
    (compose, inverse) build through :func:`_isometry` instead: products
    and inverses of exactly orthogonal rational matrices are exactly
    orthogonal, so revalidating them would only slow the hot paths down.

    The slot ``_class`` holds the IsometryClass, its min-set unbuilt, once
    any invariant has been asked for; :func:`classify` writes it once and
    it lives as long as the isometry.  ``_names`` leaves it out, so it
    plays no part in equality or hashing.
    """

    __slots__ = ("matrix", "translation", "_class")
    _names = ("matrix", "translation")

    def __init__(self, matrix: Matrix, translation: Vector):
        if matrix.nrows != matrix.ncols:
            raise OrthogonalityError("linear part must be square")
        if matrix.nrows != translation.dim:
            raise DimensionError("matrix and translation of different dimensions")
        if not matrix.is_orthogonal():
            raise OrthogonalityError("linear part is not orthogonal")
        self.matrix = matrix
        self.translation = translation
        self._class: Optional[IsometryClass] = None

    @classmethod
    def identity(cls, dim: int) -> "Isometry":
        return _isometry(Matrix.identity(dim), Vector.zero(dim))

    @property
    def dim(self) -> int:
        return self.translation.dim

    def apply(self, x: Point) -> Point:
        return Point(self.matrix * x.vector + self.translation)

    def apply_vector(self, v: Vector) -> Vector:
        """Action on displacement vectors (the linear part only)."""
        return self.matrix * v

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.dim != other.dim:
            raise DimensionError("isometries of different dimensions")
        return _isometry(
            self.matrix * other.matrix,
            self.matrix * other.translation + self.translation,
        )

    def inverse(self) -> "Isometry":
        at = self.matrix.transpose()
        return _isometry(at, -(at * self.translation))

    def image_of_linear(self, u: LinearSubspace) -> LinearSubspace:
        """The image A U of a direction space under the linear part A."""
        return span([self.matrix * d for d in u.basis], ambient=self.dim)

    def image_of_affine(self, b: AffineSubspaceE) -> AffineSubspaceE:
        return AffineSubspaceE(self.apply(b.point), self.image_of_linear(b.direction))

    def __repr__(self) -> str:
        return f"Isometry({self.matrix!r}, {self.translation!r})"


def _isometry(matrix: Matrix, translation: Vector) -> Isometry:
    """An Isometry from a square matrix already known to be orthogonal and
    a translation of its dimension."""
    w = object.__new__(Isometry)
    w.matrix = matrix
    w.translation = translation
    w._class = None
    return w


def translation(shift: Vector) -> Isometry:
    """The translation x -> x + shift."""
    return _isometry(Matrix.identity(shift.dim), shift)


class Reflection(Record):
    """The unique nontrivial isometry fixing an affine hyperplane pointwise.

    Reflection(normal, value) is the reflection across the mirror
    {x : normal . x = value}, for any nonzero rational normal and exact
    rational value.  It is stored as {x : root . x = p / q}: root is the
    canonical primitive integer normal (first nonzero entry positive) and
    p / q the ints of the offset in lowest terms with q > 0 (q = 1 when
    p = 0), so equal reflections have equal fields.  That form has one
    home, :meth:`_normalize`: the constructor hands it the integer row of
    the normal, and every reflection the library derives is built by
    :func:`_reflection_across` on integer rows.  The library computes on
    the ints; ``offset``, the Fraction p / q, is built on each read.
    """

    __slots__ = ("root", "p", "q")

    def __init__(self, normal: Vector, value):
        if normal.is_zero():
            raise ValueError("root must be nonzero")
        p, q = _q(value)
        self._normalize(normal.num, normal.den * p, q)

    def _normalize(self, alpha: Sequence[int], p: int, q: int) -> None:
        """Store the mirror {x : alpha . x = p / q} of a nonzero integer row
        alpha and q != 0: with g the gcd of alpha, signed so that alpha / g
        has a positive first nonzero entry, root = alpha / g and the offset
        p / (q g), divided by the gcd h of its two ints, signed like q g."""
        g = math.gcd(*alpha)
        for first in alpha:
            if first:
                break
        if first < 0:
            g = -g
        self.root = _vec(tuple([a // g for a in alpha]), 1)
        q *= g
        h = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        self.p, self.q = p // h, q // h

    @property
    def offset(self):
        """The mirror's value p / q, as a Fraction."""
        return _fraction(self.p, self.q)

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def mirror(self) -> AffineSubspaceE:
        """The fixed hyperplane as an affine subspace, built on each call:
        its point nearest the origin is root p / (q |root|^2)."""
        alpha = self.root.num
        point = Point(_vector([self.p * a for a in alpha], self.q * _dot(alpha, alpha)))
        return AffineSubspaceE(point, orthogonal_complement(span([self.root])))

    def compose(self, w: Isometry) -> Isometry:
        """self after w, as a rank-one (Householder) update in O(n^2); the
        update itself is :func:`_reflect`, shared with :func:`product` and
        the chain walks."""
        return _from_rows(_reflect(self, _rows(w)))

    def to_isometry(self) -> Isometry:
        return self.compose(Isometry.identity(self.dim))

    def conjugate(self, r: "Reflection") -> "Reflection":
        """The reflection r s r (s = self): its mirror is r's image of s's.

        For r across {alpha . x = c} and s across {beta . x = d}, the image
        beta . r(y) = d is, times |alpha|^2 and with k = 2 alpha . beta,
        the hyperplane (|alpha|^2 beta - k alpha) . y = |alpha|^2 d - k c.
        """
        if self.dim != r.dim:
            raise DimensionError("reflections of different dimensions")
        alpha, beta = r.root.num, self.root.num
        norm, k = _dot(alpha, alpha), 2 * _dot(alpha, beta)
        root = [norm * y - k * x for x, y in zip(alpha, beta)]
        p = norm * self.p * r.q - k * r.p * self.q
        return _reflection_across(root, p, r.q * self.q)

    def __repr__(self) -> str:
        offset = self.p if self.q == 1 else f"{self.p}/{self.q}"
        return f"Reflection(root={self.root!r}, offset={offset})"


def _reflection_across(alpha: Sequence[int], p: int, q: int) -> Reflection:
    """The reflection across {x : alpha . x = p / q}, for a nonzero integer
    row alpha and q != 0, put in normal form by :meth:`Reflection._normalize`."""
    r = object.__new__(Reflection)
    r._normalize(alpha, p, q)
    return r


def reflection_bisecting(x: Point, y: Point) -> Reflection:
    """The unique reflection swapping two distinct points.

    Its mirror is the perpendicular bisector {z : (y - x) . z = c}, where
    c = (y - x) . (x + y) / 2 = (|y|^2 - |x|^2) / 2.  Symmetric in its
    arguments.  On integer rows, with x = X / a, y = Y / b and
    y - x = D / d, the mirror is D . z = d (|Y|^2 a^2 - |X|^2 b^2) /
    (2 a^2 b^2).
    """
    alpha = y - x
    if alpha.is_zero():
        raise ValueError("bisecting reflection needs two distinct points")
    u, v = x.vector, y.vector
    a, b = u.den * u.den, v.den * v.den
    value = _dot(v.num, v.num) * a - _dot(u.num, u.num) * b
    return _reflection_across(alpha.num, alpha.den * value, 2 * a * b)


Rows = tuple[tuple[tuple[int, ...], ...], int, tuple[int, ...], int]


def _rows(w: Isometry) -> Rows:
    """(N, d, B, e) with A = N / d and b = B / e in lowest terms."""
    return w.matrix.num, w.matrix.den, w.translation.num, w.translation.den


def _identity_rows(dim: int) -> Rows:
    zeros = (0,) * dim
    unit = tuple(zeros[:i] + (1,) + zeros[i + 1 :] for i in range(dim))
    return unit, 1, zeros, 1


def _from_rows(rows: Rows) -> Isometry:
    n, d, b, e = rows
    return _isometry(_mat(n, d, len(b)), _vec(b, e))


def _image(rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The integer rows times the integer column v: N v for A = N / d."""
    return [_dot(row, v) for row in rows]


def _reflect(r: Reflection, rows: Rows) -> Rows:
    """The rows of r after the isometry with rows (N, d, B, e).

    With k = 2 / |alpha|^2 the product has matrix A - alpha (k alpha^T A)
    and translation b - k (alpha . b - offset) alpha.  On integer rows,
    with offset = p / q, that is (|alpha|^2 N - alpha (2 alpha^T N)) /
    (d |alpha|^2) and (q |alpha|^2 B - 2 (q alpha . B - e p) alpha) /
    (e q |alpha|^2), each put in lowest terms by :func:`linalg._lowest_rows`
    and :func:`linalg._lowest`, the normal form of a Matrix and a Vector.
    """
    n, d, b, e = rows
    alpha = r.root.num
    if len(alpha) != len(b):
        raise DimensionError("isometries of different dimensions")
    norm = _dot(alpha, alpha)
    top = [2 * _dot(alpha, col) for col in zip(*n)]
    n = [[norm * x - a * t for x, t in zip(row, top)] for a, row in zip(alpha, n)]
    n, d = _lowest_rows(n, d * norm)
    p, q = r.p, r.q
    shift, scale = 2 * (q * _dot(alpha, b) - e * p), q * norm
    b = [scale * x - shift * a for a, x in zip(alpha, b)]
    return (n, d, *_lowest(b, e * scale))


def product(reflections: Sequence[Reflection], dim: int) -> Isometry:
    """The product of the reflections, the first listed acting last: one
    rank-one update per factor on integer rows, starting from the identity
    of ``dim``, and one Isometry at the end."""
    rows = _identity_rows(dim)
    for r in reversed(reflections):
        rows = _reflect(r, rows)
    return _from_rows(rows)


class IsometryClass(Record):
    """Bundle of the basic invariants of an isometry.

    tag is "elliptic" or "hyperbolic"; move_set is in standard form U + mu;
    min_set is the fixed set when elliptic; length is the reflection length
    from Scherk's formula.  :func:`classify` keeps a point of the min-set
    in ``_point`` and builds min_set = point + U^perp into ``_min_set`` on
    its first read; equality, hash and repr read it.
    """

    __slots__ = ("tag", "move_set", "_min_set", "length", "_point")
    _names = ("tag", "move_set", "min_set", "length")

    def __init__(
        self, tag: str, move_set: AffineSubspaceV, min_set: AffineSubspaceE, length: int
    ):
        self.tag = tag
        self.move_set = move_set
        self._min_set = min_set
        self.length = length

    @property
    def min_set(self) -> AffineSubspaceE:
        if self._min_set is None:
            perp = orthogonal_complement(self.move_set.direction)
            self._min_set = AffineSubspaceE(Point(self._point), perp)
        return self._min_set

    @property
    def is_elliptic(self) -> bool:
        return self.tag == ELLIPTIC


def _invariants(w: Isometry) -> IsometryClass:
    """Move-set and class of w, and a min-set point, from one elimination.

    With M = A - I, the min-set is the solution set of the normal equations
    M^T M x = -M^T b: the points whose motion M x + b is shortest.  As A is
    orthogonal, M^T M = 2I - A - A^T and -M^T b = b - A^T b need no matrix
    product, and ker M^T M = ker M = im(M)^perp, so the row space of M^T M
    is U = im M.  One reduction of [M^T M | -M^T b] therefore yields U (its
    rows) and a min-set point x, whose motion mu = M x + b lies in
    ker M^T = U^perp: the shift of Mov(w) = U + mu, with no projection.
    With A = N / d, b = B / e and x = P / p the system reduced is the
    integer [(2d I - N - N^T) e | d B - N^T B], and mu is the integer row
    (e N P - d e P + d p B) / (d p e).  Min(w) = x + U^perp waits for its
    first read (IsometryClass.min_set).
    """
    a, d, b, e = _rows(w)
    n = len(b)
    augmented = []
    for i, (row, col, t) in enumerate(zip(a, zip(*a), b)):
        line = [-e * (x + y) for x, y in zip(row, col)]
        line[i] += 2 * d * e
        line.append(d * t - _dot(col, b))
        augmented.append(line)
    rows, pivots = _rref(augmented, n + 1)
    x = _particular(rows, pivots, n)
    de, dp = d * e, d * x.den
    mu = [e * _dot(r, x.num) - de * v + dp * t for r, v, t in zip(a, x.num, b)]
    mov = _affine_v(_subspace(n, rows, pivots), _vector(mu, dp * e))
    tag = ELLIPTIC if mov.is_linear() else HYPERBOLIC
    cls = IsometryClass(tag, mov, None, mov.dim + (0 if tag == ELLIPTIC else 2))
    cls._point = x
    return cls


def move_set(w: Isometry) -> AffineSubspaceV:
    """All motion vectors w(x) - x, in standard form U + mu.

    U is the column space of A - I and mu is the component of b orthogonal
    to it.  The first call on w computes the move-set, type and length of w
    at once and keeps them on w; see :func:`classify`.
    """
    return classify(w).move_set


def min_set(w: Isometry) -> AffineSubspaceE:
    """Points moved by exactly mu, the minimal motion.

    The result has dimension complementary to the move-set and is
    stabilized by w.  It is built on the first call and kept on w.
    """
    return classify(w).min_set


def classify(w: Isometry) -> IsometryClass:
    """The invariants of w, computed on the first call and kept on w: the
    one writer of ``w._class``."""
    if w._class is None:
        w._class = _invariants(w)
    return w._class


def reflection_length(w: Isometry) -> int:
    """Minimal number of reflections multiplying to w (Scherk's formula)."""
    return classify(w).length


def standard_splitting(w: Isometry) -> tuple[Vector, Isometry]:
    """Write w = t_mu u with u elliptic.

    mu is the standard-form shift of the move-set; u fixes exactly the
    min-set of w and has Mov(u) = Dir(Mov(w)).  For elliptic w this is
    (0, w).
    """
    mu = classify(w).move_set.mu
    if mu.is_zero():
        return mu, w
    return mu, _isometry(w.matrix, w.translation - mu)


class ProductPrediction(Record):
    """Predicted class of r*w from the invariants of r and w alone.

    move_set is the exact move-set of r*w when the case determines it (the
    root is outside the move-set direction).  When the root lies inside,
    the move-set is only constrained to be a codimension 1 subspace of
    move_set_within, and move_set is None.
    """

    __slots__ = ("tag", "length", "move_set", "move_set_within")

    def __init__(
        self,
        tag: str,
        length: int,
        move_set: Optional[AffineSubspaceV],
        move_set_within: Optional[AffineSubspaceV],
    ):
        self.tag = tag
        self.length = length
        self.move_set = move_set
        self.move_set_within = move_set_within


def predict_product(r: Reflection, w: Isometry) -> ProductPrediction:
    """Class and length of r*w without computing the product.

    Case analysis on whether the root lies in the move-set direction, and
    for elliptic w on whether the mirror contains the fixed set.
    """
    cls = classify(w)
    alpha = r.root
    u = cls.move_set.direction
    k = cls.length
    if cls.tag == HYPERBOLIC:
        if u.contains(alpha):
            return ProductPrediction(HYPERBOLIC, k - 1, None, cls.move_set)
        u_alpha = span([*u.basis, alpha])
        enlarged = AffineSubspaceV(u_alpha, cls.move_set.mu)
        if enlarged.is_linear():
            return ProductPrediction(ELLIPTIC, k - 1, enlarged, None)
        return ProductPrediction(HYPERBOLIC, k + 1, enlarged, None)
    if not u.contains(alpha):
        u_alpha = span([*u.basis, alpha])
        grown = AffineSubspaceV(u_alpha, Vector.zero(w.dim))
        return ProductPrediction(ELLIPTIC, k + 1, grown, None)
    # alpha lies in U, so it is normal to Dir(Min) = U^perp: the min-set lies
    # in the mirror exactly when its point does.
    anchor = cls.min_set.anchor
    if r.q * _dot(alpha.num, anchor.num) == r.p * anchor.den:
        return ProductPrediction(ELLIPTIC, k - 1, None, cls.move_set)
    return ProductPrediction(HYPERBOLIC, k + 1, None, cls.move_set)


def _motion(rows: Rows, point: Sequence[int], p: int) -> Optional[Reflection]:
    """The reflection sending the point x = P / p to its image under the
    isometry with rows (N, d, B, e), or None when the isometry fixes it.

    Its mirror is the perpendicular bisector of x and y = w(x): both
    points have the denominator D = d p e, as x = X / D and y = Y / D with
    X = d e P and Y = e N P + d p B.  The bisector
    (y - x) . z = (|y|^2 - |x|^2) / 2 is, times D, the mirror
    (Y - X) . z = (Y - X) . (Y + X) / (2 D), whose normal form does not
    depend on how P / p is scaled.  The image N P is computed once.
    """
    n, d, b, e = rows
    dp, de = d * p, d * e
    ys = [e * y + dp * t for y, t in zip(_image(n, point), b)]
    xs = [de * v for v in point]
    alpha = [y - v for y, v in zip(ys, xs)]
    if not any(alpha):
        return None
    value = _dot(alpha, [y + v for y, v in zip(ys, xs)])
    return _reflection_across(alpha, value, 2 * dp * e)


def reflection_distance(u: Isometry, v: Isometry) -> int:
    """The reflection metric d(u, v) = l(u^-1 v), from one elimination.

    u^-1 v is x -> A_u^T A_v x + A_u^T (b_v - b_u), so its [A - I | b] is
    A_u^T [D | delta] with D = A_v - A_u and delta = b_v - b_u, and A_u^T
    is invertible.  Scherk's formula, dim Mov or dim Mov + 2 as b lies in
    im(A - I) or not, is therefore 2 rank [D | delta] - rank D, and both
    ranks are read off the pivots of one forward elimination, with no
    upward pass.  Scaling the columns of D and delta separately changes
    neither rank, so with A = N / d and b = B / e the rows eliminated are
    [d_u N_v - d_v N_u | e_u B_v - e_v B_u].  No inverse, product or
    invariant is built.
    """
    if u.dim != v.dim:
        raise DimensionError("isometries of different dimensions")
    n = u.dim
    nu, du, bu, eu = _rows(u)
    nv, dv, bv, ev = _rows(v)
    rows = [
        [du * y - dv * x for x, y in zip(row_u, row_v)] + [eu * q - ev * p]
        for row_u, row_v, p, q in zip(nu, nv, bu, bv)
    ]
    _, pivots = _independent(rows, n + 1)
    linear_rank = sum(1 for p in pivots if p < n)
    return 2 * len(pivots) - linear_rank


def interval_contains(w: Isometry, u: Isometry) -> bool:
    """Whether u lies between the identity and w in the reflection metric,
    l(u) + d(u, w) = l(w): :func:`interval_leq` with u2 = w."""
    return interval_leq(w, u, w)


def interval_leq(w: Isometry, u: Isometry, u2: Isometry) -> bool:
    """The interval order: u below u2 on a common geodesic from 1 to w,
    l(u) + d(u, u2) + d(u2, w) = l(w).

    The lengths decide most pairs.  By the triangle inequality each
    distance is at least the difference of the two lengths, so the sum
    reaches l(w) exactly when l(u) <= l(u2) <= l(w) and both distances
    equal those differences.  A pair of equal length is then decided by
    equality, as d = 0 only for equal isometries, and only a pair whose
    lengths differ costs an elimination (:func:`reflection_distance`).
    Isometries of different dimensions raise before any length is read.
    """
    if not w.dim == u.dim == u2.dim:
        raise DimensionError("isometries of different dimensions")
    low, mid, top = reflection_length(u), reflection_length(u2), reflection_length(w)
    return (
        low <= mid <= top
        and _at_distance(u, u2, mid - low)
        and _at_distance(u2, w, top - mid)
    )


def _at_distance(u: Isometry, v: Isometry, gap: int) -> bool:
    """Whether d(u, v) = gap, for a gap of at least 0."""
    return u == v if gap == 0 else reflection_distance(u, v) == gap
