"""Points versus vectors, and affine subspaces of both spaces.

The point space and its vector space are kept apart in the type system:
point - point is a Vector, point + vector is a Point, and point + point is
a TypeError.  Internally a single global basepoint identifies the two, so
all computations stay concrete coordinate work, but code built on these
types cannot accidentally treat a position as a displacement.

Both kinds of affine subspace carry a canonical representation that makes
equality componentwise:

* ``AffineSubspaceV`` is U + mu in standard form, i.e. mu is the unique
  shift vector orthogonal to the direction subspace U.
* ``AffineSubspaceE`` stores its direction space D together with the unique
  point of the subspace whose coordinate vector lies in the orthogonal
  complement of D.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .linalg import (
    DimensionError,
    LinearSubspace,
    Vector,
    _dot,
    _mat,
    _vector,
    orthogonal_complement,
    orthogonal_section,
    project,
    solve_affine,
    span,
)


class Point:
    """A position in the affine point space; not a vector.

    It holds its coordinate vector relative to the global basepoint.
    """

    __slots__ = ("vector",)

    def __init__(self, coords: Iterable) -> None:
        self.vector = coords if isinstance(coords, Vector) else Vector(coords)

    @classmethod
    def origin(cls, dim: int) -> "Point":
        return cls(Vector.zero(dim))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self.vector.coords

    @property
    def dim(self) -> int:
        return self.vector.dim

    def to_vector(self) -> Vector:
        """Coordinate vector relative to the global basepoint."""
        return self.vector

    def __add__(self, other):
        if isinstance(other, Vector):
            return Point(self.vector + other)
        if isinstance(other, Point):
            raise TypeError("cannot add two points; subtract them to get a vector")
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Point):
            if self.dim != other.dim:
                raise DimensionError("points of different dimensions")
            return self.vector - other.vector
        if isinstance(other, Vector):
            return Point(self.vector - other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.vector == other.vector

    def __hash__(self) -> int:
        return hash(("Point", self.vector))

    def __repr__(self) -> str:
        return "Point((%s))" % ", ".join(str(c) for c in self.coords)


class AffineSubspaceV:
    """An affine subspace U + mu of the vector space, in standard form.

    The constructor accepts any shift and subtracts its projection onto U,
    so the stored mu always lies in the orthogonal complement of U and the
    representation is unique.  The subspace is linear iff mu is zero.

    The slot ``_span_perp`` holds the orthogonal complement of the linear
    span once :meth:`span_complement` has been asked for it; it is written
    once and plays no part in equality or hashing.
    """

    __slots__ = ("direction", "mu", "_span_perp")

    def __init__(self, direction: LinearSubspace, shift: Vector) -> None:
        if shift.dim != direction.ambient:
            raise DimensionError("shift and direction of different dimensions")
        self.direction = direction
        offset = project(shift, direction)
        self.mu = shift if offset.is_zero() else shift - offset
        self._span_perp: Optional[LinearSubspace] = None

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim

    def is_linear(self) -> bool:
        return self.mu.is_zero()

    def contains(self, v: Vector) -> bool:
        """v - mu lies in U, tested on the integer row of den(mu) den(v) (v - mu)."""
        v._check_dim(self.mu)
        d, e = v.den, self.mu.den
        row = [e * a - d * b for a, b in zip(v.num, self.mu.num)]
        return self.direction._contains_row(row)

    def subset_of(self, other: "AffineSubspaceV") -> bool:
        if self.ambient != other.ambient:
            raise DimensionError("affine subspaces of different ambient dimensions")
        return self.direction.subset_of(other.direction) and other.contains(self.mu)

    def span_complement(self) -> LinearSubspace:
        """Vectors orthogonal to every vector of the subspace.

        Span = U + <mu>, so this is U^perp cut by mu^perp: one pivot-row
        step on the reduced basis of U^perp, with no elimination.
        """
        if self._span_perp is None:
            perp = orthogonal_complement(self.direction)
            self._span_perp = orthogonal_section(perp, self.mu)[0]
        return self._span_perp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineSubspaceV)
            and self.direction == other.direction
            and self.mu == other.mu
        )

    def __hash__(self) -> int:
        return hash((self.direction, self.mu))

    def __repr__(self) -> str:
        return f"AffineSubspaceV({self.direction!r} + {self.mu!r})"


class AffineSubspaceE:
    """A nonempty affine subspace of the point space.

    Canonical form: the stored point is the unique one whose coordinate
    vector is orthogonal to the direction space, so equality is equality of
    the two fields.  The empty set is never an AffineSubspaceE; operations
    that can produce it return None instead.
    """

    __slots__ = ("point", "direction")

    def __init__(self, point: Point, direction: LinearSubspace) -> None:
        if point.dim != direction.ambient:
            raise DimensionError("point and direction of different dimensions")
        position = point.to_vector()
        offset = project(position, direction)
        self.point = point if offset.is_zero() else Point(position - offset)
        self.direction = direction

    @classmethod
    def single_point(cls, point: Point) -> "AffineSubspaceE":
        return cls(point, LinearSubspace.zero(point.dim))

    @classmethod
    def full(cls, dim: int) -> "AffineSubspaceE":
        return cls(Point.origin(dim), LinearSubspace.full(dim))

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim

    @property
    def codim(self) -> int:
        return self.direction.codim

    def is_full(self) -> bool:
        return self.direction.is_full()

    def contains(self, x: Point) -> bool:
        if x.dim != self.ambient:
            raise DimensionError("point of wrong dimension")
        return self.direction.contains(x - self.point)

    def subset_of(self, other: "AffineSubspaceE") -> bool:
        if self.ambient != other.ambient:
            raise DimensionError("affine subspaces of different ambient dimensions")
        return self.direction.subset_of(other.direction) and other.contains(self.point)

    def points(self) -> list[Point]:
        """The canonical point and its basis translates, spanning the subspace."""
        return [self.point] + [self.point + b for b in self.direction.basis]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineSubspaceE)
            and self.point == other.point
            and self.direction == other.direction
        )

    def __hash__(self) -> int:
        return hash((self.point, self.direction))

    def __repr__(self) -> str:
        return f"AffineSubspaceE({self.point!r} + {self.direction!r})"


def affine_hull(points: Sequence[Point]) -> AffineSubspaceE:
    """Smallest affine subspace containing the given points."""
    if not points:
        raise ValueError("affine hull of an empty point list")
    dims = {p.dim for p in points}
    if len(dims) != 1:
        raise DimensionError(f"points of mixed dimensions: {sorted(dims)}")
    base = points[0]
    direction = span([p - base for p in points[1:]], ambient=base.dim)
    return AffineSubspaceE(base, direction)


def hull_of_affine_e(
    subspaces: Sequence[AffineSubspaceE], extra: Iterable[Vector] = ()
) -> AffineSubspaceE:
    """Smallest affine subspace containing every one of the given subspaces,
    thickened by the directions in ``extra``: one span of the point
    differences, the direction bases and the extra vectors."""
    if not subspaces:
        raise ValueError("hull of an empty list of subspaces")
    base = subspaces[0].point
    vectors = []
    for b in subspaces:
        vectors.append(b.point - base)
        vectors.extend(b.direction.basis)
    vectors.extend(extra)
    return AffineSubspaceE(base, span(vectors, ambient=base.dim))


def hull_of_affine_v(subspaces: Sequence[AffineSubspaceV]) -> AffineSubspaceV:
    """Smallest affine subspace of V containing every one of the given ones."""
    if not subspaces:
        raise ValueError("hull of an empty list of subspaces")
    base = subspaces[0].mu
    vectors = []
    for m in subspaces:
        vectors.append(m.mu - base)
        vectors.extend(m.direction.basis)
    return AffineSubspaceV(span(vectors, ambient=base.dim), base)


def hyperplane_section(
    b: AffineSubspaceE, normal: Vector, value
) -> Optional[AffineSubspaceE]:
    """b intersected with the hyperplane {x : normal . x = value}; None when
    they are disjoint.

    The direction is Dir(b) cut by normal^perp (:func:`orthogonal_section`).
    When normal is orthogonal to Dir(b) the hyperplane contains b or misses
    it.  Otherwise the canonical point p moves along
    v = proj_Dir(b)(normal), which lies in Dir(b) and is orthogonal to the
    new direction, to p + t v with normal . (p + t v) = value.
    """
    direction, row = orthogonal_section(b.direction, normal)
    position = b.point.to_vector()
    gap = value - normal.dot(position)
    if row is None:
        return None if gap else b
    v = project(normal, b.direction)
    point = Point(position + v.scale(gap / normal.dot(v)))
    return AffineSubspaceE(point, direction)


def _intersect_by_constraints(pairs: Sequence[tuple[LinearSubspace, Vector]]):
    """Common solutions of 'x - anchor lies in direction' for each pair.

    Each normal row n of a direction gives n . x = n . anchor, taken on
    the integer rows of the normals over the anchors' common denominator.
    """
    if not pairs:
        raise ValueError("intersection of an empty list of subspaces")
    ambient = pairs[0][0].ambient
    if any(direction.ambient != ambient for direction, _ in pairs):
        raise DimensionError("affine subspaces of different ambient dimensions")
    den = math.lcm(*(anchor.den for _, anchor in pairs))
    rows = []
    rhs = []
    for direction, anchor in pairs:
        scale = den // anchor.den
        for normal in orthogonal_complement(direction).basis:
            rows.append(normal.num)
            rhs.append(scale * _dot(normal.num, anchor.num))
    return solve_affine(_mat(tuple(rows), 1, ambient), _vector(rhs, den))


def intersect_affine(*subspaces: AffineSubspaceE) -> Optional[AffineSubspaceE]:
    """Intersection of affine subspaces of E, by one stacked solve; None
    when it is empty."""
    solution = _intersect_by_constraints(
        [(b.direction, b.point.to_vector()) for b in subspaces]
    )
    if solution is None:
        return None
    particular, kernel = solution
    return AffineSubspaceE(Point(particular), kernel)


def intersect_affine_v(*subspaces: AffineSubspaceV) -> Optional[AffineSubspaceV]:
    """Intersection of affine subspaces of V, by one stacked solve; None
    when it is empty."""
    solution = _intersect_by_constraints([(m.direction, m.mu) for m in subspaces])
    if solution is None:
        return None
    particular, kernel = solution
    return AffineSubspaceV(kernel, particular)
