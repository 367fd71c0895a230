"""Points versus vectors, and affine subspaces of both spaces.

The point space and its vector space are kept apart in the type system:
point - point is a Vector, point + vector is a Point, and point + point is
a TypeError.  Internally a single global basepoint identifies the two, so
all computations stay concrete coordinate work, but code built on these
types cannot accidentally treat a position as a displacement.

Affine subspaces of both spaces share one standard form, held by one
private base: a direction subspace D and the unique anchor vector
orthogonal to D, so equality is componentwise.  ``AffineSubspaceV`` reads
the anchor as the shift mu of U + mu, ``AffineSubspaceE`` as the
coordinates of its canonical point.  The two types never compare equal,
and their hulls and intersections share one body each.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence

from .linalg import (
    DimensionError,
    LinearSubspace,
    Vector,
    _dot,
    _independent,
    _project,
    _solve,
    _span,
    _vector,
    orthogonal_complement,
    orthogonal_section,
    project,
)
from .record import Record


class Point(Record):
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
    def coords(self) -> tuple:
        return self.vector.coords

    @property
    def dim(self) -> int:
        return self.vector.dim

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

    def __repr__(self) -> str:
        return "Point((%s))" % ", ".join(str(c) for c in self.coords)


class _AffineSubspace(Record):
    """A direction subspace plus an anchor vector in standard form.

    The constructor stores the anchor's projection onto the orthogonal
    complement of the direction, so the stored anchor is the unique one
    orthogonal to the direction and equality is equality of the two
    fields.  An anchor orthogonal to every direction row, as
    :mod:`scherk.jsonio` writes one, is that projection already and is
    stored as given, with no projection and no complement built.  Any
    other anchor is projected from the smaller side: onto the complement
    itself when the direction is more than half the space (the complement
    is kept on the direction, see :func:`linalg.orthogonal_complement`),
    and otherwise onto the direction, from the dot products the test took,
    subtracting that projection.  Either way the anchor is the same.  Under
    the full direction it is zero, with no projection.  Subspaces of E and
    of V share this form, but only subspaces of the same kind compare or
    combine.
    """

    __slots__ = ("direction", "anchor")

    def __init__(self, direction: LinearSubspace, anchor: Vector) -> None:
        if anchor.dim != direction.ambient:
            raise DimensionError("anchor and direction of different dimensions")
        self.direction = direction
        if direction.is_full():
            self.anchor = Vector.zero(direction.ambient)
            return
        rows = [b.num for b in direction.basis]
        dots = [_dot(b, anchor.num) for b in rows]
        if not any(dots):
            self.anchor = anchor
        elif 2 * direction.dim > direction.ambient:
            self.anchor = project(anchor, orthogonal_complement(direction))
        else:
            self.anchor = anchor - _project(anchor, rows, dots)

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim

    @property
    def codim(self) -> int:
        return self.direction.codim

    def _holds(self, v: Vector) -> bool:
        """Whether the coordinates v lie in the subspace: v - anchor lies
        in the direction, tested on the integer row
        den(anchor) den(v) (v - anchor)."""
        v._check_dim(self.anchor)
        d, e = v.den, self.anchor.den
        row = [e * a - d * b for a, b in zip(v.num, self.anchor.num)]
        return self.direction._contains_row(row)

    def _check_peer(self, other: "_AffineSubspace") -> None:
        if type(other) is not type(self):
            raise TypeError(f"{type(self).__name__} against {type(other).__name__}")
        if other.direction.ambient != self.direction.ambient:
            raise DimensionError("affine subspaces of different ambient dimensions")

    def subset_of(self, other: "_AffineSubspace") -> bool:
        self._check_peer(other)
        return self._within(other)

    def _within(self, other: "_AffineSubspace") -> bool:
        """subset_of for a peer of the same ambient dimension, unchecked: the
        direction rows, and the anchor difference as the integer row
        den(anchor) den(other anchor) (anchor - other anchor), lie in the
        other's direction."""
        d, e = self.anchor.den, other.anchor.den
        rows = [b.num for b in self.direction.basis]
        rows.append([e * a - d * b for a, b in zip(self.anchor.num, other.anchor.num)])
        return other.direction._contains_rows(rows)


class AffineSubspaceV(_AffineSubspace):
    """An affine subspace U + mu of the vector space, in standard form.

    mu is the anchor: any shift is accepted and stored orthogonal to U.
    The subspace is linear iff mu is zero.

    The slot ``_span_perp`` holds the orthogonal complement of the linear
    span once :meth:`span_complement` has been asked for it; it is written
    once, and the inherited ``_names`` (direction, anchor) leave it out, so
    it plays no part in equality or hashing.
    """

    __slots__ = ("_span_perp",)

    def __init__(self, direction: LinearSubspace, shift: Vector) -> None:
        super().__init__(direction, shift)
        self._span_perp: Optional[LinearSubspace] = None

    @property
    def mu(self) -> Vector:
        return self.anchor

    contains = _AffineSubspace._holds

    def is_linear(self) -> bool:
        return self.anchor.is_zero()

    def span_complement(self) -> LinearSubspace:
        """Vectors orthogonal to every vector of the subspace.

        Span = U + <mu>, so this is U^perp cut by mu^perp: one pivot-row
        step on the reduced basis of U^perp, with no elimination.
        """
        if self._span_perp is None:
            perp = orthogonal_complement(self.direction)
            self._span_perp = orthogonal_section(perp, self.anchor)[0]
        return self._span_perp

    def __repr__(self) -> str:
        return f"AffineSubspaceV({self.direction!r} + {self.mu!r})"


def _affine_v(direction: LinearSubspace, shift: Vector) -> AffineSubspaceV:
    """An AffineSubspaceV from a shift already orthogonal to the direction."""
    m = object.__new__(AffineSubspaceV)
    m.direction, m.anchor, m._span_perp = direction, shift, None
    return m


class AffineSubspaceE(_AffineSubspace):
    """A nonempty affine subspace of the point space.

    Its canonical point is the anchor read as a point: the one point of
    the subspace whose coordinate vector is orthogonal to the direction.
    The empty set is never an AffineSubspaceE; operations that can produce
    it return None instead.
    """

    __slots__ = ()

    def __init__(self, point: Point, direction: LinearSubspace) -> None:
        super().__init__(direction, point.vector)

    @classmethod
    def single_point(cls, point: Point) -> "AffineSubspaceE":
        return cls(point, LinearSubspace.zero(point.dim))

    @classmethod
    def full(cls, dim: int) -> "AffineSubspaceE":
        """The whole point space: one shared value per dimension (see
        :func:`_full_e`); ``DimensionError`` below dimension 0."""
        return _full_e(dim)

    @property
    def point(self) -> Point:
        return Point(self.anchor)

    def is_full(self) -> bool:
        return self.direction.is_full()

    def contains(self, x: Point) -> bool:
        return self._holds(x.vector)

    def points(self) -> Iterator[Point]:
        """The points of :func:`_frame`, built lazily."""
        return (Point(_vector(x, p)) for x, p in _frame(self))

    def __repr__(self) -> str:
        return f"AffineSubspaceE({self.point!r} + {self.direction!r})"


def _affine_e(direction: LinearSubspace, point: Vector) -> AffineSubspaceE:
    """An AffineSubspaceE from a point already orthogonal to the direction."""
    b = object.__new__(AffineSubspaceE)
    b.direction, b.anchor = direction, point
    return b


@functools.lru_cache(maxsize=32)
def _full_e(n: int) -> AffineSubspaceE:
    """E^n, built once per dimension and shared, on the shared R^n of
    :func:`linalg._full` with the zero anchor; no slot of it is ever
    written.  Every bottom e^E (a poset meet that fills the space, the
    bottom :func:`poset._place` decides, the start of a chain walk) is
    this value."""
    return _affine_e(LinearSubspace.full(n), Vector.zero(n))


def _frame(b: AffineSubspaceE) -> Iterator[tuple[Sequence[int], int]]:
    """The frame of b as integer rows (X, p), the point X / p: its
    canonical point, then its basis translates, built one at a time."""
    point, p = b.anchor.num, b.anchor.den
    yield point, p
    for v in b.direction.basis:
        k = v.den
        yield [k * x + p * y for x, y in zip(point, v.num)], p * k


def _check_hull(anchors: Sequence[Vector], directions: Sequence[LinearSubspace]) -> None:
    """The checks of the public hulls: at least one anchor, and one width
    for every anchor and direction, checked once as a set before any hull
    row is built."""
    if not anchors:
        raise ValueError("affine hull of an empty list")
    widths = {len(a.num) for a in anchors}
    widths.update(d.ambient for d in directions)
    if len(widths) != 1:
        raise DimensionError("affine hull of subspaces of different dimensions")


def _hull(
    anchors: Sequence[Vector],
    directions: Sequence[LinearSubspace],
    rows: Sequence[Sequence[int]] = (),
) -> LinearSubspace:
    """The direction of the smallest affine subspace through the anchors
    whose direction holds the directions and the extra integer rows: one
    span of the anchor differences, the direction bases and the rows,
    unchecked (:func:`_check_hull` checks for the public hulls, and
    ``PosetContext.require`` for a poset meet).

    The difference a - base from the first anchor goes in as the integer
    row den(base) a - den(a) base, and every other vector as its stored
    integer row, so no Vector is built per row.  The rows go through the
    one forward pass of every span, which stops at full rank and then
    returns the one shared R^n.  (:func:`_intersect` feeds the same pass,
    where a pivot in the value column tells a poset join of elliptics that
    there is no common point.)
    """
    base = anchors[0]
    e, b = base.den, base.num
    hull = [[e * x - a.den * y for x, y in zip(a.num, b)] for a in anchors[1:]]
    hull += [v.num for d in directions for v in d.basis]
    hull += rows
    return _span(hull, base.dim)


def _hull_e(
    subspaces: Sequence[AffineSubspaceE], rows: Sequence[Sequence[int]] = ()
) -> AffineSubspaceE:
    """The unchecked body of :func:`hull_of_affine_e`, on extra integer
    rows; a poset meet with an elliptic member calls it directly.  A hull
    that fills the space is the one shared ``AffineSubspaceE.full``, with
    no anchor to project."""
    anchors = [b.anchor for b in subspaces]
    direction = _hull(anchors, [b.direction for b in subspaces], rows)
    if direction.is_full():
        return _full_e(direction.ambient)
    return AffineSubspaceE(Point(anchors[0]), direction)


def hull_of_affine_e(subspaces: Sequence[AffineSubspaceE]) -> AffineSubspaceE:
    """Smallest affine subspace containing every one of the given subspaces.
    A hull that fills the space is ``AffineSubspaceE.full``, with no anchor
    to project.  A poset meet, which also spans extra directions, calls
    the unchecked body :func:`_hull_e` with them as integer rows."""
    _check_hull([b.anchor for b in subspaces], [b.direction for b in subspaces])
    return _hull_e(subspaces)


def hull_of_affine_v(subspaces: Sequence[AffineSubspaceV]) -> AffineSubspaceV:
    """Smallest affine subspace of V containing every one of the given ones."""
    anchors = [m.anchor for m in subspaces]
    directions = [m.direction for m in subspaces]
    _check_hull(anchors, directions)
    return AffineSubspaceV(_hull(anchors, directions), anchors[0])


def _intersect(subspaces: Sequence[_AffineSubspace]):
    """The common solutions of 'x - anchor lies in the direction' for each
    subspace, stacked as one augmented system [normals | values] in the
    ambient dimension n and reduced by one forward pass: (rows, pivots, n)
    with the rows in echelon order, the arguments of
    :func:`linalg._solve`.

    Each normal row N of a direction gives N . x = N . A / e for the
    anchor A / e, taken as the integer row [e N | N . A].  A row pivoted in
    the value column means there is no common point, and then the other
    rows, cut to their first n entries, are echelon rows of the sum of the
    normal spaces.  The subspaces are taken as peers, unchecked; the
    public intersections check them first (:func:`_solve_peers`).
    """
    rows = []
    for s in subspaces:
        e, a = s.anchor.den, s.anchor.num
        for normal in orthogonal_complement(s.direction).basis:
            rows.append([e * x for x in normal.num] + [_dot(normal.num, a)])
    n = subspaces[0].ambient
    return *_independent(rows, n + 1), n


def _solve_peers(subspaces: Sequence[_AffineSubspace]):
    """The :func:`linalg._solve` of :func:`_intersect`, after checking that
    the list is not empty and that its subspaces are of one kind and one
    ambient dimension."""
    if not subspaces:
        raise ValueError("intersection of an empty list of subspaces")
    for s in subspaces[1:]:
        subspaces[0]._check_peer(s)
    return _solve(*_intersect(subspaces))


def intersect_affine(*subspaces: AffineSubspaceE) -> Optional[AffineSubspaceE]:
    """Intersection of affine subspaces of E, by one stacked solve; None
    when it is empty."""
    solution = _solve_peers(subspaces)
    if solution is None:
        return None
    particular, kernel = solution
    return AffineSubspaceE(Point(particular), kernel)


def intersect_affine_v(*subspaces: AffineSubspaceV) -> Optional[AffineSubspaceV]:
    """Intersection of affine subspaces of V, by one stacked solve; None
    when it is empty."""
    solution = _solve_peers(subspaces)
    if solution is None:
        return None
    particular, kernel = solution
    return AffineSubspaceV(kernel, particular)
