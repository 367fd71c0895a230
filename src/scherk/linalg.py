"""Exact rational linear algebra.

Every coefficient in this package is a `fractions.Fraction`, so all the
predicates that the rest of the library depends on (equality of subspaces,
membership, orthogonality, solvability) are exact decisions rather than
tolerance checks.  Floats are rejected on input: silently converting one
would smuggle binary rounding into computations whose whole point is that
they never round.

Subspaces are canonical.  The stored basis is the reduced row echelon form
of any spanning set, so two subspaces are equal iff their stored bases are
identical tuples.  This makes subspace equality, and everything built on
top of it, an O(1) comparison after construction.

A subspace keeps its orthogonal complement once it has been asked for, and
the complement points back at it, since (U^perp)^perp = U.  Eliminations
run only where an answer needs one: `project` returns the trivial
projections (zero, v itself, v orthogonal to u) from dot products, and
`solve_affine` reads the kernel off the same reduction that decides
consistency.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Q = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DimensionError(ValueError):
    """Operands live in different ambient dimensions."""


def _q(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


class Vector:
    """Immutable vector with rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable) -> None:
        self.coords = tuple(_q(c) for c in coords)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls([_ZERO] * dim)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        coords = [_ZERO] * dim
        coords[i] = _ONE
        return cls(coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_dim(other)
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        self._check_dim(other)
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.coords)

    def scale(self, c) -> "Vector":
        c = _q(c)
        return Vector(c * a for a in self.coords)

    def __rmul__(self, c) -> "Vector":
        return self.scale(c)

    def dot(self, other: "Vector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.coords, other.coords)), _ZERO)

    def norm_sq(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionError(
                f"vector dimensions differ: {len(self.coords)} vs {len(other.coords)}"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "Vector((%s))" % ", ".join(str(c) for c in self.coords)


class Matrix:
    """Immutable rational matrix, stored as a tuple of row tuples.

    `ncols` is kept explicitly so that matrices with zero rows (empty
    constraint systems) still know their width.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: Optional[int] = None) -> None:
        self.rows = tuple(tuple(_q(x) for x in row) for row in rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise DimensionError("matrix rows have unequal lengths")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise DimensionError("declared ncols does not match rows")
            self.ncols = width
        else:
            if ncols is None:
                raise DimensionError("empty matrix needs an explicit ncols")
            self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return cls([[_ZERO] * n for _ in range(m)], ncols=n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def col(self, j: int) -> Vector:
        return Vector(row[j] for row in self.rows)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            ncols=self.ncols,
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError("inner matrix dimensions differ")
            cols = other.transpose().rows
            return Matrix(
                [
                    [sum((a * b for a, b in zip(row, col)), _ZERO) for col in cols]
                    for row in self.rows
                ],
                ncols=other.ncols,
            )
        if isinstance(other, Vector):
            if self.ncols != other.dim:
                raise DimensionError("matrix and vector dimensions differ")
            return Vector(
                sum((a * b for a, b in zip(row, other.coords)), _ZERO)
                for row in self.rows
            )
        return NotImplemented

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        work = [list(row) for row in self.rows]
        n = self.nrows
        sign = _ONE
        result = _ONE
        for c in range(n):
            pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
            if pivot is None:
                return _ZERO
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                sign = -sign
            result *= work[c][c]
            inv = work[c][c]
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    f = work[i][c] / inv
                    work[i] = [a - f * b for a, b in zip(work[i], work[c])]
        return sign * result

    def is_orthogonal(self) -> bool:
        if self.nrows != self.ncols:
            return False
        return self.transpose() * self == Matrix.identity(self.nrows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}], ncols={self.ncols})"


def _rref(rows: Sequence[Sequence[Fraction]], ncols: int):
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        if lead != 1:
            work[r] = [x / lead for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], tuple(pivots)


class LinearSubspace:
    """A linear subspace of rational n-space in canonical form.

    The basis is stored as the reduced row echelon form of whatever spanning
    set was supplied, one basis vector per row.  Equality of subspaces is
    therefore equality of the stored data.

    The slot ``_perp`` holds the orthogonal complement once
    :func:`orthogonal_complement` has been asked for it; it is written once
    and plays no part in equality or hashing.
    """

    __slots__ = ("ambient", "basis", "pivots", "_perp")

    def __init__(self, ambient: int, rows: Iterable[Iterable]) -> None:
        if ambient < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        self.ambient = ambient
        prepared = []
        for row in rows:
            coords = tuple(_q(x) for x in row)
            if len(coords) != ambient:
                raise DimensionError(
                    f"row of length {len(coords)} in ambient dimension {ambient}"
                )
            prepared.append(coords)
        basis, pivots = _rref(prepared, ambient)
        self.basis = tuple(Vector(row) for row in basis)
        self.pivots = pivots
        self._perp: Optional[LinearSubspace] = None

    @classmethod
    def zero(cls, ambient: int) -> "LinearSubspace":
        return cls(ambient, [])

    @classmethod
    def full(cls, ambient: int) -> "LinearSubspace":
        return cls(ambient, Matrix.identity(ambient).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient - len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient:
            raise DimensionError(
                f"vector of dimension {v.dim} vs ambient {self.ambient}"
            )
        residual = list(v.coords)
        for row, p in zip(self.basis, self.pivots):
            c = residual[p]
            if c != 0:
                residual = [a - c * b for a, b in zip(residual, row.coords)]
        return all(a == 0 for a in residual)

    def subset_of(self, other: "LinearSubspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionError("subspaces of different ambient dimensions")
        return all(other.contains(b) for b in self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSubspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(str(c) for c in b.coords) for b in self.basis
        )
        return f"LinearSubspace(R^{self.ambient}, [{rows}])"


def span(vectors: Sequence[Vector], ambient: Optional[int] = None) -> LinearSubspace:
    """Smallest subspace containing the given vectors.

    `ambient` is only required when the list is empty; otherwise it is
    inferred and checked against every vector.
    """
    if not vectors:
        if ambient is None:
            raise DimensionError("span of an empty list needs an ambient dimension")
        return LinearSubspace.zero(ambient)
    dims = {v.dim for v in vectors}
    if len(dims) != 1:
        raise DimensionError(f"vectors of mixed dimensions: {sorted(dims)}")
    n = dims.pop()
    if ambient is not None and ambient != n:
        raise DimensionError("declared ambient does not match the vectors")
    return LinearSubspace(n, [v.coords for v in vectors])


def _kernel(
    rows: Sequence[Sequence[Fraction]], pivots: Sequence[int], n: int
) -> LinearSubspace:
    """Kernel of the first n columns of rows in reduced row echelon form.

    Extra columns past n (an augmented right hand side) are ignored, so a
    consistent reduced [A | b] gives the kernel of A.
    """
    pivot_set = set(pivots)
    vectors = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [_ZERO] * n
        v[f] = _ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return LinearSubspace(n, vectors)


def null_space(a: Matrix) -> LinearSubspace:
    """Kernel of a matrix, i.e. all x with a*x = 0."""
    rows, pivots = _rref(a.rows, a.ncols)
    return _kernel(rows, pivots, a.ncols)


def orthogonal_complement(u: LinearSubspace) -> LinearSubspace:
    """All vectors orthogonal to the subspace, for the standard dot product.

    The stored basis is already reduced, so the complement is its kernel
    with no further elimination.  It is computed once per subspace and
    linked both ways.
    """
    if u._perp is None:
        perp = _kernel([b.coords for b in u.basis], u.pivots, u.ambient)
        perp._perp = u
        u._perp = perp
    return u._perp


def intersect(u1: LinearSubspace, u2: LinearSubspace) -> LinearSubspace:
    """Intersection, via the null space of the stacked complement constraints."""
    if u1.ambient != u2.ambient:
        raise DimensionError("subspaces of different ambient dimensions")
    constraints = [
        b.coords
        for b in itertools.chain(
            orthogonal_complement(u1).basis, orthogonal_complement(u2).basis
        )
    ]
    return null_space(Matrix(constraints, ncols=u1.ambient))


def subspace_sum(u1: LinearSubspace, u2: LinearSubspace) -> LinearSubspace:
    """Smallest subspace containing both, the span of the union of bases."""
    if u1.ambient != u2.ambient:
        raise DimensionError("subspaces of different ambient dimensions")
    return LinearSubspace(
        u1.ambient, [b.coords for b in itertools.chain(u1.basis, u2.basis)]
    )


def project(v: Vector, u: LinearSubspace) -> Vector:
    """Orthogonal projection of v onto the subspace (normal equations).

    Zero, the full space and v orthogonal to u are answered from the dot
    products b_i . v; otherwise one reduction of [B B^T | B v] gives the
    coefficients of the projection in the basis B.
    """
    if v.dim != u.ambient:
        raise DimensionError(f"vector of dimension {v.dim} vs ambient {u.ambient}")
    if u.is_full() or v.is_zero():
        return v
    basis = u.basis
    rhs = [b.dot(v) for b in basis]
    if not any(rhs):
        return Vector.zero(u.ambient)
    k = len(basis)
    gram = [[bi.dot(bj) for bj in basis] + [r] for bi, r in zip(basis, rhs)]
    rows, pivots = _rref(gram, k + 1)
    if pivots != tuple(range(k)):
        raise ValueError("singular Gram system in project")
    coeffs = [row[k] for row in rows]
    return Vector(
        sum((c * b[j] for c, b in zip(coeffs, basis)), _ZERO)
        for j in range(u.ambient)
    )


def solve_affine(a: Matrix, b: Vector):
    """Full solution set of a*x = b.

    Returns (particular, kernel) with the solution set equal to
    particular + kernel, or None when the system is inconsistent.
    """
    if a.nrows != b.dim:
        raise DimensionError("matrix rows and right hand side differ")
    n = a.ncols
    augmented = [row + (bi,) for row, bi in zip(a.rows, b.coords)]
    rows, pivots = _rref(augmented, n + 1)
    if pivots and pivots[-1] == n:
        return None
    particular = [_ZERO] * n
    for row, p in zip(rows, pivots):
        particular[p] = row[n]
    return Vector(particular), _kernel(rows, pivots, n)
