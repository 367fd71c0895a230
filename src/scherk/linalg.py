"""Exact rational linear algebra on integer rows.

Every vector and matrix is stored as Python ints over one positive common
denominator, in lowest terms: a Vector is (num, den) and a Matrix is
(num rows, den, ncols), with den > 0 and gcd(den, *entries) == 1.  That
form is unique, so equality is a compare of the stored fields (the one
rule of `record.Record`, which every value class of the library takes),
and elimination, dot products and products run on ints without building
a `fractions.Fraction` per coefficient.  Fractions appear only at the API
edge: `coords`, `rows`, indexing, iteration, `dot`, `norm_sq` and `det`
return them, and the constructors accept ints, Fractions and numeric
strings.  Each of them is built by `_fraction`, the library's one import
of `fractions`, which runs on its first call; an int input is read by
`int.as_integer_ratio` and builds none, and a repr writes its rationals
from the ints (`_texts`, as the JSON writer does), so a run that hands
out no Fraction never loads `fractions` (nor the `decimal` and `numbers`
it imports).

This module is the one place that computes that normal form.
`_over_lcm` puts rationals read as (p, q) pairs over their least common
denominator, which is already in lowest terms; the constructors and the
JSON reading of a row entry by entry (`jsonio`) build through it, and
`_rows_over_lcm` puts rows in that form over one denominator.  `_lowest`
and `_lowest_rows` divide integer rows over a denominator by their one
gcd; a printed JSON row of fractions ends with `_lowest`, and `_vector`,
`_matrix` and the rank-one update behind the isometry products
(`isometry._reflect`) end with them.  All the predicates that the rest of
the library depends on (equality of subspaces, membership, orthogonality,
solvability) are exact decisions rather than tolerance checks.  Floats are
rejected on input: silently converting one would smuggle binary rounding
into computations whose whole point is that they never round.

Elimination is fraction-free: a row is updated as lead * row - f * pivot_row
and divided by the gcd of its entries, so no division ever leaves the
integers and coefficients stay small.  There is one elimination in two
passes.  The forward pass, `_independent`, reduces the rows one at a time
against those kept so far and stops once a given number of rows are
independent; a rank needs no more.  The upward pass, `_upward`, takes its
echelon rows to the reduced row echelon form, and `_rref` is the two in
turn.  The forward pass is the one core of every span (`span`, the affine
hulls and the poset joins), so a stack that reaches full rank reads no
further row and builds no reduced basis, and a caller that needs only the
rank stops there.  A consistent augmented system's solution with every
free variable 0 is one back-substitution over echelon rows,
`_particular`, so a caller that needs the rank and one solution stops
there too: the classification of an isometry (`isometry._invariants`)
does, and makes the upward pass only when the reduced basis of its
move-set is first read.

Subspaces are canonical.  A subspace is stored as its reduced integer
rows: the reduced row echelon form of any spanning set, each row scaled to
coprime ints that are positive at its pivot, with the pivot columns beside
them.  The elimination passes hand on rows in the same format, so the
upward pass's rows are a subspace's stored rows, and every inclusion test,
kernel, section and span reads the stored rows with no Vector built; the
Vectors of `LinearSubspace.basis` are made only on request.  The form is
unique, so two subspaces are equal iff their stored rows are identical
tuples; rows that already are that form are recognized and kept as given.
This makes subspace equality, and everything built on top of it, an O(1)
comparison after construction.  The full space of each dimension is one
shared value (`_full`, a bounded memo): every full-rank exit returns it,
it is never mutated, and its ``_perp`` is the zero space from the start.

A subspace keeps its orthogonal complement once it has been asked for, and
the complement points back at it, since (U^perp)^perp = U.  Eliminations
run only where an answer needs one: `project` returns the trivial
projections (zero, v itself, v orthogonal to u) from dot products and the
projection onto a line from its closed form, `_kernel` reads a kernel of
one free column off its one vector, and `_solve`, the solve the affine
intersections and the poset joins run, takes a forward pass over an
augmented [A | b], reads inconsistency off its last pivot, and reads the
particular solution and the kernel off the same rows reduced upward.
`solve_affine` is that solve on a Matrix and a Vector.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import itemgetter, mul
from typing import Iterable, Iterator, Optional, Sequence

from .record import Record


class DimensionError(ValueError):
    """Operands live in different ambient dimensions."""


def _fraction(value, den=None):
    """The Fraction value / den of two ints, or the exact rational value
    alone: a Fraction as it is, an int or a numeric string as Fraction
    reads it; any other value, a float among them, raises TypeError.

    Every Fraction the library hands out or reads is built here, and this
    is its one import of `fractions`, run on the first call.  It is a
    plain ``import fractions``: once the module is loaded, that costs
    about 0.3 us a call on Python 3.11, and ``from fractions import
    Fraction`` about 2 us.
    """
    import fractions

    if den is None:
        if isinstance(value, fractions.Fraction):
            return value
        if not isinstance(value, (int, str)):
            raise TypeError(f"expected an exact rational, got {value!r}")
    return fractions.Fraction(value, den)


def _texts(num: Iterable[int], den: int) -> list[str]:
    """The rationals x / den for x in num, each as str(Fraction) writes it:
    "p/q" in lowest terms, or "p" when q is 1; den is positive.  The JSON
    writer and the reprs write every rational here, with no Fraction
    built; an int over the interpreter's digit limit raises ValueError, as
    str(int) does."""
    if den == 1:
        return list(map(str, num))
    texts = []
    for x in num:
        g = math.gcd(x, den)
        texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return texts


def _q(value) -> tuple[int, int]:
    """An exact rational as (p, q) in lowest terms with q > 0: an int, a
    bool too, by int.as_integer_ratio with no Fraction built, any other
    value through :func:`_fraction`."""
    if isinstance(value, int):
        return value.as_integer_ratio()
    return _fraction(value).as_integer_ratio()


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """Rationals p / q, each in lowest terms with q > 0, as (ints, den)
    over the least common multiple den of the q.

    The result is in lowest terms too: a prime dividing den divides the
    largest power of itself among the q, and that rational's scaled
    numerator is prime to it.
    """
    den = math.lcm(*(q for _, q in pairs))
    return tuple(p * (den // q) for p, q in pairs), den


def _common(values: Iterable) -> tuple[tuple[int, ...], int]:
    """Exact rationals as (ints, den) over their least common denominator."""
    return _over_lcm([_q(x) for x in values])


def _rows_over_lcm(
    rows: Sequence[tuple[Sequence[int], int]], ncols: Optional[int] = None
) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """The fields (num, den, ncols) of the Matrix whose rows are the integer
    rows r / d of the (r, d) pairs, each in lowest terms with d > 0, over
    the lcm den of the d.  The result is in lowest terms, as in
    :func:`_over_lcm`: den is the lcm of the least denominators of all the
    entries.

    Raises DimensionError when the rows have unequal lengths or a length
    other than a declared ncols, or when there are no rows and no ncols.
    """
    if rows:
        widths = {len(r) for r, _ in rows}
        if len(widths) != 1:
            raise DimensionError("matrix rows have unequal lengths")
        width = widths.pop()
        if ncols is not None and ncols != width:
            raise DimensionError("declared ncols does not match rows")
        ncols = width
    elif ncols is None:
        raise DimensionError("empty matrix needs an explicit ncols")
    den = math.lcm(*[d for _, d in rows])
    num = tuple(
        [tuple(r) if d == den else tuple([x * (den // d) for x in r]) for r, d in rows]
    )
    return num, den, ncols


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _vec(num: tuple[int, ...], den: int) -> "Vector":
    """A Vector from fields already in canonical form."""
    v = object.__new__(Vector)
    v.num = num
    v.den = den
    return v


def _lowest(num: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """num / den in lowest terms, (ints, den) with den > 0, for any nonzero
    den: both divided by gcd(den, *num), signed like den."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple([x // g for x in num]), den // g


def _vector(num: Sequence[int], den: int) -> "Vector":
    """The Vector num / den for any nonzero den."""
    return _vec(*_lowest(num, den))


def _unit(n: int, i: int) -> tuple[int, ...]:
    """The integer row e_i of length n, for 0 <= i < n (unchecked)."""
    return (0,) * i + (1,) + (0,) * (n - 1 - i)


def _mat(num: tuple[tuple[int, ...], ...], den: int, ncols: int) -> "Matrix":
    """A Matrix from fields already in canonical form."""
    m = object.__new__(Matrix)
    m.num = num
    m.den = den
    m.ncols = ncols
    return m


def _lowest_rows(
    rows: Sequence[Sequence[int]], den: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer rows over den > 0 in lowest terms, as (rows, den): each
    divided by one gcd of den and every entry."""
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    if g == 1:
        return tuple(map(tuple, rows)), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


def _matrix(rows: Sequence[Sequence[int]], den: int, ncols: int) -> "Matrix":
    """The Matrix rows / den for any positive den."""
    return _mat(*_lowest_rows(rows, den), ncols)


class Vector(Record):
    """Immutable rational vector, stored as ints over one denominator."""

    __slots__ = ("num", "den")

    def __init__(self, coords: Iterable) -> None:
        self.num, self.den = _common(coords)

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return _vec((0,) * dim, 1)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        """The unit vector e_i of R^dim; IndexError unless 0 <= i < dim."""
        if not 0 <= i < dim:
            raise IndexError(f"no basis vector {i} in dimension {dim}")
        num = [0] * dim
        num[i] = 1
        return _vec(tuple(num), 1)

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple([_fraction(x, den) for x in self.num])

    @property
    def dim(self) -> int:
        return len(self.num)

    def __len__(self) -> int:
        return len(self.num)

    def __iter__(self) -> Iterator:
        return iter(self.coords)

    def __getitem__(self, i: int):
        return _fraction(self.num[i], self.den)

    def _combine(self, other: "Vector", sign: int) -> "Vector":
        self._check_dim(other)
        g = math.gcd(self.den, other.den)
        s, t = other.den // g, sign * (self.den // g)
        return _vector(
            [a * s + b * t for a, b in zip(self.num, other.num)], self.den * s
        )

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Vector":
        return _vec(tuple(-a for a in self.num), self.den)

    def scale(self, c) -> "Vector":
        p, q = _q(c)
        return _vector([p * a for a in self.num], q * self.den)

    def dot(self, other: "Vector"):
        self._check_dim(other)
        return _fraction(_dot(self.num, other.num), self.den * other.den)

    def norm_sq(self):
        return _fraction(_dot(self.num, self.num), self.den * self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _check_dim(self, other: "Vector") -> None:
        if len(self.num) != len(other.num):
            raise DimensionError(
                f"vector dimensions differ: {len(self.num)} vs {len(other.num)}"
            )

    def __repr__(self) -> str:
        return "Vector((%s))" % ", ".join(_texts(self.num, self.den))


class Matrix(Record):
    """Immutable rational matrix, stored as integer rows over one denominator.

    `ncols` is kept explicitly so that matrices with zero rows (empty
    constraint systems) still know their width.
    """

    __slots__ = ("num", "den", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: Optional[int] = None) -> None:
        rows = [_common(row) for row in rows]
        self.num, self.den, self.ncols = _rows_over_lcm(rows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return _mat(tuple([_unit(n, i) for i in range(n)]), 1, n)

    @property
    def rows(self) -> tuple[tuple, ...]:
        den = self.den
        return tuple(tuple([_fraction(x, den) for x in row]) for row in self.num)

    @property
    def nrows(self) -> int:
        return len(self.num)

    def _columns(self) -> list[tuple[int, ...]]:
        if not self.num:
            return [()] * self.ncols
        return list(zip(*self.num))

    def transpose(self) -> "Matrix":
        return _mat(tuple(self._columns()), self.den, self.nrows)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError("inner matrix dimensions differ")
            cols = other._columns()
            return _matrix(
                [[_dot(row, col) for col in cols] for row in self.num],
                self.den * other.den,
                other.ncols,
            )
        if isinstance(other, Vector):
            if self.ncols != other.dim:
                raise DimensionError("matrix and vector dimensions differ")
            return _vector(
                [_dot(row, other.num) for row in self.num], self.den * other.den
            )
        return NotImplemented

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise DimensionError("determinant of a non-square matrix")
        work = [list(row) for row in self.num]
        sign, previous = 1, 1
        for c in range(n):
            pivot = next((i for i in range(c, n) if work[i][c]), None)
            if pivot is None:
                return _fraction(0, 1)
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                sign = -sign
            lead = work[c]
            for i in range(c + 1, n):
                f = work[i][c]
                work[i] = [(lead[c] * a - f * b) // previous for a, b in zip(work[i], lead)]
            previous = lead[c]
        return _fraction(sign * previous, self.den**n)

    def is_orthogonal(self) -> bool:
        """A^T A = I, i.e. the integer columns are orthogonal of length den."""
        if self.nrows != self.ncols:
            return False
        cols = self._columns()
        square = self.den * self.den
        return all(
            _dot(cols[i], cols[j]) == (square if i == j else 0)
            for i in range(self.ncols)
            for j in range(i, self.ncols)
        )

    def __repr__(self) -> str:
        body = "; ".join(", ".join(_texts(row, self.den)) for row in self.num)
        return f"Matrix([{body}], ncols={self.ncols})"


def _independent(rows: Iterable[Sequence[int]], limit: int):
    """Forward elimination of integer rows, fraction-free, one row at a
    time: (rows, pivots) with row i nonzero at pivots[i] and zero left of
    it, the pivots increasing, and the zero rows dropped.  A rank needs no
    more than this.

    Each row is reduced against the rows kept so far, at their pivots, and
    kept unless it reduces to zero; its pivot is its first nonzero entry.
    A kept row is zero at the pivot of every row kept before it, so sorted
    by pivot the kept rows are in echelon form.  The pass stops as soon as
    `limit` rows are kept, without reading the rest; a limit of the number
    of columns never stops it early.
    """
    kept = []
    for residual in rows:
        for row, p in kept:
            if c := residual[p]:
                d = row[p]
                residual = [d * a - c * x for a, x in zip(residual, row)]
                g = math.gcd(*residual)
                residual = [a // g for a in residual] if g > 1 else residual
        for p, a in enumerate(residual):
            if a:
                kept.append((residual, p))
                break
        else:
            continue
        if len(kept) == limit:
            break
    kept.sort(key=itemgetter(1))
    return [row for row, _ in kept], tuple(p for _, p in kept)


def _upward(rows: Sequence[Sequence[int]], pivots: tuple[int, ...]):
    """Reduced row echelon form of integer rows in echelon form.

    Returns (reduced rows, pivot columns).  Each reduced row is a tuple of
    coprime ints, positive at its pivot and zero at every other pivot; the
    row of the reduced row echelon form is row / row[pivot].  The rows are
    reduced upward, last pivot first; the reduced form is unique, so it is
    the one Gauss-Jordan elimination gives.
    """
    work = list(rows)
    for k in range(len(pivots) - 1, 0, -1):
        top, c = work[k], pivots[k]
        lead = top[c]
        for i in range(k):
            if f := work[i][c]:
                row = [lead * a - f * b for a, b in zip(work[i], top)]
                g = math.gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row
    reduced = []
    for row, p in zip(work, pivots):
        g = math.gcd(*row) if row[p] > 0 else -math.gcd(*row)
        reduced.append(tuple([a // g for a in row]))
    return reduced, pivots


def _rref(rows: Sequence[Sequence[int]], ncols: int):
    """Reduced row echelon form of integer rows, fraction-free, as
    :func:`_upward` returns it.

    Scaling a row changes neither its span nor the solutions of an
    augmented system, so callers may clear denominators row by row before
    reducing.
    """
    return _upward(*_independent(rows, ncols))


def _subspace(ambient: int, reduced, pivots: tuple[int, ...]) -> "LinearSubspace":
    """The subspace spanned by integer rows that are multiples of reduced
    rows, as :func:`_upward` returns them: each row is divided by the gcd
    of its first `ambient` entries, signed like its entry at its pivot.

    Columns past `ambient` (an augmented right hand side) are dropped, so
    the row space of a reduced consistent [A | b] gives the row space of A;
    the gcd of a row so cut may exceed 1.
    """
    rows = tuple([_lowest(row[:ambient], row[p])[0] for row, p in zip(reduced, pivots)])
    return _canonical(ambient, rows, pivots)


def _canonical(ambient: int, rows: tuple[tuple[int, ...], ...], pivots: tuple[int, ...]):
    """A LinearSubspace from rows and pivots already in the stored form."""
    u = object.__new__(LinearSubspace)
    u.ambient = ambient
    u.rows = rows
    u.pivots = pivots
    u._perp = None
    return u


def _span(rows: Iterable[Sequence[int]], n: int) -> "LinearSubspace":
    """The span of integer rows of length n.

    n independent rows span R^n, returned as soon as they are found;
    fewer are reduced upward once.
    """
    rows, pivots = _independent(rows, n)
    if len(pivots) == n:
        return _full(n)
    return _subspace(n, *_upward(rows, pivots))


def _solve(rows: Sequence[Sequence[int]], pivots: tuple[int, ...], n: int):
    """The solution set of an augmented [A | b] of n unknowns from a
    forward pass, as (particular, kernel); None when a row is pivoted in
    the value column, which is when the system is inconsistent."""
    if pivots and pivots[-1] == n:
        return None
    reduced, pivots = _upward(rows, pivots)
    return _particular(reduced, pivots, n), _kernel(reduced, pivots, n)


def _particular(
    rows: Sequence[Sequence[int]], pivots: tuple[int, ...], n: int
) -> Vector:
    """The solution with every free variable 0 of a consistent [A | b] of n
    unknowns whose integer rows are in echelon form: row k nonzero at
    pivots[k] and zero left of it, no pivot in the value column n.  The
    rows of a forward pass are such rows, and so are reduced rows.

    Back-substitution, last pivot first, keeps the unknowns solved so far
    as ints num over one denominator den.  Row k with lead = row[p] at
    its pivot p gives x_p = s / (den lead), s = row[n] den - sum of
    row[j] num[j] over the solved j.  s and lead are divided by their gcd
    first, so the earlier unknowns are rescaled by what is left of lead
    to share the new denominator, and not at all when s takes the whole
    lead.  Zero entries and zero unknowns are skipped, so a reduced row,
    zero at every other pivot, costs that rescale alone.  A forward row's
    lead may be negative, and so den; the Vector divides by the one gcd
    at the end, signed like den (:func:`_lowest`).
    """
    num, den = [0] * n, 1
    solved = []
    k = len(pivots)
    while k:
        k -= 1
        row, p = rows[k], pivots[k]
        s = row[n] * den
        for j in solved:
            if a := row[j]:
                s -= a * num[j]
        if s:
            lead = row[p]
            g = math.gcd(s, lead)
            if g != 1:
                s //= g
                lead //= g
            if lead != 1:
                for j in solved:
                    num[j] *= lead
                den *= lead
            num[p] = s
            solved.append(p)
    return _vector(num, den)


def _reduced_pivots(rows: Sequence[Vector]) -> Optional[tuple[int, ...]]:
    """The pivot columns of rows already in reduced row echelon form, or
    None when they are not: every row nonzero with its first nonzero entry
    1, the pivots strictly increasing, and every other row zero in each
    pivot column.  A row is zero left of its pivot, so only the rows above
    it need to be read at a pivot."""
    pivots = []
    for i, v in enumerate(rows):
        num = v.num
        for p, a in enumerate(num):
            if a:
                break
        else:
            return None
        if a != v.den or (pivots and p <= pivots[-1]):
            return None
        if any(b.num[p] for b in rows[:i]):
            return None
        pivots.append(p)
    return tuple(pivots)


class LinearSubspace(Record):
    """A linear subspace of rational n-space in canonical form.

    It is stored as the reduced row echelon form of whatever spanning set
    was supplied, one integer row per basis vector: ``rows`` holds each row
    of that form times its pivot's denominator, a tuple of coprime ints
    that is positive at its pivot, and ``pivots`` the pivot columns.  The
    row of the reduced form is row / row[pivot], which ``basis`` builds as
    a Vector on each read.  The form is unique, so equality of subspaces
    is equality of the stored rows.  Rows that already are that form, as
    :mod:`scherk.jsonio` writes a basis, are stored as given: they are
    recognized by reading their pivots (:func:`_reduced_pivots`), and
    nothing is eliminated.  Any other spanning set is reduced by
    :func:`_span`.

    The slot ``_perp`` holds the orthogonal complement once
    :func:`orthogonal_complement` has been asked for it; it is written once,
    and it is left out of ``_names``, so it plays no part in equality or
    hashing.  Nor are ``pivots``, which the rows determine.
    """

    __slots__ = ("ambient", "rows", "pivots", "_perp")
    _names = ("ambient", "rows")

    def __init__(self, ambient: int, rows: Iterable[Iterable]) -> None:
        if ambient < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        self.ambient = ambient
        vectors = []
        for row in rows:
            v = row if isinstance(row, Vector) else _vec(*_common(row))
            if len(v.num) != ambient:
                raise DimensionError(
                    f"row of length {len(v.num)} in ambient dimension {ambient}"
                )
            vectors.append(v)
        pivots = _reduced_pivots(vectors)
        if pivots is None:
            canonical = _span([v.num for v in vectors], ambient)
            self.rows, self.pivots = canonical.rows, canonical.pivots
        else:
            self.rows, self.pivots = tuple([v.num for v in vectors]), pivots
        self._perp: Optional[LinearSubspace] = None

    @classmethod
    def zero(cls, ambient: int) -> "LinearSubspace":
        if ambient < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        return _canonical(ambient, (), ())

    @classmethod
    def full(cls, ambient: int) -> "LinearSubspace":
        """The whole space: one shared value per dimension, never mutated,
        whose ``_perp`` is the zero space (see :func:`_full`)."""
        if ambient < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        return _full(ambient)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced basis, row / row[pivot] for each stored row."""
        return tuple([_vec(row, row[p]) for row, p in zip(self.rows, self.pivots)])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.ambient - len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient:
            raise DimensionError(
                f"vector of dimension {v.dim} vs ambient {self.ambient}"
            )
        return self._contains_row(v.num)

    def _contains_row(self, residual: Sequence[int]) -> bool:
        """residual - sum of residual[p] b_p over the pivots p is zero.

        The integer row stands for any nonzero multiple of a vector.  The
        basis vector b_p is row / row[p] for the stored row of pivot p, so
        each step scales the residual by row[p] and clears its entry at p.
        """
        for row, p in zip(self.rows, self.pivots):
            c = residual[p]
            if c:
                d = row[p]
                residual = [d * a - c * x for a, x in zip(residual, row)]
        return not any(residual)

    def _contains_rows(self, rows: Iterable[Sequence[int]]) -> bool:
        """Whether every integer row, of length ambient, lies in the
        subspace: the one inclusion test of :meth:`subset_of`, of the affine
        inclusions and of the poset order."""
        return all(map(self._contains_row, rows))

    def subset_of(self, other: "LinearSubspace") -> bool:
        if self.ambient != other.ambient:
            raise DimensionError("subspaces of different ambient dimensions")
        return other._contains_rows(self.rows)

    def __repr__(self) -> str:
        rows = "; ".join(", ".join(_texts(b.num, b.den)) for b in self.basis)
        return f"LinearSubspace(R^{self.ambient}, [{rows}])"


@functools.lru_cache(maxsize=32)
def _full(n: int) -> LinearSubspace:
    """R^n, built once per dimension and shared: its unit rows are
    already a reduced basis, and it is linked both ways to the zero space,
    so :func:`orthogonal_complement` never writes to it.  Every full-rank
    exit returns it (:func:`_span` and ``LinearSubspace.full``), so a bound
    that fills the space builds no basis; the shared E^n of
    ``AffineSubspaceE.full`` (``affine._full_e``, bounded the same way) is
    built on it."""
    full = _canonical(n, tuple([_unit(n, i) for i in range(n)]), tuple(range(n)))
    zero = _canonical(n, (), ())
    full._perp, zero._perp = zero, full
    return full


def span(vectors: Sequence[Vector], ambient: Optional[int] = None) -> LinearSubspace:
    """Smallest subspace containing the given vectors.

    `ambient` is only required when the list is empty; otherwise it is
    inferred and checked against every vector.

    The rows go through one forward pass that stops at full rank (see
    :func:`_span`): n independent rows give R^n at once, with no reduced
    basis built, and fewer are reduced upward once.  The same pass is the
    core of the affine hulls and the poset joins; an all-elliptic join
    runs it once over its stacked [normals | values], where a pivot in the
    value column separates "no common point, and the rows left of it span
    W" from the intersection.
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
    return _span([v.num for v in vectors], n)


def _kernel(reduced, pivots: Sequence[int], n: int) -> LinearSubspace:
    """Kernel of the first n columns of reduced integer rows, as
    :func:`_upward` returns them or a subspace stores them.

    Extra columns past n (an augmented right hand side) are ignored, so a
    consistent reduced [A | b] gives the kernel of A.  The kernel vector of
    free column f is e_f - sum of (row[f] / row[p]) e_p over the rows of
    pivot p, scaled by the common multiple of the row[p] to stay integral.
    When no row has an entry in a free column (there are no rows, or each
    row is a unit row) the kernel rows are the free unit rows, which are
    already reduced.  One free column gives one vector, whose reduced row
    is itself divided by its gcd, signed like its first nonzero entry; more
    are spanned once (:func:`_span`).
    """
    pivot_set = set(pivots)
    free = tuple(f for f in range(n) if f not in pivot_set)
    if not any(row[f] for row in reduced for f in free):
        return _canonical(n, tuple([_unit(n, f) for f in free]), free)
    scale = math.lcm(*(row[p] for row, p in zip(reduced, pivots)))
    vectors = []
    for f in free:
        v = [0] * n
        v[f] = scale
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    if len(vectors) == 1:
        pivot = next(i for i, a in enumerate(vectors[0]) if a)
        return _subspace(n, vectors, (pivot,))
    return _span(vectors, n)


def null_space(a: Matrix) -> LinearSubspace:
    """Kernel of a matrix, i.e. all x with a*x = 0."""
    return _kernel(*_rref(a.num, a.ncols), a.ncols)


def orthogonal_complement(u: LinearSubspace) -> LinearSubspace:
    """All vectors orthogonal to the subspace, for the standard dot product.

    The stored basis is already reduced, so the complement is its kernel
    with no further elimination.  It is computed once per subspace and
    linked both ways.
    """
    if u._perp is None:
        perp = _kernel(u.rows, u.pivots, u.ambient)
        perp._perp = u
        u._perp = perp
    return u._perp


def intersect(first: LinearSubspace, *rest: LinearSubspace) -> LinearSubspace:
    """Intersection, via the kernel of the stacked complement constraints."""
    n = first.ambient
    if any(u.ambient != n for u in rest):
        raise DimensionError("subspaces of different ambient dimensions")
    constraints = [row for u in (first, *rest) for row in orthogonal_complement(u).rows]
    return _kernel(*_rref(constraints, n), n)


def orthogonal_section(
    u: LinearSubspace, normal: Vector
) -> tuple[LinearSubspace, Optional[tuple[int, ...]]]:
    """u intersected with the hyperplane normal^perp, by one pivot-row step.

    Returns the section and a stored row w of u with normal . w != 0, or
    (u, None) when normal is orthogonal to u.  With a_i = normal . d_i over
    the reduced basis d_i of u, the section is {sum t_i d_i : sum t_i a_i
    = 0}.  Let i* be the last index with a_i != 0: the rows
    d_i - (a_i / a_i*) d_i* for i != i* are a basis and already reduced,
    since the rows past i* have a_i = 0 and stay as they are, and d_i* is
    zero left of its pivot, which lies right of the pivot of every row
    before it.  On the stored integer rows N_i, d_i = N_i / N_i[p_i], with
    A_i = normal . N_i that is the multiple A_i* N_i - A_i N_i* of d_i.
    """
    if normal.dim != u.ambient:
        raise DimensionError("hyperplane and subspace of different dimensions")
    rows, pivots = u.rows, u.pivots
    weights = [_dot(normal.num, row) for row in rows]
    last = max((i for i, a in enumerate(weights) if a), default=None)
    if last is None:
        return u, None
    top, pivot_row = weights[last], rows[last]
    reduced = [
        [top * x - a * y for x, y in zip(row, pivot_row)]
        for i, (row, a) in enumerate(zip(rows, weights))
        if i != last
    ]
    section = _subspace(u.ambient, reduced, pivots[:last] + pivots[last + 1 :])
    return section, pivot_row


def project(v: Vector, u: LinearSubspace) -> Vector:
    """Orthogonal projection of v onto the subspace (normal equations).

    Zero, the full space and v orthogonal to u are answered from the dot
    products b_i . v, and a line spanned by the integer row B from the
    closed form (B . V / B . B) B / den(v), with V = den(v) v.  Otherwise
    one forward pass and one back-substitution of the integer system
    [B_i . B_j | B_i . V] give the coefficients of the projection of V in
    the stored integer rows B_i, and the projection of v is that of V
    scaled by 1 / den(v).
    """
    if v.dim != u.ambient:
        raise DimensionError(f"vector of dimension {v.dim} vs ambient {u.ambient}")
    if u.is_full() or v.is_zero():
        return v
    return _project(v, u.rows, [_dot(b, v.num) for b in u.rows])


def _project(v: Vector, rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Vector:
    """The projection of v onto the span of the independent integer rows B_i,
    from the dot products rhs[i] = B_i . num(v) (:func:`project`)."""
    if not any(rhs):
        return Vector.zero(len(v.num))
    k = len(rows)
    if k == 1:
        b, (c,) = rows[0], rhs
        return _vector([c * x for x in b], _dot(b, b) * v.den)
    gram = [[_dot(bi, bj) for bj in rows] + [r] for bi, r in zip(rows, rhs)]
    echelon, pivots = _independent(gram, k + 1)
    if pivots != tuple(range(k)):
        raise ValueError("singular Gram system in project")
    coeffs = _particular(echelon, pivots, k)
    num = [0] * len(v.num)
    for c, b in zip(coeffs.num, rows):
        if c:
            num = [a + c * x for a, x in zip(num, b)]
    return _vector(num, coeffs.den * v.den)


def solve_affine(a: Matrix, b: Vector):
    """Full solution set of a*x = b.

    Returns (particular, kernel) with the solution set equal to
    particular + kernel, or None when the system is inconsistent.  With
    a = N / d and b = B / e the integer system is e N x = d B.
    """
    if a.nrows != b.dim:
        raise DimensionError("matrix rows and right hand side differ")
    n = a.ncols
    g = math.gcd(a.den, b.den)
    s, t = b.den // g, a.den // g
    augmented = [[s * x for x in row] + [t * bi] for row, bi in zip(a.num, b.num)]
    return _solve(*_independent(augmented, n + 1), n)
