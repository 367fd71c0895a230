"""Reflection arrangements as oblique universes for the elliptic bounds.

The coordinate universes of ``test_oracle.py`` hold only subspaces spanned
by coordinate axes, so every pair of their lines or mirrors meets at 90
degrees.  The flats of a finite reflection arrangement do not: the flats
of B_3 hold lines at 45 degrees, and the mirrors of A_3 (acting on R^4)
and D_4 meet at 60 degrees.  Each universe below is the set of flats, the
root hyperplanes closed under ``linalg.intersect`` together with the whole
space, taken as elements e^F under the point top e^{0}.  Every pair's
``meet`` and ``join`` must agree with the scan oracle over the universe
(``check_meet_agreement`` and ``check_join_agreement``).  A join of flats
is their intersection, itself a flat; a meet is their sum, which need not
be one, and then the oracle checks that every maximal lower bound in the
universe lies below it.

The oracle finds its bounds in dicts and sets keyed by the elements, so
the element hash and equality of ``record.Record`` are exercised on
incidences that no coordinate universe reaches.
"""

import itertools
from fractions import Fraction

import pytest

from scherk.affine import AffineSubspaceE, Point
from scherk.linalg import LinearSubspace, Vector, intersect, orthogonal_complement, span
from scherk.oracle import FiniteUniverse
from scherk.poset import Elliptic, PosetContext
from test_oracle import check_join_agreement, check_meet_agreement, point_top


def unit(n, i, sign=1):
    return [sign * int(k == i) for k in range(n)]


def plus(*rows):
    return Vector([sum(entries) for entries in zip(*rows)])


def roots(kind, n):
    """One root of each mirror of A_{n-1} (acting on R^n), B_n or D_n."""
    pairs = list(itertools.combinations(range(n), 2))
    found = [plus(unit(n, i), unit(n, j, -1)) for i, j in pairs]
    if kind in "BD":
        found += [plus(unit(n, i), unit(n, j)) for i, j in pairs]
    if kind == "B":
        found += [Vector(unit(n, i)) for i in range(n)]
    return found


def flats(kind, n):
    """The root hyperplanes closed under intersection, and R^n."""
    mirrors = [orthogonal_complement(span([r])) for r in roots(kind, n)]
    found = dict.fromkeys([LinearSubspace.full(n), *mirrors])
    fresh = list(mirrors)
    while fresh:
        cuts = dict.fromkeys(intersect(f, m) for f in fresh for m in mirrors)
        fresh = [cut for cut in cuts if cut not in found]
        found.update(dict.fromkeys(fresh))
    return list(found)


def cos_squared(u, v):
    return u.dot(v) ** 2 / (u.norm_sq() * v.norm_sq())


def angles(flats, dim):
    """cos^2 of the angles between the flats of dimension dim, for lines,
    or between their normals, for hyperplanes."""
    lines = [f if dim == 1 else orthogonal_complement(f) for f in flats if f.dim == dim]
    assert all(line.dim == 1 for line in lines)
    return {cos_squared(a.basis[0], b.basis[0]) for a, b in itertools.combinations(lines, 2)}


ARRANGEMENTS = {  # name: (kind, n, number of flats)
    "A3": ("A", 4, 15),
    "B3": ("B", 3, 24),
    "D4": ("D", 4, 72),
}


def universe(kind, n):
    origin = Point.origin(n)
    elements = [Elliptic(AffineSubspaceE(origin, f)) for f in flats(kind, n)]
    return FiniteUniverse(PosetContext(point_top(n)), elements)


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_flats_are_counted(name):
    kind, n, count = ARRANGEMENTS[name]
    assert len(flats(kind, n)) == count


def test_the_universes_are_oblique():
    assert Fraction(1, 2) in angles(flats("B", 3), 1)  # lines at 45 degrees
    assert Fraction(1, 4) in angles(flats("A", 4), 3)  # mirrors at 60 degrees
    assert Fraction(1, 4) in angles(flats("D", 4), 3)


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_meets_and_joins_agree_with_the_oracle(name):
    kind, n, count = ARRANGEMENTS[name]
    u = universe(kind, n)
    assert len(u) == count
    for p, q in itertools.combinations_with_replacement(u.elements, 2):
        check_meet_agreement(u, p, q)
        check_join_agreement(u, p, q)
