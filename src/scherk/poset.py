"""The combinatorial model poset for reflection-length intervals.

Elements come in three kinds, each indexed by exact subspace data:

* ``Elliptic(fix)``, written e^B, for an affine subspace B of the point
  space.  Elliptic isometries with fixed set B map here.  Rank: codim B.
* ``Hyperbolic(move)``, written h^M, for a nonlinear affine subspace M of
  the vector space.  Hyperbolic isometries with move-set M map here.
  Rank: dim M + 2.
* ``New(subspace)``, written n^U, for a proper nontrivial linear subspace
  U of the top move-set direction.  These exist only in augmented
  (completed) posets.  Rank: dim U + 1, forced by sitting strictly between
  e^B at rank dim U and h^M at rank dim U + 2.

The order: elliptic elements are ordered by reverse inclusion and
hyperbolic elements by inclusion; e^B < h^M iff the orthogonal complement
of Span(M) lies in Dir(B); no hyperbolic element is ever below an elliptic
one.  In an augmented poset, new elements are ordered among themselves by
inclusion, n^U < h^M iff U lies in Dir(M), and e^B < n^U iff the
orthogonal complement of Dir(B) lies in U.

A context carries the top element (h^M or e^B) and whether the poset is
augmented.  The subposet under an elliptic top is a complete lattice; under
a hyperbolic top it is a lattice iff dim M <= 1, and augmenting it always
yields a complete lattice whose meets and joins ``dm_meet``/``dm_join``
compute in closed form.

Plain and augmented bounds come from the same two kernels, one for meets
and one for joins.  Each returns an element or a leftover direction
subspace S that no single element of the plain poset realizes: ``meet``
and ``join`` read S as a ``BoundFamily`` of extremal bounds, and
``dm_meet`` and ``dm_join`` read it as the new element n^S that the
completion adds there.

Under a hyperbolic top h^M, with M = U + mu in standard form (mu
orthogonal to U and nonzero), every bound is decided inside the single
subspace Span(M) = U + <mu>.  M is the section of Span(M) by the
hyperplane H = {x : x . mu = |mu|^2}, and so is every move-set N below
the top: Span(N) meets H exactly in N, since x = d + t mu_N with d in
Dir(N), a subspace of U, has x . mu = t |mu|^2.  Hence N' lies in N iff
Span(N') lies in Span(N), and Span(N) meets U exactly in Dir(N).  So each
member places one demand "S lies in Span(N)" on an upper bound h^N, and
"S lies in V" on an upper bound n^V:

* e^B demands S = Dir(B)^perp,
* h^N' demands S = Span(N'),
* n^V demands S = V.

A join sums the demands: W is one span of the stacked rows.  A meet with
no elliptic member intersects them: W is the kernel of the rows of each
Span(N)^perp and V^perp, exact because every N is Span(N) meet H, so the
intersection of the N is the intersection of the spans meet H.  Like each
demand, W lies in Span(M); at dimension dim M + 1 it is Span(M) and gives
the top.  A join decides that by rank: its forward pass over the demand
rows stops at dim M + 1 independent rows and returns the top with no
subspace built.  Any smaller W takes one section.  W leaves U when a
basis row w of W has w . mu != 0, and then the bound is h^N with N = W
meet H, with direction W meet mu^perp (one pivot-row step,
:func:`orthogonal_section`) and the point w |mu|^2 / (w . mu).  When W
lies in U no move-set can be placed: W = 0, which only a meet reaches,
gives the bottom e^E, W = U the top, and any other W is the leftover
S = W.  :func:`_place` also serves the chain read of ``factor``, which
places each hyperbolic suffix from the span of its move-set.

A join of elliptics alone is one forward pass over the stacked system
[normals | values] of their fixed sets.  A row pivoted in the value
column means they have no common point, and the rows left of it are
echelon rows of W, the sum of the Dir(B)^perp; otherwise the same rows,
reduced upward, give their intersection, which is the join.  A lower
bound e^C needs every demand's complement inside Dir(C), so a meet with
an elliptic member is one forward pass over the point differences, the
Dir(B) bases and those complements, on integer rows; when it fills R^n
the bound is the bottom e^E, the one shared value of
``AffineSubspaceE.full``, with nothing built.

Each bound reads its members in one pass that sorts them by kind and
takes their integer rows as stored.  The members are checked once, by
``PosetContext.require``, and nothing after it checks them again: the
bounds call the private, unchecked passes of ``linalg`` and ``affine``
directly (a meet with an elliptic member the body ``_hull_e`` of the
public ``hull_of_affine_e``), never a public hull or intersection.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

from .affine import (
    AffineSubspaceE,
    AffineSubspaceV,
    Point,
    _hull_e,
    _intersect,
)
from .isometry import Isometry, classify
from .linalg import (
    DimensionError,
    LinearSubspace,
    _dot,
    _independent,
    _solve,
    _span,
    _subspace,
    _upward,
    _vector,
    orthogonal_complement,
    orthogonal_section,
    span,
)
from .record import Record


class PosetError(ValueError):
    """Invalid poset input: bad element, bad context, or element above top."""


class _Element(Record):
    """The one slot of a poset element and what the three kinds share.

    Each kind names the slot after its paper field (``fix``, ``move``,
    ``subspace``); ``kind`` is its letter, e, h or n.

    The slot ``_under`` holds the context that last accepted the element
    in :meth:`PosetContext.contains`; membership depends on values alone.
    ``_names`` leaves the slot out, and the repr does not print it, so it
    plays no part in equality, hashing or the repr.
    """

    __slots__ = ("_space", "_under")
    _names = ("_space",)

    @property
    def ambient(self) -> int:
        return self._space.ambient

    def __repr__(self) -> str:
        return f"{self.kind}^{self._space!r}"


class Elliptic(_Element):
    __slots__ = ()
    kind = "e"
    fix = _Element._space

    def __init__(self, fix: AffineSubspaceE):
        self._space = fix
        self._under = None


class Hyperbolic(_Element):
    __slots__ = ()
    kind = "h"
    move = _Element._space

    def __init__(self, move: AffineSubspaceV):
        if move.is_linear():
            raise PosetError("hyperbolic elements carry a nonlinear move-set")
        self._space = move
        self._under = None


class New(_Element):
    __slots__ = ()
    kind = "n"
    subspace = _Element._space

    def __init__(self, subspace: LinearSubspace):
        if subspace.dim == 0:
            raise PosetError("new elements carry a nontrivial subspace")
        self._space = subspace
        self._under = None


PosetElement = Union[Elliptic, Hyperbolic, New]


class PosetContext(Record):
    """A model poset: everything at or below a chosen top element."""

    __slots__ = ("top", "augmented")

    def __init__(self, top: PosetElement, augmented: bool = False):
        if isinstance(top, New):
            raise PosetError("a context must have an elliptic or hyperbolic top")
        if augmented and not isinstance(top, Hyperbolic):
            raise PosetError("only hyperbolic posets are augmented")
        self.top = top
        self.augmented = augmented

    @property
    def ambient(self) -> int:
        return self.top.ambient

    def contains(self, p: PosetElement) -> bool:
        """Whether p is a member: leq(p, top), and for an n^V an augmented
        context and dim V < dim Dir M, which with V in Dir M (part of leq)
        makes V proper.  This is the one membership rule of the library.

        It always decides, and records an acceptance in the element's slot
        ``_under``, the context that last accepted it; :meth:`require` is
        the one reader of that memo."""
        space, top = p._space, self.top._space
        ambient = space.ambient if p.kind == "n" else space.direction.ambient
        if ambient != top.direction.ambient:
            raise DimensionError("element and top of different ambient dimensions")
        if p.kind == "n" and not (self.augmented and space.dim < top.dim):
            return False
        if not leq(p, self.top):
            return False
        p._under = self
        return True

    def require(self, *elements: PosetElement) -> None:
        """Raise ``PosetError`` unless every element is a member.  An
        element whose ``_under`` is this context was accepted here already
        and is not decided again; any other is decided by :meth:`contains`."""
        for p in elements:
            if p._under is not self and not self.contains(p):
                raise PosetError(f"element ({_label(p)}) is not below the top")


def inv_map(w: Isometry) -> PosetElement:
    """e^{Min(w)} for elliptic w, h^{Mov(w)} for hyperbolic w."""
    cls = classify(w)
    if cls.is_elliptic:
        return Elliptic(cls.min_set)
    return Hyperbolic(cls.move_set)


def leq(p: PosetElement, q: PosetElement) -> bool:
    """Whether p <= q in the order of the module docstring.  The ambient
    dimensions are read once, from the stored directions, and each case
    is one test that integer rows lie in a reduced basis
    (:meth:`LinearSubspace._contains_rows`)."""
    s, t = p._space, q._space
    u = s if p.kind == "n" else s.direction
    v = t if q.kind == "n" else t.direction
    if u.ambient != v.ambient:
        raise DimensionError("poset elements of different ambient dimensions")
    if p.kind == "e":
        if q.kind == "e":
            return t._within(s)
        if q.kind == "h":
            return u._contains_rows([b.num for b in t.span_complement().basis])
        return v._contains_rows([b.num for b in orthogonal_complement(u).basis])
    if p.kind == "h":
        return q.kind == "h" and s._within(t)
    # n^U lies below n^V when U lies in V, and below h^M when U lies in Dir M
    return q.kind != "e" and v._contains_rows([b.num for b in u.basis])


def rank(p: PosetElement) -> int:
    """Rank in the graded order; equals the reflection length of preimages."""
    if isinstance(p, Elliptic):
        return p.fix.codim
    if isinstance(p, Hyperbolic):
        return p.move.dim + 2
    return p.subspace.dim + 1


class BoundFamily(Record):
    """A parameterized family of extremal bounds, when no single one exists.

    For meets of two hyperbolic elements with disjoint move-sets, the family
    is every e^B whose direction is ``direction`` (position free).  For
    joins of elliptic elements with no common point, it is every h^M with
    direction ``direction`` inside the affine subspace ``within``.
    """

    __slots__ = ("kind", "direction", "within")

    def __init__(
        self,
        kind: str,
        direction: LinearSubspace,
        within: Optional[AffineSubspaceV] = None,
    ):
        self.kind = kind
        self.direction = direction
        self.within = within

    def contains(self, p: PosetElement) -> bool:
        return (
            p.kind == self.kind
            and p._space.direction == self.direction
            and (self.within is None or p._space.subset_of(self.within))
        )


BoundResult = Union[Elliptic, Hyperbolic, BoundFamily]
KernelResult = Union[Elliptic, Hyperbolic, LinearSubspace]


def _members(
    elements: Iterable[PosetElement], ctx: PosetContext, augmented: bool
) -> list[PosetElement]:
    """The argument check shared by the four bound functions.

    The collection is not empty, the context is augmented exactly when the
    function needs it, and every member lies below the top; membership
    also rejects each n^V of a plain context.
    """
    members = list(elements)
    if not members:
        raise PosetError("bounds of an empty collection")
    if ctx.augmented != augmented:
        kind = "an augmented" if augmented else "a plain"
        raise PosetError(f"this bound needs {kind} context")
    ctx.require(*members)
    return members


def _place(demand: LinearSubspace, ctx: PosetContext) -> KernelResult:
    """The element a subspace W of Span(M) decides under the top h^M.

    W of dimension dim M + 1 is Span(M), so the top; otherwise one section
    (see the module docstring): h^{W meet H} when W leaves U, the bottom
    when W = 0 (only meets reach it), the top when W = U, and W itself.
    """
    top = ctx.top
    if demand.dim > top.move.dim:
        return top
    mu = top.move.mu
    direction, w = orthogonal_section(demand, mu)
    if w is not None:
        # w |mu|^2 / (w . mu) on the integer rows W of w and M of mu
        mu_sq = _dot(mu.num, mu.num)
        shift = _vector([mu_sq * x for x in w.num], mu.den * _dot(w.num, mu.num))
        return Hyperbolic(AffineSubspaceV(direction, shift))
    if demand.is_zero():
        return Elliptic(AffineSubspaceE.full(ctx.ambient))
    if demand == top.move.direction:
        return top
    return demand


def _meet(members: Sequence[PosetElement], ctx: PosetContext) -> KernelResult:
    """The greatest lower bound, or the common direction S of members with
    no common lower move-set.

    One loop sorts the members by kind, with no check: :func:`_members`
    has accepted each.  Each n^V contributes the integer rows of V^perp
    and each h^N those of Span(N)^perp, as stored.  With an elliptic
    present the bound is elliptic, e^C for the hull C of the fixed sets
    thickened by those rows, taken by the unchecked body of the public
    hull (``affine._hull_e``): one forward pass over the anchor
    differences, the Dir(B) bases and the complement rows, which gives
    the one shared bottom ``AffineSubspaceE.full`` when it reaches full
    rank.  With no elliptic the rows cut out the intersection of the
    demands, which :func:`_place` places.
    """
    fixes, rows = [], []
    for p in members:
        if isinstance(p, Elliptic):
            fixes.append(p.fix)
        elif isinstance(p, Hyperbolic):
            rows += [v.num for v in p.move.span_complement().basis]
        else:
            rows += [v.num for v in orthogonal_complement(p.subspace).basis]
    if fixes:
        return Elliptic(_hull_e(fixes, rows))
    n = ctx.ambient
    common = _span(rows, n) if rows else LinearSubspace.zero(n)
    return _place(orthogonal_complement(common), ctx)


def _join(members: Sequence[PosetElement], ctx: PosetContext) -> KernelResult:
    """The least upper bound, or the demand sum W that no move-set fits.

    One loop sorts the members by kind, with no check (:func:`_members`
    has accepted each), and takes the demand rows of every h^N and n^V;
    each gives at least one, so no rows means elliptics alone.  Those are
    one forward pass over their stacked system [normals | values]: with no
    row pivoted in the value column they have a common point and join at
    their intersection, which the upward pass gives; under an elliptic top
    they always have one, since every member contains the top's fixed set.
    Otherwise the rows left of that pivot are echelon rows of W.  Every
    other join adds the rows of each Dir(B)^perp to its demand rows, in one
    forward pass that stops at dim M + 1 independent rows.  W of that rank
    is Span(M) and gives the top with no subspace built; any smaller W is
    reduced once and placed (see the module docstring).
    """
    n = ctx.ambient
    fixes, rows = [], []
    for p in members:
        if isinstance(p, Elliptic):
            fixes.append(p.fix)
        elif isinstance(p, Hyperbolic):
            rows += [v.num for v in p.move.direction.basis]
            rows.append(p.move.mu.num)
        else:
            rows += [v.num for v in p.subspace.basis]
    if not rows:
        rows, pivots, _ = _intersect(fixes)
        solution = _solve(rows, pivots, n)
        if solution is not None:
            particular, kernel = solution
            return Elliptic(AffineSubspaceE(Point(particular), kernel))
        rows, pivots = [row[:n] for row in rows[:-1]], pivots[:-1]
    else:
        rows += [
            v.num for b in fixes for v in orthogonal_complement(b.direction).basis
        ]
        rows, pivots = _independent(rows, ctx.top.move.dim + 1)
    if len(pivots) > ctx.top.move.dim:
        return ctx.top
    return _place(_subspace(n, *_upward(rows, pivots)), ctx)


def meet(p: PosetElement, q: PosetElement, ctx: PosetContext) -> BoundResult:
    """Greatest lower bound in a plain context, or, for hyperbolics with
    disjoint move-sets, the position free family of maximal elliptic lower
    bounds, whose direction is the complement of the common direction."""
    bound = _meet(_members((p, q), ctx, augmented=False), ctx)
    if isinstance(bound, LinearSubspace):
        return BoundFamily(kind="e", direction=orthogonal_complement(bound))
    return bound


def join(p: PosetElement, q: PosetElement, ctx: PosetContext) -> BoundResult:
    """Least upper bound in a plain context, or the family of minimal upper
    bounds h^N with direction W inside the top."""
    bound = _join(_members((p, q), ctx, augmented=False), ctx)
    if isinstance(bound, LinearSubspace):
        return BoundFamily(kind="h", direction=bound, within=ctx.top.move)
    return bound


def dm_meet(elements: Iterable[PosetElement], ctx: PosetContext) -> PosetElement:
    """Meet in the augmented (completed) hyperbolic poset; a common
    direction S with no common move-set is the new element n^S."""
    bound = _meet(_members(elements, ctx, augmented=True), ctx)
    return New(bound) if isinstance(bound, LinearSubspace) else bound


def dm_join(elements: Iterable[PosetElement], ctx: PosetContext) -> PosetElement:
    """Join in the augmented (completed) hyperbolic poset; a demand sum W
    that no move-set fits is the new element n^W."""
    bound = _join(_members(elements, ctx, augmented=True), ctx)
    return New(bound) if isinstance(bound, LinearSubspace) else bound


def is_lattice(ctx: PosetContext) -> bool:
    """The one lattice rule: elliptic and augmented posets always are,
    plain hyperbolic ones iff dim M <= 1."""
    return ctx.augmented or isinstance(ctx.top, Elliptic) or ctx.top.move.dim <= 1


def find_bowtie(
    ctx: PosetContext,
) -> tuple[Hyperbolic, Hyperbolic, Elliptic, Elliptic]:
    """A verified bowtie in a poset that is not a lattice, a plain
    hyperbolic one with dim M >= 2; a ``PosetError`` in a lattice.

    Built from the first proper nontrivial direction subspace: two parallel
    translates of it inside the top move-set, and two parallel elliptic
    subspaces with the complementary direction.
    """
    if is_lattice(ctx):
        raise PosetError("no bowties: the poset is a lattice")
    move = ctx.top.move
    u1 = move.direction.basis[0]
    d2 = move.direction.basis[1]
    line = span([u1])
    m1 = AffineSubspaceV(line, move.mu)
    m2 = AffineSubspaceV(line, move.mu + d2)
    mirror_dir = orthogonal_complement(line)
    n = ctx.ambient
    b1 = AffineSubspaceE(Point.origin(n), mirror_dir)
    b2 = AffineSubspaceE(Point.origin(n) + u1, mirror_dir)
    a, b, c, d = Hyperbolic(m1), Hyperbolic(m2), Elliptic(b1), Elliptic(b2)
    if not is_bowtie(a, b, c, d, ctx):
        raise PosetError("constructed bowtie failed verification")
    return a, b, c, d


def _incomparable(p: PosetElement, q: PosetElement) -> bool:
    return not leq(p, q) and not leq(q, p)


def is_bowtie(
    a: PosetElement,
    b: PosetElement,
    c: PosetElement,
    d: PosetElement,
    ctx: PosetContext,
) -> bool:
    """Whether (a, b : c, d) witnesses a lattice failure.

    a and b must be exactly the minimal upper bounds of {c, d}, and c and d
    exactly maximal lower bounds of {a, b}; those extremal sets come from
    the closed-form meet and join, so no search over the infinite poset is
    needed.

    The last guard, that the join of c and d is a family, is an invariant
    check that no input reaches.  Once c and d lie in the meet family of a
    and b, they are distinct elliptics with the direction S^perp, S the
    common direction of the disjoint move-sets, and parallel elliptics
    with no common point join at the demand W = S inside Dir M, which
    :func:`_place` returns as the family of direction S (W = Dir M would
    make a = b).
    """
    elements = [a, b, c, d]
    ctx.require(*elements)
    if is_lattice(ctx) or len(set(elements)) != 4:
        return False
    if not (_incomparable(a, b) and _incomparable(c, d)):
        return False
    if not all(leq(low, high) for low in (c, d) for high in (a, b)):
        return False
    lower = meet(a, b, ctx)
    if not isinstance(lower, BoundFamily):
        return False
    if not (lower.contains(c) and lower.contains(d)):
        return False
    upper = join(c, d, ctx)
    if not isinstance(upper, BoundFamily):  # invariant check, see the docstring
        return False
    return upper.contains(a) and upper.contains(b)


def _sorted(elements: Sequence[PosetElement]) -> list[PosetElement]:
    """The elements by rank, kind, then the coordinates of the anchor and
    the basis.  The coordinates of every element are taken over one common
    denominator, the lcm of every anchor's and basis row's, so each key
    compares integers, in the order of the rationals they stand for."""
    vectors = []
    for p in elements:
        space = p._space
        vectors.append(
            space.basis if p.kind == "n" else (space.anchor, *space.direction.basis)
        )
    den = math.lcm(*(v.den for row in vectors for v in row))
    keys = [
        (rank(p), "ehn".index(p.kind), [x * (den // v.den) for v in row for x in v.num])
        for p, row in zip(elements, vectors)
    ]
    order = sorted(range(len(elements)), key=keys.__getitem__)
    return [elements[i] for i in order]


def _label(p: PosetElement) -> str:
    return f"{p.kind} dim={p._space.dim}"


def covering_pairs(elements: Sequence[PosetElement]) -> list[tuple[int, int]]:
    """Covering relations within the restriction to the listed elements.

    p < q forces rank(p) < rank(q), so only pairs of increasing rank are
    compared, and an element strictly between them has a rank between.
    """
    ranks = [rank(p) for p in elements]
    n = len(elements)
    above = [
        {j for j in range(n) if ranks[i] < ranks[j] and leq(elements[i], elements[j])}
        for i in range(n)
    ]
    return [
        (i, j)
        for i in range(n)
        for j in sorted(above[i])
        if not any(j in above[k] for k in above[i])
    ]


def hasse_graph(
    elements: Iterable[PosetElement], top: Optional[PosetElement] = None
) -> tuple[list[PosetElement], list[tuple[int, int]]]:
    """Deduplicated, deterministically sorted nodes and covering edges.

    With a top, every element must be a member of the top's poset, the
    augmented one under a hyperbolic top.
    """
    sorted_elements = _sorted(list(dict.fromkeys(elements)))
    if top is not None:
        ctx = PosetContext(top, augmented=isinstance(top, Hyperbolic))
        ctx.require(*sorted_elements)
    return sorted_elements, covering_pairs(sorted_elements)


def hasse_dot(
    elements: Iterable[PosetElement], top: Optional[PosetElement] = None
) -> str:
    """DOT source for the Hasse diagram of a finite restriction.

    Elements are deduplicated and sorted deterministically, so the output
    is byte-stable for golden-file comparisons.
    """
    return dot_source(*hasse_graph(elements, top=top))


def dot_source(nodes: Sequence[PosetElement], edges: Iterable[tuple[int, int]]) -> str:
    """DOT source for the nodes and covering edges of :func:`hasse_graph`."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, p in enumerate(nodes):
        lines.append(f'  n{i} [label="{_label(p)}"];')
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
