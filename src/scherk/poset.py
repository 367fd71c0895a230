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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .affine import (
    AffineSubspaceE,
    AffineSubspaceV,
    Point,
    extend_affine_e,
    extend_affine_v,
    hull_of_affine_e,
    hull_of_affine_v,
    intersect_affine,
    intersect_affine_v,
    intersect_many_affine_v,
)
from .isometry import Isometry, classify
from .linalg import (
    DimensionError,
    LinearSubspace,
    Vector,
    intersect,
    orthogonal_complement,
    span,
    subspace_sum,
)


class PosetError(ValueError):
    """Invalid poset input: bad element, bad context, or element above top."""


@dataclass(frozen=True)
class Elliptic:
    fix: AffineSubspaceE

    @property
    def ambient(self) -> int:
        return self.fix.ambient

    def __repr__(self) -> str:
        return f"e^{self.fix!r}"


@dataclass(frozen=True)
class Hyperbolic:
    move: AffineSubspaceV

    def __post_init__(self):
        if self.move.is_linear():
            raise PosetError("hyperbolic elements carry a nonlinear move-set")

    @property
    def ambient(self) -> int:
        return self.move.ambient

    def __repr__(self) -> str:
        return f"h^{self.move!r}"


@dataclass(frozen=True)
class New:
    subspace: LinearSubspace

    def __post_init__(self):
        if self.subspace.dim == 0:
            raise PosetError("new elements carry a nontrivial subspace")

    @property
    def ambient(self) -> int:
        return self.subspace.ambient

    def __repr__(self) -> str:
        return f"n^{self.subspace!r}"


PosetElement = Union[Elliptic, Hyperbolic, New]


@dataclass(frozen=True)
class PosetContext:
    """A model poset: everything at or below a chosen top element."""

    top: PosetElement
    augmented: bool = False

    def __post_init__(self):
        if isinstance(self.top, New):
            raise PosetError("a context must have an elliptic or hyperbolic top")
        if self.augmented and not isinstance(self.top, Hyperbolic):
            raise PosetError("only hyperbolic posets are augmented")

    @property
    def ambient(self) -> int:
        return self.top.ambient

    def contains(self, p: PosetElement) -> bool:
        if isinstance(p, New):
            if not self.augmented:
                return False
            top_dir = self.top.move.direction
            if not (p.subspace.subset_of(top_dir) and p.subspace.dim < top_dir.dim):
                return False
        return leq(p, self.top)

    def require(self, *elements: PosetElement) -> None:
        for p in elements:
            if not self.contains(p):
                raise PosetError(f"element {p!r} is not below the top of the context")


def inv_map(w: Isometry) -> PosetElement:
    """e^{Min(w)} for elliptic w, h^{Mov(w)} for hyperbolic w."""
    cls = classify(w)
    if cls.is_elliptic:
        return Elliptic(cls.min_set)
    return Hyperbolic(cls.move_set)


@lru_cache(maxsize=None)
def _linear_span(move: AffineSubspaceV) -> LinearSubspace:
    return move.linear_span()


@lru_cache(maxsize=None)
def _span_perp(move: AffineSubspaceV) -> LinearSubspace:
    """Vectors orthogonal to every vector of the affine subspace."""
    return orthogonal_complement(_linear_span(move))


def leq(p: PosetElement, q: PosetElement) -> bool:
    if p.ambient != q.ambient:
        raise DimensionError("poset elements of different ambient dimensions")
    if isinstance(p, Elliptic):
        if isinstance(q, Elliptic):
            return q.fix.subset_of(p.fix)
        if isinstance(q, Hyperbolic):
            return _span_perp(q.move).subset_of(p.fix.direction)
        return orthogonal_complement(p.fix.direction).subset_of(q.subspace)
    if isinstance(p, Hyperbolic):
        if isinstance(q, Hyperbolic):
            return p.move.subset_of(q.move)
        return False
    if isinstance(q, New):
        return p.subspace.subset_of(q.subspace)
    if isinstance(q, Hyperbolic):
        return p.subspace.subset_of(q.move.direction)
    return False


def rank(p: PosetElement, ctx: Optional[PosetContext] = None) -> int:
    """Rank in the graded order; equals the reflection length of preimages."""
    if ctx is not None:
        ctx.require(p)
    if isinstance(p, Elliptic):
        return p.fix.codim
    if isinstance(p, Hyperbolic):
        return p.move.dim + 2
    return p.subspace.dim + 1


@dataclass(frozen=True)
class BoundFamily:
    """A parameterized family of extremal bounds, when no single one exists.

    For meets of two hyperbolic elements with disjoint move-sets, the family
    is every e^B whose direction is ``direction`` (position free).  For
    joins of elliptic elements with no common point, it is every h^M with
    direction ``direction`` inside the affine subspace ``within``.
    """

    kind: str
    direction: LinearSubspace
    within: Optional[AffineSubspaceV] = None

    def contains(self, p: PosetElement) -> bool:
        if self.kind == "e":
            return isinstance(p, Elliptic) and p.fix.direction == self.direction
        return (
            isinstance(p, Hyperbolic)
            and p.move.direction == self.direction
            and (self.within is None or p.move.subset_of(self.within))
        )

    def representative(self) -> PosetElement:
        if self.kind == "e":
            n = self.direction.ambient
            return Elliptic(AffineSubspaceE(Point.origin(n), self.direction))
        if self.within is None:
            raise PosetError("h-family needs the subspace it lies within")
        return Hyperbolic(AffineSubspaceV(self.direction, self.within.mu))


MeetResult = Union[Elliptic, Hyperbolic, BoundFamily]
JoinResult = Union[Elliptic, Hyperbolic, BoundFamily, None]


def meet(p: PosetElement, q: PosetElement, ctx: PosetContext) -> MeetResult:
    """Greatest lower bound, or the family of maximal lower bounds.

    Closed forms: two elliptics meet at the hull of their subspaces; an
    elliptic and a hyperbolic meet at the elliptic thickened by the
    orthogonal complement of the hyperbolic's span; two hyperbolics meet at
    their intersection when it is nonempty, and otherwise have a position
    free family of maximal elliptic lower bounds.
    """
    if ctx.augmented:
        raise PosetError("meet works in plain contexts; use dm_meet when augmented")
    ctx.require(p, q)
    if isinstance(p, New) or isinstance(q, New):
        raise PosetError("new elements do not occur in plain contexts")
    if isinstance(p, Elliptic) and isinstance(q, Elliptic):
        return Elliptic(hull_of_affine_e([p.fix, q.fix]))
    if isinstance(p, Elliptic) or isinstance(q, Elliptic):
        ell, hyp = (p, q) if isinstance(p, Elliptic) else (q, p)
        return Elliptic(extend_affine_e(ell.fix, _span_perp(hyp.move)))
    common = intersect_affine_v(p.move, q.move)
    if common is not None:
        return Hyperbolic(common)
    shared = intersect(p.move.direction, q.move.direction)
    if shared.dim == 0:
        return Elliptic(AffineSubspaceE.full(p.ambient))
    return BoundFamily(kind="e", direction=orthogonal_complement(shared))


def _join_within_hyperbolic(
    hyps: Sequence[AffineSubspaceV],
    ells: Sequence[AffineSubspaceE],
    news: Sequence[LinearSubspace],
    ctx: PosetContext,
):
    """Minimal upper bounds above the given parts, inside a hyperbolic top.

    Each elliptic e^B demands that the complement of Dir(B) lie in the span
    of the bound's move-set.  When that complement leaves the top direction,
    the demand pins a piece of the top's affine subspace that the bound must
    contain; otherwise it only adds required directions.  With at least one
    pinned piece the minimal bound is unique; with none, the bound's
    position is free and a family remains (or the top itself, when the
    required directions already fill it).
    """
    top = ctx.top
    if not isinstance(top, Hyperbolic):
        raise PosetError("joins within the top need a hyperbolic top")
    top_dir = top.move.direction
    pieces = list(hyps)
    directions = list(news)
    for b in ells:
        s = orthogonal_complement(b.direction)
        if s.subset_of(top_dir):
            directions.append(s)
        else:
            piece = intersect_affine_v(
                AffineSubspaceV(s, Vector.zero(s.ambient)), top.move
            )
            if piece is None:
                raise PosetError("complement meets the top move-set")
            pieces.append(piece)
    if pieces:
        bound = hull_of_affine_v(pieces)
        for extra in directions:
            bound = extend_affine_v(bound, extra)
        return Hyperbolic(bound)
    total = LinearSubspace.zero(ctx.ambient)
    for extra in directions:
        total = subspace_sum(total, extra)
    if total.dim == 0:
        return Elliptic(AffineSubspaceE.full(ctx.ambient))
    if total == top_dir:
        return Hyperbolic(top.move)
    return total


def join(p: PosetElement, q: PosetElement, ctx: PosetContext) -> JoinResult:
    """Least upper bound, the family of minimal upper bounds, or None.

    Derived by duality from the meet formulas and checked against the
    definitional oracle over finite universes.
    """
    if ctx.augmented:
        raise PosetError("join works in plain contexts; use dm_join when augmented")
    ctx.require(p, q)
    if isinstance(p, New) or isinstance(q, New):
        raise PosetError("new elements do not occur in plain contexts")
    if isinstance(p, Elliptic) and isinstance(q, Elliptic):
        common = intersect_affine(p.fix, q.fix)
        if common is not None:
            return Elliptic(common)
        if not isinstance(ctx.top, Hyperbolic):
            return None
        outcome = _join_within_hyperbolic([], [p.fix, q.fix], [], ctx)
        if isinstance(outcome, LinearSubspace):
            return BoundFamily(kind="h", direction=outcome, within=ctx.top.move)
        return outcome
    if isinstance(p, Hyperbolic) and isinstance(q, Hyperbolic):
        return Hyperbolic(hull_of_affine_v([p.move, q.move]))
    ell, hyp = (p, q) if isinstance(p, Elliptic) else (q, p)
    outcome = _join_within_hyperbolic([hyp.move], [ell.fix], [], ctx)
    if isinstance(outcome, LinearSubspace):
        raise PosetError("a join with a hyperbolic element has a unique bound")
    return outcome


def dm_meet(elements: Iterable[PosetElement], ctx: PosetContext) -> PosetElement:
    """Meet in the augmented (completed) hyperbolic poset.

    With an elliptic present the meet is elliptic: the hull of the elliptic
    subspaces thickened by every direction the hyperbolic and new members
    force.  With only hyperbolics sharing a common vector the meet is their
    intersection.  Otherwise the meet drops to the new element on the
    common direction subspace, or to the bottom when that is trivial.
    """
    members = list(elements)
    if not members:
        raise PosetError("dm_meet of an empty collection")
    if not ctx.augmented:
        raise PosetError("dm_meet needs an augmented context")
    ctx.require(*members)
    ells = [p.fix for p in members if isinstance(p, Elliptic)]
    hyps = [p.move for p in members if isinstance(p, Hyperbolic)]
    news = [p.subspace for p in members if isinstance(p, New)]
    if ells:
        bound = hull_of_affine_e(ells)
        for u in news:
            bound = extend_affine_e(bound, orthogonal_complement(u))
        for m in hyps:
            bound = extend_affine_e(bound, _span_perp(m))
        return Elliptic(bound)
    if hyps and not news:
        common = intersect_many_affine_v(hyps)
        if common is not None:
            return Hyperbolic(common)
    shared = LinearSubspace.full(ctx.ambient)
    for u in news:
        shared = intersect(shared, u)
    for m in hyps:
        shared = intersect(shared, m.direction)
    if shared.dim == 0:
        return Elliptic(AffineSubspaceE.full(ctx.ambient))
    return New(shared)


def dm_join(elements: Iterable[PosetElement], ctx: PosetContext) -> PosetElement:
    """Join in the augmented (completed) hyperbolic poset, dual to dm_meet."""
    members = list(elements)
    if not members:
        raise PosetError("dm_join of an empty collection")
    if not ctx.augmented:
        raise PosetError("dm_join needs an augmented context")
    ctx.require(*members)
    ells = [p.fix for p in members if isinstance(p, Elliptic)]
    hyps = [p.move for p in members if isinstance(p, Hyperbolic)]
    news = [p.subspace for p in members if isinstance(p, New)]
    if not hyps and not news:
        common: Optional[AffineSubspaceE] = ells[0]
        for b in ells[1:]:
            common = intersect_affine(common, b)
            if common is None:
                break
        if common is not None:
            return Elliptic(common)
    outcome = _join_within_hyperbolic(hyps, ells, news, ctx)
    if isinstance(outcome, LinearSubspace):
        return New(outcome)
    return outcome


def is_lattice(ctx: PosetContext) -> bool:
    """Elliptic posets always are; hyperbolic ones iff dim M <= 1."""
    if ctx.augmented:
        return True
    if isinstance(ctx.top, Elliptic):
        return True
    return ctx.top.move.dim <= 1


def find_bowtie(
    ctx: PosetContext,
) -> tuple[Hyperbolic, Hyperbolic, Elliptic, Elliptic]:
    """A verified bowtie in a hyperbolic poset with dim M >= 2.

    Built from the first proper nontrivial direction subspace: two parallel
    translates of it inside the top move-set, and two parallel elliptic
    subspaces with the complementary direction.
    """
    if not isinstance(ctx.top, Hyperbolic):
        raise PosetError("bowties only occur under hyperbolic tops")
    move = ctx.top.move
    if move.dim < 2:
        raise PosetError("no bowties: top move-set has dimension below 2")
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
    """
    elements = [a, b, c, d]
    ctx.require(*elements)
    if len({id_key(x) for x in elements}) != 4:
        return False
    if not (_incomparable(a, b) and _incomparable(c, d)):
        return False
    if not all(leq(low, high) for low in (c, d) for high in (a, b)):
        return False
    if ctx.augmented:
        return False
    lower = meet(a, b, ctx)
    if not isinstance(lower, BoundFamily):
        return False
    if not (lower.contains(c) and lower.contains(d)):
        return False
    upper = join(c, d, ctx)
    if not isinstance(upper, BoundFamily):
        return False
    return upper.contains(a) and upper.contains(b)


def id_key(p: PosetElement):
    """Hashable identity of an element, for dedup and stable sorting."""
    if isinstance(p, Elliptic):
        return ("e", p.fix.point.to_vector(), p.fix.direction.basis)
    if isinstance(p, Hyperbolic):
        return ("h", p.move.mu, p.move.direction.basis)
    return ("n", p.subspace.basis)


@dataclass(frozen=True)
class EllipticEmbedding:
    """Order isomorphism between an elliptic poset and a subspace lattice.

    e^C maps to the orthogonal complement of Dir(C), a subspace of the
    complement U of the top's direction; reverse inclusion of subspaces of
    E becomes plain inclusion in the lattice of subspaces of U.
    """

    top: Elliptic
    subspace_universe: LinearSubspace

    def to_subspace(self, p: Elliptic) -> LinearSubspace:
        if not leq(p, self.top):
            raise PosetError("element is not below the elliptic top")
        return orthogonal_complement(p.fix.direction)

    def from_subspace(self, s: LinearSubspace) -> Elliptic:
        if not s.subset_of(self.subspace_universe):
            raise PosetError("subspace is not inside the top's complement")
        return Elliptic(
            AffineSubspaceE(self.top.fix.point, orthogonal_complement(s))
        )


def elliptic_iso(ctx: PosetContext) -> EllipticEmbedding:
    if not isinstance(ctx.top, Elliptic):
        raise PosetError("elliptic_iso needs an elliptic top")
    return EllipticEmbedding(
        top=ctx.top,
        subspace_universe=orthogonal_complement(ctx.top.fix.direction),
    )


def _sort_key(p: PosetElement):
    key = id_key(p)
    kind = {"e": 0, "h": 1, "n": 2}[key[0]]
    flat: list = []
    for part in key[1:]:
        for item in part:
            if isinstance(item, Vector):
                flat.extend(item.coords)
            else:
                flat.append(item)
    return (rank(p), kind, tuple(flat))


def _label(p: PosetElement) -> str:
    if isinstance(p, Elliptic):
        return f"e dim={p.fix.dim}"
    if isinstance(p, Hyperbolic):
        return f"h dim={p.move.dim}"
    return f"n dim={p.subspace.dim}"


def covering_pairs(elements: Sequence[PosetElement]) -> list[tuple[int, int]]:
    """Covering relations within the restriction to the listed elements."""
    pairs = []
    n = len(elements)
    strict = [
        [i != j and leq(elements[i], elements[j]) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(n):
            if not strict[i][j]:
                continue
            if any(strict[i][k] and strict[k][j] for k in range(n)):
                continue
            pairs.append((i, j))
    return pairs


def hasse_graph(
    elements: Iterable[PosetElement], top: Optional[PosetElement] = None
) -> tuple[list[PosetElement], list[tuple[int, int]]]:
    """Deduplicated, deterministically sorted nodes and covering edges."""
    unique: dict = {}
    for p in elements:
        unique.setdefault(id_key(p), p)
    sorted_elements = sorted(unique.values(), key=_sort_key)
    if top is not None:
        for p in sorted_elements:
            if not leq(p, top):
                raise PosetError(f"element {p!r} exceeds the declared top")
    return sorted_elements, covering_pairs(sorted_elements)


def hasse_dot(
    elements: Iterable[PosetElement], top: Optional[PosetElement] = None
) -> str:
    """DOT source for the Hasse diagram of a finite restriction.

    Elements are deduplicated and sorted deterministically, so the output
    is byte-stable for golden-file comparisons.
    """
    nodes, edges = hasse_graph(elements, top=top)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i, p in enumerate(nodes):
        lines.append(f'  n{i} [label="{_label(p)}"];')
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
