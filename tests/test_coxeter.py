"""Finite reflection groups as an exact oracle for three layers.

Take the Coxeter element c = s_1 s_2 ... s_r of a finite Weyl group W of
type A_{n-1}, B_n or D_n, the product of its simple reflections.  W acts
on R^n by signed permutation matrices, and its reflections have the
integer roots e_i - e_j, e_i + e_j and (in type B) e_i.  Classical
theorems then fix what the library must answer:

* c has r! h^r / |W| minimal factorizations into reflections of W, for
  r the rank and h the Coxeter number (Chapoton 2004, "Enumerative
  properties of generalized associahedra"): n^{n-2} = 16 and 125 in types
  A_3 and A_4 (Denes 1959), n^n = 27 and 256 in types B_3 and B_4, and
  162 in type D_4.
* The Hurwitz action of the braid group is transitive on them (Bessis
  2003, "The dual braid monoid").
* [1, c] in W is the noncrossing partition lattice of W, with the
  W-Catalan number of elements, 14, 42, 20, 70 and 50 (Kreweras 1972;
  Reiner 1997; Athanasiadis-Reiner 2004), and the W-Narayana numbers as
  its rank sizes.

These are statements about the euclidean library because, by Carter's
lemma, the reflection length of an element of W equals rank(A - I), the
Scherk length of an elliptic isometry, and c is elliptic.  So [1, c] in W
is exactly {u in W : interval_contains(c, u)}, its rank function is
``rank . inv_map``, and its maximal chains are the factorizations
(Brady-Watt 2002, "A partial order on the orthogonal group", is the
elliptic forerunner of the source paper).

The enumerator below works on signed permutations alone, tuples of
signed indices, and shares no code with ``linalg``, ``isometry`` or
``factor``: it finds the reflection length in W by a breadth-first search
of the Cayley graph on the reflections, and the factorizations by
peeling a reflection that lowers it.  The library sees its answers only
as matrices and reflections built by the public constructors.  So every
path that derives a reflection (the peel, the motion and move-set steps
of the chain walk, conjugation in the Hurwitz moves and the JSON reader)
is checked against arithmetic that shares none of them.
"""

import itertools
import math

import pytest

from scherk.factor import (
    Factorization,
    chain_to_factorization,
    factor,
    factorization_to_chain,
    hurwitz,
    hurwitz_inverse,
    verify_minimal,
)
from scherk.isometry import Isometry, Reflection, interval_contains
from scherk.jsonio import factorization_from_json, factorization_to_json
from scherk.linalg import Matrix, Vector
from scherk.poset import hasse_graph, inv_map, rank

# type: (n, factorizations, |[1, c]|, |W|, Narayana row)
GROUPS = {
    "A3": (4, 16, 14, 24, [1, 6, 6, 1]),
    "A4": (5, 125, 42, 120, [1, 10, 20, 10, 1]),
    "B3": (3, 27, 20, 48, [1, 9, 9, 1]),
    "B4": (4, 256, 70, 384, [1, 16, 36, 16, 1]),
    "D4": (4, 162, 50, 192, [1, 12, 24, 12, 1]),
}


def unit(n, i):
    return tuple(int(k == i) for k in range(n))


def roots(kind, n):
    """The positive roots of W and its simple roots, as integer tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    minus = [tuple(a - b for a, b in zip(unit(n, i), unit(n, j))) for i, j in pairs]
    plus = [tuple(a + b for a, b in zip(unit(n, i), unit(n, j))) for i, j in pairs]
    simple = [minus[pairs.index((i, i + 1))] for i in range(n - 1)]
    if kind == "A":
        return minus, simple
    if kind == "B":
        return minus + plus + [unit(n, i) for i in range(n)], simple + [unit(n, n - 1)]
    return minus + plus, simple + [plus[pairs.index((n - 2, n - 1))]]


def signed(v):
    """A vector +-e_j as the signed index +-(j + 1)."""
    [(j, s)] = [(j, s) for j, s in enumerate(v) if s]
    return s * (j + 1)


def reflect(alpha):
    """The signed permutation of the reflection with root alpha: the image
    of e_k is e_k - (2 alpha_k / |alpha|^2) alpha, an integer multiple
    for |alpha|^2 in {1, 2}."""
    norm = sum(a * a for a in alpha)
    n = len(alpha)
    return tuple(
        signed([u - (2 * alpha[k] // norm) * a for u, a in zip(unit(n, k), alpha)])
        for k in range(n)
    )


def after(a, b):
    """The signed permutation a after b: e_i goes to sign(b_i) a(e_|b_i|)."""
    return tuple(a[abs(x) - 1] * (1 if x > 0 else -1) for x in b)


class Group:
    """W, its reflections, the reflection length and the factorizations of c."""

    def __init__(self, kind, n):
        self.n = n
        positive, simple = roots(kind, n)
        self.reflections = {reflect(alpha): alpha for alpha in positive}
        self.identity = tuple(range(1, n + 1))
        self.c = self.identity
        for alpha in reversed(simple):
            self.c = after(reflect(alpha), self.c)
        self.length = {self.identity: 0}
        frontier = list(self.length)
        while frontier:
            grown = []
            for w in frontier:
                for t in self.reflections:
                    u = after(t, w)
                    if u not in self.length:
                        self.length[u] = self.length[w] + 1
                        grown.append(u)
            frontier = grown

    def factorizations(self, w=None):
        """The minimal factorizations (t_1, ..., t_k) of w, t_1 acting last."""
        w = self.c if w is None else w
        if self.length[w] == 0:
            return [()]
        return [
            (t,) + rest
            for t in self.reflections
            if self.length[after(t, w)] == self.length[w] - 1
            for rest in self.factorizations(after(t, w))
        ]

    def isometry(self, w):
        rows = [[0] * self.n for _ in range(self.n)]
        for i, x in enumerate(w):
            rows[abs(x) - 1][i] = 1 if x > 0 else -1
        return Isometry(Matrix(rows), Vector.zero(self.n))

    def factorization(self, ts):
        factors = tuple(Reflection(Vector(self.reflections[t]), 0) for t in ts)
        return Factorization(target=self.isometry(self.c), factors=factors)


@pytest.fixture(scope="module", params=sorted(GROUPS))
def group(request):
    g = Group(request.param[0], GROUPS[request.param][0])
    g.name = request.param
    g.words = g.factorizations()
    g.target = g.isometry(g.c)
    g.minimal = {g.factorization(ts) for ts in g.words}
    return g


def test_group_orders_and_factorization_counts(group):
    _, count, _, order, narayana = GROUPS[group.name]
    r = group.length[group.c]
    assert len(group.length) == order
    assert r == len(narayana) - 1
    h = 2 * len(group.reflections) // r
    assert len(group.words) == len(group.minimal) == count
    assert count * order == math.factorial(r) * h**r


def test_every_factorization_is_minimal_and_round_trips(group):
    for f in group.minimal:
        assert verify_minimal(f)
        chain = factorization_to_chain(f)
        assert chain_to_factorization(chain, group.target) == f
        assert factorization_from_json(factorization_to_json(f)) == f
    # The peel reflects the motion of a unit point, a root of W in types A
    # and B; in D_4 its last two steps move e_i to -e_i and take the root
    # e_i, whose reflection lies outside W.
    peeled = factor(group.target)
    assert verify_minimal(peeled)
    assert (peeled in group.minimal) == (group.name[0] != "D")


def test_the_hurwitz_orbit_is_the_whole_set(group):
    start = next(iter(group.minimal))
    orbit, frontier = {start}, [start]
    while frontier:
        f = frontier.pop()
        for i in range(len(f) - 1):
            for g in (hurwitz(f, i), hurwitz_inverse(f, i)):
                if g not in orbit:
                    orbit.add(g)
                    frontier.append(g)
    assert orbit == group.minimal


def test_interval_is_the_prefix_products_with_narayana_ranks(group):
    _, count, catalan, _, narayana = GROUPS[group.name]
    prefixes = {group.identity}
    for ts in group.words:
        u = group.identity
        for t in ts:
            u = after(u, t)
            prefixes.add(u)
    inside = {
        u for u in group.length if interval_contains(group.target, group.isometry(u))
    }
    assert inside == prefixes
    assert len(inside) == catalan
    elements = [inv_map(group.isometry(u)) for u in sorted(inside)]
    ranks = [rank(p) for p in elements]
    assert [ranks.count(k) for k in range(len(narayana))] == narayana
    nodes, edges = hasse_graph(elements, top=inv_map(group.target))
    assert len(nodes) == catalan
    chains = [1 if rank(p) == 0 else 0 for p in nodes]
    for i, j in sorted(edges, key=lambda edge: rank(nodes[edge[0]])):
        chains[j] += chains[i]
    [top] = [j for j, p in enumerate(nodes) if rank(p) == len(narayana) - 1]
    assert chains[top] == count
