"""Seeded documents for the ten CLI commands, and the stdout each must give.

``expected_stdout`` computes a command's answer by calling the library
directly, without ``scherk.cli``, so the CLI's output can be checked
against it byte for byte.
"""

from __future__ import annotations

import json

from corpus import Corpus

COMMANDS = (
    "analyze",
    "factorize",
    "chain",
    "order",
    "meet",
    "join",
    "bowtie",
    "lattice",
    "complete",
    "hasse",
)


def plane_top(L, dim=3):
    """h^M for the plane M spanned by the first two axes, shifted by e_{dim-1}."""
    V = L.linalg.Vector
    direction = L.linalg.span([V.basis(dim, i) for i in range(2)], ambient=dim)
    return L.poset.Hyperbolic(L.affine.AffineSubspaceV(direction, V.basis(dim, dim - 1)))


class DocMaker:
    """Makes one seeded document per call, for any of the ten commands."""

    def __init__(self, L, rng):
        self.L = L
        self.corpus = Corpus(L, rng)
        self.top = plane_top(L)
        self.plain = L.oracle.coordinate_universe(3, self.top).elements
        self.augmented = L.oracle.coordinate_universe(3, self.top, augmented=True).elements

    def _isometry(self, rng):
        return self.corpus(rng.choice((2, 3)))

    def _subspace(self, dim, k, rng):
        """A random k-dimensional subspace of the dim-dimensional space."""
        while True:
            u = self.L.linalg.span(
                [self.L.oracle.random_vector(dim, rng) for _ in range(k)], ambient=dim
            )
            if u.dim == k:
                return u

    def _hyperbolic_top(self, dim, k, rng):
        while True:
            move = self.L.affine.AffineSubspaceV(
                self._subspace(dim, k, rng), self.L.oracle.random_vector(dim, rng)
            )
            if not move.is_linear():
                return self.L.poset.Hyperbolic(move)

    def _any_top(self, rng):
        dim = rng.choice((2, 3))
        if rng.randrange(2):
            return self._hyperbolic_top(dim, rng.randrange(dim), rng)
        fix = self.L.affine.AffineSubspaceE(
            self.L.oracle.random_point(dim, rng), self._subspace(dim, rng.randrange(dim + 1), rng)
        )
        return self.L.poset.Elliptic(fix)

    def make(self, cmd, rng):
        J = self.L.jsonio
        el = J.element_to_json
        if cmd in ("analyze", "factorize"):
            return J.isometry_to_json(self._isometry(rng))
        if cmd == "chain":
            w = self._isometry(rng)
            return J.factorization_to_json(self.L.oracle.random_minimal_factorization(w, rng))
        if cmd == "order":
            if rng.randrange(2):
                p, q = rng.sample(self.plain, 2)
                return {"p": el(p), "q": el(q)}
            w = self._isometry(rng)
            u, v = self.L.oracle.sample_interval(w, rng, 2)
            return {key: J.isometry_to_json(x) for key, x in (("w", w), ("u", u), ("v", v))}
        if cmd in ("meet", "join"):
            p, q = rng.sample(self.plain, 2)
            return {"top": el(self.top), "p": el(p), "q": el(q)}
        if cmd == "bowtie":
            return {"top": el(self._hyperbolic_top(3, 2, rng))}
        if cmd == "lattice":
            return {"top": el(self._any_top(rng))}
        if cmd == "complete":
            subset = rng.sample(self.augmented, rng.randint(1, 3))
            return {"top": el(self.top), "elements": [el(p) for p in subset]}
        if cmd == "hasse":
            subset = rng.sample(self.plain, rng.randint(6, 10))
            return {"top": el(self.top), "elements": [el(p) for p in subset]}
        raise ValueError(f"unknown command {cmd!r}")


def expected_stdout(L, cmd, doc) -> str:
    """What ``scherk <cmd> <doc>`` prints, computed from the library directly."""
    J, I, P = L.jsonio, L.isometry, L.poset
    if cmd == "hasse":
        return P.hasse_dot(
            [J.element_from_json(e) for e in doc["elements"]],
            top=J.element_from_json(doc["top"]),
        )
    if cmd == "analyze":
        w = J.isometry_from_json(doc)
        cls = I.classify(w)
        mu, u = I.standard_splitting(w)
        payload = {
            "tag": cls.tag,
            "length": cls.length,
            "dim": w.dim,
            "move_set": J.affine_v_to_json(cls.move_set),
            "min_set": J.affine_e_to_json(cls.min_set),
            "splitting": {"mu": J.vector_to_json(mu), "elliptic": J.isometry_to_json(u)},
        }
    elif cmd == "factorize":
        payload = J.factorization_to_json(L.factor.factor(J.isometry_from_json(doc)))
    elif cmd == "chain":
        chain = L.factor.factorization_to_chain(J.factorization_from_json(doc))
        payload = {"chain": [J.element_to_json(p) for p in chain]}
    elif cmd == "order" and "p" in doc:
        payload = {"leq": P.leq(J.element_from_json(doc["p"]), J.element_from_json(doc["q"]))}
    elif cmd == "order":
        w, u, v = (J.isometry_from_json(doc[key]) for key in ("w", "u", "v"))
        payload = {"leq": I.interval_leq(w, u, v)}
    else:
        augmented = cmd == "complete"
        ctx = P.PosetContext(top=J.element_from_json(doc["top"]), augmented=augmented)
        if cmd in ("meet", "join"):
            p, q = J.element_from_json(doc["p"]), J.element_from_json(doc["q"])
            bound = P.meet(p, q, ctx) if cmd == "meet" else P.join(p, q, ctx)
            payload = {cmd: J.bound_to_json(bound)}
        elif cmd == "bowtie":
            payload = dict(zip("abcd", map(J.element_to_json, P.find_bowtie(ctx))))
        elif cmd == "lattice":
            payload = {"lattice": P.is_lattice(ctx)}
        elif cmd == "complete":
            elements = [J.element_from_json(e) for e in doc["elements"]]
            payload = {
                "meet": J.element_to_json(P.dm_meet(elements, ctx)),
                "join": J.element_to_json(P.dm_join(elements, ctx)),
            }
        else:
            raise ValueError(f"unknown command {cmd!r}")
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
