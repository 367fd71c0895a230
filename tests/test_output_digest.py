"""The library's answers, pinned by one SHA-256 of their JSON.

The digest covers three kinds of output, each written with `jsonio`:

(a) `factor`, one `random_maximal_chain` walk (`chain_to_factorization`)
    and its read-back (`factorization_to_chain`) on `oracle.corpus(dim, 6,
    7)` for dims 1-12;
(b) the plain `meet`/`join` and the augmented `dm_meet`/`dm_join` on the
    plane universes (n, k) = (3, 2), (4, 1), (4, 2) and (5, 2), the
    coordinate universes under the top h^M with M = <e_0, ..., e_{k-1}> +
    e_{n-1}: every pair, and seeded triples for the augmented bounds;
(c) the factors `hurwitz` and `hurwitz_inverse` give at every position
    of the factorizations of (a); the target does not change.

Every value is written in its canonical form, so a change of
representation leaves the digest as it is and a changed answer moves it.
A change that moves it says which output changed and why, as for a golden
file; so does a change to an `oracle` generator, which moves it too.

A second digest, `INTERVAL_DIGEST`, covers the interval order and the
bounds away from the coordinate axes:

(d) `inv_map` of `sample_interval` members, and the answers of
    `interval_contains` and `interval_leq` on a pool of members, w itself
    and isometries outside [1, w], for seeded w in dims 2-8;
(e) `dm_meet`/`dm_join` on seeded subsets of the augmented plane
    universes of (b), moved by a seeded isometry with `oracle.image`.
"""

import hashlib
import itertools
import json
import random

from scherk.factor import (
    chain_to_factorization,
    factor,
    factorization_to_chain,
    hurwitz,
    hurwitz_inverse,
)
from scherk.isometry import interval_contains, interval_leq
from scherk.jsonio import (
    bound_to_json,
    element_to_json,
    factorization_to_json,
    reflection_to_json,
)
from scherk.oracle import (
    coordinate_universe,
    corpus,
    image,
    random_isometry,
    random_maximal_chain,
    sample_interval,
)
from scherk.poset import PosetContext, dm_join, dm_meet, inv_map, join, meet
from test_poset import plane_top

DIGEST = "033b03319ec6f020d56b6cf17130cd64dbdb4c69b52631bf438f5eabee8d7b02"

INTERVAL_DIGEST = "02c2c8100907ce685b1268f958269f8200eca08506f8e9d42c4f8e39f8641f91"

PLANE_UNIVERSES = [(3, 2), (4, 1), (4, 2), (5, 2)]
TRIPLES = 100
OBLIQUE_SUBSETS = 60


def factorization_outputs():
    """Part (a), with part (c) at every position of each factorization."""
    for dim in range(1, 13):
        for i, w in enumerate(corpus(dim, 6, 7)):
            walked = chain_to_factorization(random_maximal_chain(w, 100 * dim + i), w)
            for f in (factor(w), walked):
                yield factorization_to_json(f)
                for k in range(len(f) - 1):
                    for move in (hurwitz, hurwitz_inverse):
                        yield [reflection_to_json(r) for r in move(f, k).factors]
            yield [element_to_json(p) for p in factorization_to_chain(walked)]


def bound_outputs():
    """Part (b)."""
    for n, k in PLANE_UNIVERSES:
        plain = coordinate_universe(n, plane_top(n, k))
        for p, q in itertools.combinations(plain.elements, 2):
            yield bound_to_json(meet(p, q, plain.ctx))
            yield bound_to_json(join(p, q, plain.ctx))
        augmented = coordinate_universe(n, plane_top(n, k), augmented=True)
        rng = random.Random(10 * n + k)
        subsets = [
            *itertools.combinations(augmented.elements, 2),
            *(rng.sample(augmented.elements, 3) for _ in range(TRIPLES)),
        ]
        for subset in subsets:
            yield element_to_json(dm_meet(subset, augmented.ctx))
            yield element_to_json(dm_join(subset, augmented.ctx))


def interval_outputs():
    """Part (d)."""
    for dim in range(2, 9):
        rng = random.Random(dim)
        for w in corpus(dim, 3, rng):
            members = sample_interval(w, rng, 4)
            pool = [*members, w, *corpus(dim, 2, rng)]
            yield [element_to_json(inv_map(u)) for u in members]
            yield [interval_contains(w, u) for u in pool]
            yield [interval_leq(w, u, u2) for u in pool for u2 in pool]


def oblique_bound_outputs():
    """Part (e)."""
    for n, k in PLANE_UNIVERSES:
        rng = random.Random(10 * n + k)
        g = random_isometry(n, rng, reflections=n)
        universe = coordinate_universe(n, plane_top(n, k), augmented=True)
        ctx = PosetContext(image(g, universe.ctx.top), augmented=True)
        elements = [image(g, p) for p in universe.elements]
        for _ in range(OBLIQUE_SUBSETS):
            subset = rng.sample(elements, rng.randint(1, 3))
            yield element_to_json(dm_meet(subset, ctx))
            yield element_to_json(dm_join(subset, ctx))


def digest(*parts):
    h = hashlib.sha256()
    for output in itertools.chain(*parts):
        h.update(json.dumps(output, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert digest(factorization_outputs(), bound_outputs()) == DIGEST


def test_interval_and_oblique_outputs_match_their_digest():
    assert digest(interval_outputs(), oblique_bound_outputs()) == INTERVAL_DIGEST
