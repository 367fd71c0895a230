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
from scherk.jsonio import (
    bound_to_json,
    element_to_json,
    factorization_to_json,
    reflection_to_json,
)
from scherk.oracle import coordinate_universe, corpus, random_maximal_chain
from scherk.poset import dm_join, dm_meet, join, meet
from test_poset import plane_top

DIGEST = "033b03319ec6f020d56b6cf17130cd64dbdb4c69b52631bf438f5eabee8d7b02"

PLANE_UNIVERSES = [(3, 2), (4, 1), (4, 2), (5, 2)]
TRIPLES = 100


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


def digest():
    h = hashlib.sha256()
    for output in itertools.chain(factorization_outputs(), bound_outputs()):
        h.update(json.dumps(output, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert digest() == DIGEST
