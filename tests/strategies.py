"""Hypothesis strategies for the isometry property tests.

Exact arithmetic has no fixed cost per example, so no deadline applies.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st

from scherk.isometry import ELLIPTIC, HYPERBOLIC, classify
from scherk.oracle import random_isometry

no_deadline = settings(deadline=None)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def isometries(draw, dim=None):
    """A seeded random isometry of dimension 1-6 (or `dim`) and a drawn type.

    Products of random reflections are drawn until one has the type;
    adding a random translation makes hyperbolic ones common.
    """
    if dim is None:
        dim = draw(st.integers(1, 6))
    tag = draw(st.sampled_from((ELLIPTIC, HYPERBOLIC)))
    rng = random.Random(draw(seeds))
    for _ in range(1000):
        w = random_isometry(dim, rng, translate=tag == HYPERBOLIC)
        if classify(w).tag == tag:
            return w
    raise RuntimeError(f"no {tag} isometry in 1000 draws")
