"""Seeded isometries drawn like scherk.oracle.corpus, but stratified."""

from __future__ import annotations


class Corpus:
    """``corpus(dim)`` returns the next isometry of that dimension.

    oracle.corpus draws, for each isometry, the number of reflections
    (0 to dim + 2) and whether a translation follows, at random.  Here each
    dimension goes through all those pairs in shuffled cycles instead, so
    any stretch of inputs holds them in nearly equal shares and runs on
    different seeds differ less by their mix.  The reflections and the
    translation themselves are random, from oracle.random_isometry.
    """

    def __init__(self, L, rng):
        self.L = L
        self.rng = rng
        self.queues = {}

    def __call__(self, dim):
        queue = self.queues.setdefault(dim, [])
        if not queue:
            queue.extend((k, t) for k in range(dim + 3) for t in (False, True))
            self.rng.shuffle(queue)
        reflections, translate = queue.pop()
        return self.L.oracle.random_isometry(
            dim, self.rng, reflections=reflections, translate=translate
        )
