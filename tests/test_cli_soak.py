"""Memory stays bounded in a long-lived process: fresh seeded documents for
all ten commands, run through `cli.main` in one process, leave no more
retained memory after the second checkpoint than after the first.

Retained memory is what `tracemalloc` still traces after `gc.collect()`,
counted from the start of tracing.  The documents are made before tracing
starts, and a first stretch of them runs untraced, so the command parsers
and the memo of each full space are built before either checkpoint.  A
memo or a cache keyed on input grows with every fresh document and fails
the test.
"""

import contextlib
import gc
import io
import json
import random
import sys
import tracemalloc

from scherk import cli
from scherk.affine import AffineSubspaceE, AffineSubspaceV
from scherk.jsonio import element_to_json, factorization_to_json, isometry_to_json
from scherk.linalg import Vector, span
from scherk.oracle import (
    coordinate_universe,
    random_isometry,
    random_minimal_factorization,
    random_point,
    random_vector,
    sample_interval,
)
from scherk.poset import Elliptic, Hyperbolic

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
PER_COMMAND = 30
# Bytes the retained memory may grow by from the first checkpoint to the
# second, across the 100 documents between them.
SLACK = 16 * 1024


def plane_top():
    direction = span([Vector.basis(3, 0), Vector.basis(3, 1)])
    return Hyperbolic(AffineSubspaceV(direction, Vector.basis(3, 2)))


def subspace(dim, k, rng):
    """A random k-dimensional subspace of the dim-dimensional space."""
    while True:
        u = span([random_vector(dim, rng) for _ in range(k)], ambient=dim)
        if u.dim == k:
            return u


def hyperbolic_top(dim, k, rng):
    while True:
        move = AffineSubspaceV(subspace(dim, k, rng), random_vector(dim, rng))
        if not move.is_linear():
            return Hyperbolic(move)


def any_top(rng):
    dim = rng.choice((2, 3))
    if rng.randrange(2):
        return hyperbolic_top(dim, rng.randrange(dim), rng)
    fix = subspace(dim, rng.randrange(dim + 1), rng)
    return Elliptic(AffineSubspaceE(random_point(dim, rng), fix))


def documents(seed):
    """PER_COMMAND documents for each command, interleaved, as
    (command, JSON text)."""
    rng = random.Random(seed)
    top = plane_top()
    plain = coordinate_universe(3, top).elements
    augmented = coordinate_universe(3, top, augmented=True).elements
    el = element_to_json

    def isometry():
        return random_isometry(rng.choice((2, 3)), rng)

    def make(cmd):
        if cmd in ("analyze", "factorize"):
            return isometry_to_json(isometry())
        if cmd == "chain":
            w = isometry()
            return factorization_to_json(random_minimal_factorization(w, rng))
        if cmd == "order":
            if rng.randrange(2):
                p, q = rng.sample(plain, 2)
                return {"p": el(p), "q": el(q)}
            w = isometry()
            u, v = sample_interval(w, rng, 2)
            return {k: isometry_to_json(x) for k, x in zip("wuv", (w, u, v))}
        if cmd in ("meet", "join"):
            p, q = rng.sample(plain, 2)
            return {"top": el(top), "p": el(p), "q": el(q)}
        if cmd == "bowtie":
            return {"top": el(hyperbolic_top(3, 2, rng))}
        if cmd == "lattice":
            return {"top": el(any_top(rng))}
        if cmd == "complete":
            subset = rng.sample(augmented, rng.randint(1, 3))
            return {"top": el(top), "elements": [el(p) for p in subset]}
        subset = rng.sample(plain, rng.randint(6, 10))
        return {"top": el(top), "elements": [el(p) for p in subset]}

    return [
        (cmd, json.dumps(make(cmd))) for _ in range(PER_COMMAND) for cmd in COMMANDS
    ]


def run(docs):
    """cli.main on each document, read from stdin: the exit codes."""
    codes = []
    stdin = sys.stdin
    try:
        for cmd, text in docs:
            sys.stdin = io.StringIO(text)
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main([cmd]))
    finally:
        sys.stdin = stdin
    return codes


def retained():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_retained_memory_is_flat():
    docs = documents(2026)
    assert len(docs) == 300
    codes = run(docs[:100])
    tracemalloc.start()
    try:
        codes += run(docs[100:200])
        first = retained()
        codes += run(docs[200:])
        second = retained()
    finally:
        tracemalloc.stop()
    assert codes == [0] * 300
    assert second - first <= SLACK
