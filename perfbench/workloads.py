"""The benchmark's workloads: how each makes its inputs, runs one op, and
checks the op's output.

A workload never holds a library function: it reaches every call through
the module objects of ``Lib`` at call time, so the wrappers the tracer puts
into those modules see each call.

Inputs travel from the generator process to the measuring process as the
library's own JSON (``scherk.jsonio``) and are rebuilt there, so the objects
an op receives were never touched by the generator.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
from pathlib import Path

import clidocs
from corpus import Corpus

MODULES = ("linalg", "affine", "isometry", "factor", "poset", "jsonio", "cli", "oracle")


class Lib:
    """The library's modules, by short name.

    ``scherk.factor`` as an attribute of the package is the function, so
    each module is imported by its full name.
    """

    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"scherk.{name}"))

    def modules(self):
        return [getattr(self, name) for name in MODULES]


def caches(modules):
    """Every functools cache bound at module level in the given modules."""
    found = {}
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = value
    return list(found.values())


def clear_caches(L):
    for cached in caches(L.modules()):
        cached.cache_clear()


def run_cli(L, cmd, path):
    """``scherk.cli.main`` on one document, in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = L.cli.main([cmd, str(path)])
    return code, out.getvalue()


class Workload:
    """Interface of a workload.

    ``units`` yields JSON-able input units from a seeded random source;
    ``load`` rebuilds a list of units into the op inputs, in run order;
    ``op`` is the timed call; ``check`` says whether one op's output is
    right; ``docs`` turns the first inputs into CLI documents for the
    subprocess phase.  ``cycle`` workloads reuse a fixed pool of inputs
    round-robin; the others stop when their inputs run out.
    """

    name = ""
    cycle = False
    pool_ops = 0  # size of the fixed pool, for cycle workloads
    ref_ops_per_s = 0  # about the timed phase's rate at the reference speed
    trace_ops_per_s = 0  # traced-pass size per --seconds
    warmup_ops = 0
    tail_pct = 0  # op_tail_ms percentile; leaves well over ten ops beyond it

    def prepare(self, L, docdir: Path):
        self.docdir = docdir
        self.doc_count = 0

    def write_doc(self, cmd: str, doc) -> dict:
        """Write a CLI document as a file; return its command and path."""
        self.docdir.mkdir(exist_ok=True)
        path = self.docdir / f"{self.doc_count:05d}.json"
        self.doc_count += 1
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return {"cmd": cmd, "path": str(path)}

    def ops_in(self, unit) -> int:
        return len(unit)


class Factor(Workload):
    """classify then factor on seeded isometries, dimensions 2-6 in turn."""

    name = "factor"
    dims = (2, 3, 4, 5, 6)
    ref_ops_per_s = 100
    tail_pct = 95
    trace_ops_per_s = 35
    warmup_ops = 5

    def units(self, L, rng):
        corpus = Corpus(L, rng)
        while True:
            yield [L.jsonio.isometry_to_json(corpus(dim)) for dim in self.dims]

    def load(self, L, units):
        return [L.jsonio.isometry_from_json(obj) for unit in units for obj in unit]

    def op(self, L, w):
        return L.isometry.classify(w), L.factor.factor(w)

    def check(self, L, w, result):
        cls, f = result
        scherk_length = cls.move_set.dim + (0 if cls.is_elliptic else 2)
        return f.product() == w and len(f) == cls.length == scherk_length

    def docs(self, L, units, count):
        objs = [obj for unit in units for obj in unit][:count]
        return [self.write_doc("factorize", obj) for obj in objs]


class Chains(Workload):
    """Maximal chains and interval samples of isometries in dimensions 2-4.

    Each isometry comes with CHAINS random maximal chains and SAMPLES
    interval members, whose pairs number CHAINS too.  Op i of an isometry
    round-trips chain i and compares the two orders on pair i.  Ops of the
    three dimensions alternate.
    """

    name = "chains"
    dims = (2, 3, 4)
    CHAINS = 3  # few ops per isometry, so that a run sees many isometries
    SAMPLES = 3
    ref_ops_per_s = 80
    tail_pct = 90
    trace_ops_per_s = 30
    warmup_ops = 3

    def units(self, L, rng):
        J, O = L.jsonio, L.oracle
        corpus = Corpus(L, rng)
        while True:
            unit = []
            for dim in self.dims:
                w = corpus(dim)
                chains = [O.random_maximal_chain(w, rng) for _ in range(self.CHAINS)]
                samples = O.sample_interval(w, rng, self.SAMPLES)
                unit.append(
                    {
                        "w": J.isometry_to_json(w),
                        "chains": [[J.element_to_json(p) for p in c] for c in chains],
                        "samples": [J.isometry_to_json(u) for u in samples],
                    }
                )
            yield unit

    def ops_in(self, unit):
        return len(unit) * self.CHAINS

    def load(self, L, units):
        J = L.jsonio
        pairs = list(itertools.combinations(range(self.SAMPLES), 2))  # CHAINS of them
        ops = []
        for unit in units:
            groups = []
            for g in unit:
                w = J.isometry_from_json(g["w"])
                chains = [[J.element_from_json(p) for p in c] for c in g["chains"]]
                samples = [J.isometry_from_json(u) for u in g["samples"]]
                groups.append((w, chains, samples))
            for i, (a, b) in enumerate(pairs):
                for w, chains, samples in groups:
                    ops.append((w, chains[i], samples[a], samples[b]))
        return ops

    def op(self, L, item):
        w, chain, u, v = item
        f = L.factor.chain_to_factorization(chain, w)
        back = L.factor.factorization_to_chain(f)
        pu, pv = L.poset.inv_map(u), L.poset.inv_map(v)
        orders = (
            L.isometry.interval_leq(w, u, v),
            L.poset.leq(pu, pv),
            L.isometry.interval_leq(w, v, u),
            L.poset.leq(pv, pu),
        )
        return f, back, orders, pu == pv

    def check(self, L, item, result):
        w, chain, u, v = item
        f, back, orders, same_invariant = result
        return (
            back == chain
            and orders[0] == orders[1]
            and orders[2] == orders[3]
            and (not same_invariant or u == v)
        )

    def docs(self, L, units, count):
        out = []
        for w, chain, _, _ in self.load(L, units[: 1 + count // self.ops_in(units[0])]):
            if len(out) == count:
                break
            f = L.factor.chain_to_factorization(chain, w)
            out.append(self.write_doc("chain", L.jsonio.factorization_to_json(f)))
        return out


class Complete(Workload):
    """dm_meet and dm_join of subsets of the augmented plane universe.

    Subsets of size 1-3 are drawn uniformly from all of them, as criterion 6
    sweeps them all; the universe is fixed, so subspaces repeat.
    """

    name = "complete"
    ref_ops_per_s = 800
    tail_pct = 90
    trace_ops_per_s = 300
    warmup_ops = 50

    def prepare(self, L, docdir):
        super().prepare(L, docdir)
        self.top = clidocs.plane_top(L)
        self.universe = L.oracle.coordinate_universe(3, self.top, augmented=True)

    def units(self, L, rng):
        n = len(self.universe)
        sizes = (1, 2, 3)
        weights = [math.comb(n, k) for k in sizes]
        while True:
            k = rng.choices(sizes, weights)[0]
            yield sorted(rng.sample(range(n), k))

    def ops_in(self, unit):
        return 1

    def load(self, L, units):
        elements = self.universe.elements
        return [tuple(elements[i] for i in unit) for unit in units]

    def op(self, L, subset):
        ctx = self.universe.ctx
        return L.poset.dm_meet(subset, ctx), L.poset.dm_join(subset, ctx)

    def check(self, L, subset, result):
        """The relations criterion 6 asserts, against the definitional bounds."""
        low, high = result
        leq, universe = L.poset.leq, self.universe
        if not all(leq(low, q) and leq(q, high) for q in subset):
            return False
        maximal = L.oracle.definitional_meet(subset, universe)
        minimal = L.oracle.definitional_join(subset, universe)
        if not all(leq(x, low) for x in maximal):
            return False
        if not all(leq(high, x) for x in minimal):
            return False
        if low in universe and maximal != {low}:
            return False
        return high not in universe or minimal == {high}

    def docs(self, L, units, count):
        top = L.jsonio.element_to_json(self.top)
        return [
            self.write_doc(
                "complete",
                {"top": top, "elements": [L.jsonio.element_to_json(p) for p in subset]},
            )
            for subset in self.load(L, units[:count])
        ]


class Cli(Workload):
    """Seeded documents for the ten CLI commands, answered by cli.main."""

    name = "cli"
    cycle = True
    pool_ops = 30 * len(clidocs.COMMANDS)
    tail_pct = 95
    trace_ops_per_s = 80
    warmup_ops = len(clidocs.COMMANDS)

    def prepare(self, L, docdir):
        super().prepare(L, docdir)
        self.expected = {}

    def units(self, L, rng):
        maker = clidocs.DocMaker(L, rng)
        while True:
            yield [self.write_doc(cmd, maker.make(cmd, rng)) for cmd in clidocs.COMMANDS]

    def load(self, L, units):
        return [(d["cmd"], d["path"]) for unit in units for d in unit]

    def op(self, L, item):
        return run_cli(L, *item)

    def check(self, L, item, result):
        if item not in self.expected:
            cmd, path = item
            doc = json.loads(Path(path).read_text())
            self.expected[item] = clidocs.expected_stdout(L, cmd, doc)
        return result == (0, self.expected[item])

    def docs(self, L, units, count):
        pool = [d for unit in units for d in unit]
        return [pool[i % len(pool)] for i in range(count)]


WORKLOADS = {w.name: w for w in (Factor, Chains, Complete, Cli)}
