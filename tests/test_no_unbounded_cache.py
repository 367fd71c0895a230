"""No library module keeps an unbounded cache keyed by arguments.

Such a cache holds every argument it has seen for the life of the process,
so a long-lived caller's memory grows without bound.  A zero-argument
cache (the CLI's full parser) holds one value and is allowed, and so is a
cache with a maxsize (the full space of each dimension in ``linalg`` and
in ``affine``).  The
scan covers the callables at module level and those bound on module-level
classes: classmethods, staticmethods and plain attributes.
"""

import functools
import importlib
import inspect
import itertools
import pkgutil
import random
import types

import pytest

import scherk
from scherk.affine import AffineSubspaceV
from scherk.isometry import classify, min_set
from scherk.linalg import Vector, span
from scherk.oracle import coordinate_universe, random_isometry
from scherk.poset import Hyperbolic, PosetContext, dm_join, dm_meet

MODULES = [scherk.__name__] + [
    f"{scherk.__name__}.{m.name}" for m in pkgutil.iter_modules(scherk.__path__)
]


def test_modules_found():
    assert "scherk.poset" in MODULES and "scherk.cli" in MODULES


def cached_callables(namespace):
    """(name, cache) for each functools cache bound in a module namespace,
    or on a class bound there; a classmethod or staticmethod is read
    through to the function it wraps."""
    bindings = []
    for attr, obj in vars(namespace).items():
        bindings.append((attr, obj))
        if isinstance(obj, type):
            bindings.extend((f"{attr}.{key}", value) for key, value in vars(obj).items())
    found = []
    for name, obj in bindings:
        obj = getattr(obj, "__func__", obj)
        if callable(getattr(obj, "cache_info", None)):
            found.append((name, obj))
    return found


def unbounded_with_arguments(namespace):
    return [
        name
        for name, cache in cached_callables(namespace)
        if cache.cache_info().maxsize is None and inspect.signature(cache).parameters
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_unbounded_cache_with_arguments(name):
    module = importlib.import_module(name)
    offenders = unbounded_with_arguments(module)
    assert not offenders, f"{name} has unbounded caches: {offenders}"


def test_scan_sees_caches_on_classes():
    class Holder:
        @classmethod
        @functools.cache
        def by_class(cls, n):
            return n

        @staticmethod
        @functools.lru_cache(maxsize=None)
        def by_static(n):
            return n

        plain = functools.lru_cache(maxsize=None)(lambda n: n)
        bounded = functools.lru_cache(maxsize=4)(lambda n: n)
        one_value = staticmethod(functools.cache(lambda: 0))

    module = types.SimpleNamespace(Holder=Holder, loose=functools.cache(lambda n: n))
    assert sorted(unbounded_with_arguments(module)) == [
        "Holder.by_class",
        "Holder.by_static",
        "Holder.plain",
        "loose",
    ]


def test_full_space_memo_is_found_and_bounded():
    """R^n in ``linalg`` and E^n in ``affine``."""
    for module, name in (("linalg", "_full"), ("affine", "_full_e")):
        caches = dict(cached_callables(importlib.import_module(f"scherk.{module}")))
        assert caches[name].cache_info().maxsize is not None


def module_containers():
    """The length of every module-level dict, set and list of the library."""
    sizes = {}
    for name in MODULES:
        for attr, obj in vars(importlib.import_module(name)).items():
            if not attr.startswith("__") and isinstance(obj, (dict, set, list)):
                sizes[name, attr] = len(obj)
    return sizes


def test_bounds_with_fresh_contexts_leave_module_state_alone():
    """Membership checks are remembered per context, never in a table."""
    before = module_containers()
    axes = [Vector.basis(3, i) for i in range(3)]
    top = Hyperbolic(AffineSubspaceV(span(axes[:2]), axes[2]))
    universe = coordinate_universe(3, top, augmented=True)
    triples = list(itertools.combinations(universe.elements, 3))
    for triple in random.Random(7).sample(triples, 1000):
        ctx = PosetContext(top=top, augmented=True)
        dm_meet(triple, ctx)
        dm_join(triple, ctx)
    assert module_containers() == before


def test_invariants_of_fresh_isometries_leave_module_state_alone():
    """The min-set is built on its first read and kept on its isometry,
    never in a table."""
    before = module_containers()
    rng = random.Random(11)
    for i in range(1000):
        w = random_isometry(2 + i % 5, rng)
        classify(w)
        min_set(w)
    assert module_containers() == before
