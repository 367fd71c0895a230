"""No library module keeps an unbounded functools cache keyed by arguments.

Such a cache holds every argument it has seen for the life of the process,
so a long-lived caller's memory grows without bound.  A zero-argument
cache (the CLI parser) holds one value and is allowed.
"""

import importlib
import inspect
import pkgutil

import pytest

import scherk

MODULES = [scherk.__name__] + [
    f"{scherk.__name__}.{m.name}" for m in pkgutil.iter_modules(scherk.__path__)
]


def test_modules_found():
    assert "scherk.poset" in MODULES and "scherk.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_no_unbounded_cache_with_arguments(name):
    module = importlib.import_module(name)
    offenders = [
        attr
        for attr, obj in vars(module).items()
        if callable(getattr(obj, "cache_info", None))
        and obj.cache_info().maxsize is None
        and inspect.signature(obj).parameters
    ]
    assert not offenders, f"{name} has unbounded caches: {offenders}"
