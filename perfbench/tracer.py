"""Spans around the library's layer functions, installed from outside.

``Tracer.install`` replaces each target function, in every module
namespace that bound it (``from .linalg import project`` gives ``affine``
its own binding), and each target method on its class.  A wrapper records
one span: (name, start, end, parent).  Spans stay in memory, in flat
arrays, until ``summary`` turns them into calls and self time per name;
self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Per module: functions by name, "Class" for its constructor, "Class.method".
TARGETS = {
    "linalg": (
        "_rref",
        "project",
        "null_space",
        "intersect",
        "solve_affine",
        "orthogonal_complement",
        "Matrix.__mul__",
    ),
    "affine": (
        "AffineSubspaceV",
        "AffineSubspaceE",
        "intersect_affine",
        "intersect_affine_v",
        "hull_of_affine_e",
        "hull_of_affine_v",
    ),
    "isometry": (
        "move_set",
        "min_set",
        "classify",
        "Isometry.compose",
        "Reflection",
        "Reflection.to_isometry",
        "reflection_bisecting",
        "interval_leq",
    ),
    "factor": (
        "factor",
        "chain_to_factorization",
        "factorization_to_chain",
        "Factorization.product",
    ),
    "poset": ("leq", "inv_map", "dm_meet", "dm_join"),
    "jsonio": (
        "isometry_from_json",
        "element_from_json",
        "element_to_json",
        "factorization_to_json",
    ),
    "cli": ("main",),
}

OP = "op"


def _call(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps each short name in TARGETS to its module object."""
        self.modules = modules
        self.names = [OP] + [f"{m}.{t}" for m, targets in TARGETS.items() for t in targets]
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.restore = []
        self.missing = []
        # span(fn, *args) calls fn(*args) inside a root span named OP.
        self.span = self._wrap(_call, 0)

    def _wrap(self, fn, index):
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self):
        namespaces = [
            module
            for name, module in sys.modules.items()
            if name == "scherk" or name.startswith("scherk.")
        ]
        for index, name in enumerate(self.names[1:], start=1):
            module_name, _, target = name.partition(".")
            owner_name, _, attribute = target.rpartition(".")
            found = getattr(self.modules[module_name], owner_name or target, None)
            if isinstance(found, type):
                attribute = attribute if owner_name else "__init__"
                if attribute in vars(found):
                    self._replace(found, attribute, index)
                else:
                    self.missing.append(name)
            elif found is None or owner_name:
                self.missing.append(name)
            else:
                wrapper = self._wrap(found, index)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is found:
                            self.restore.append((namespace, key, found))
                            setattr(namespace, key, wrapper)

    def _replace(self, owner, attribute, index):
        original = owner.__dict__[attribute]
        self.restore.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, index))

    def uninstall(self):
        for owner, key, original in reversed(self.restore):
            setattr(owner, key, original)
        self.restore.clear()

    def summary(self) -> dict:
        """{name: (calls, self seconds)} over every span recorded."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        span_name, parent = self.span_name, self.parent
        for i, (s, e) in enumerate(zip(self.start, self.end)):
            k = span_name[i]
            calls[k] += 1
            own[k] += e - s
            if parent[i] >= 0:
                own[span_name[parent[i]]] -= e - s
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}
