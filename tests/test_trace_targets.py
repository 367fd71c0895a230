"""Every per-layer function the benchmark's tracer times still exists.

``perfbench/tracer.py`` wraps library functions by name from outside, and
reports a name it cannot find as missing instead of failing.  A
refactoring that renames or deletes a traced function would so drop a
per-layer metric silently; this test makes it fail instead.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_found():
    tracer_module = load_tracer()
    modules = {
        name: importlib.import_module(f"scherk.{name}")
        for name in tracer_module.TARGETS
    }
    tracer = tracer_module.Tracer(modules)
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer.restore
    finally:
        tracer.uninstall()
