"""The benchmark's tracer patches names inside the package; keep them resolvable.

bench/tracer.py wraps bindings such as ``solver.kernel_columns`` by attribute
name and splits kernel_columns calls by the calling function's name. A
refactor that renames or drops one of them would break ``bench/run.py
--trace 1``; these checks make it fail here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from npmlmix import likelihood, solver

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves(tracer):
    for owner, attr, name, _ in tracer._bindings():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {name}) is gone"
        assert callable(owner.__dict__[attr])


def test_install_then_restore_leaves_bindings(tracer):
    before = tracer.binding_snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.binding_snapshot() != before
    finally:
        t.restore()
    assert tracer.binding_snapshot() == before


def test_kernel_callers_are_package_functions(tracer):
    for caller in tracer._KERNEL_CALLERS:
        found = [
            fn
            for fn in (getattr(solver, caller, None), getattr(likelihood, caller, None))
            if inspect.isfunction(fn) and fn.__code__.co_name == caller
        ]
        assert found, f"kernel_columns caller {caller!r} is not a function in solver or likelihood"
