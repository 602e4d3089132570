"""The benchmark's tracer patches names inside the package; keep them resolvable.

bench/tracer.py wraps bindings such as ``solver.kernel_columns`` by attribute
name and splits kernel_columns calls by the calling function's name. A
refactor that renames or drops one of them would break ``bench/run.py
--trace 1``; these checks make it fail here instead. The same bindings are
the only imports the package may keep without using them.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from npmlmix import FitOptions, certify, fit_npml, likelihood, simulate_dataset, solver

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


def test_fit_and_certify_scan_through_the_scan_caller(tracer, monkeypatch, pk_spec, two_point_pk_truth):
    # the tracer reads the name of kernel_columns' calling function; a scan built elsewhere counts as "other"
    ds = simulate_dataset(pk_spec, two_point_pk_truth, 60, seed=9)
    box = [(0.5, 2.5), (0.05, 1.2)]
    original, seen = likelihood.kernel_columns, []

    def recording(ds_, points):
        seen.append(sys._getframe(1).f_code.co_name)
        return original(ds_, points)

    monkeypatch.setattr(likelihood, "kernel_columns", recording)
    monkeypatch.setattr(solver, "kernel_columns", recording)
    fit = fit_npml(ds, box, [3, 3], FitOptions(refine_grid=33))
    fit_callers = set(seen)
    seen.clear()
    certify(ds, fit.measure, box, 65)
    for name, callers in (("fit_npml", fit_callers), ("certify", set(seen))):
        assert callers <= set(tracer._KERNEL_CALLERS), (name, callers)
        assert "_dir_derivs_from_rows" in callers, (name, callers)


def _unused_imports(path: Path) -> set:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports(tracer):
    patched = {
        (owner.__name__, attr) for owner, attr, _, _ in tracer._bindings() if inspect.ismodule(owner)
    }
    package = Path(solver.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"npmlmix.{path.stem}"
        unused = sorted(name for name in _unused_imports(path) if (module, name) not in patched)
        assert not unused, f"{path.name} imports {unused} and never uses them"
