"""The names that the benchmark tracer wraps and that the package and its
modules export exist.

``perfbench/tracing.py`` wraps package functions by name, so a deleted or
renamed function would otherwise surface only when the traced benchmark
runs.  The tracer is read as source, not imported, so this test writes
nothing under ``perfbench/``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import dln_landscape

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_functions() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_FUNCTIONS assignment in {TRACING}")


def test_every_traced_function_resolves():
    missing = [
        f"{module}.{name}"
        for module, names in _span_functions().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"dln_landscape.{module}"), name, None))
    ]
    assert not missing, f"traced but missing: {missing}"


def test_every_package_export_resolves():
    missing = [name for name in dln_landscape.__all__ if not hasattr(dln_landscape, name)]
    assert not missing, f"exported but missing: {missing}"


def test_every_module_export_resolves():
    missing = []
    for info in pkgutil.iter_modules(dln_landscape.__path__):
        module = importlib.import_module(f"dln_landscape.{info.name}")
        missing += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"exported but missing: {missing}"
