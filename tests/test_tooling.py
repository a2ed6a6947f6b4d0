"""The names that the benchmark tracer wraps and that the package and its
modules export exist, and each public name has one import path.

``perfbench/tracing.py`` wraps package functions by name, so a deleted or
renamed function would otherwise surface only when the traced benchmark
runs.  The tracer is read as source, not imported, so this test writes
nothing under ``perfbench/``.  A module's ``__all__`` lists only names that
module defines, and a public name one module imports from another is in
the exporter's ``__all__``; the package root re-exports nothing.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import dln_landscape

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(dln_landscape.__file__).resolve().parent


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


def _module_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_export_is_defined_in_its_module():
    imported = []
    for stem, tree in _module_trees().items():
        name = "dln_landscape" if stem == "__init__" else f"dln_landscape.{stem}"
        exports = importlib.import_module(name).__all__
        imported += [f"{name}.{e}" for e in exports if e not in _defined_names(tree)]
    assert not imported, f"exported but defined elsewhere: {imported}"


def test_every_imported_public_name_is_exported():
    unlisted = []
    for stem, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exports = importlib.import_module(f"dln_landscape.{node.module}").__all__
                unlisted += [
                    f"{stem} imports {node.module}.{alias.name}"
                    for alias in node.names
                    if not alias.name.startswith("_") and alias.name not in exports
                ]
    assert not unlisted, f"imported but not in the exporter's __all__: {unlisted}"
