"""The names that the benchmark tracer wraps and that the package and its
modules export exist, the benchmark's direct calls bind, and each public
name has one import path.

``perfbench/tracing.py`` wraps package functions by name, and the
benchmark's workloads call package functions directly, so a deleted or
renamed function, or a changed signature, would otherwise surface only when
the benchmark runs.  The benchmark is read as source, not imported, so
these tests write nothing under ``perfbench/``.  A module's ``__all__``
lists only names that module defines, and a public name one module imports
from another is in the exporter's ``__all__``; the package root re-exports
nothing.  Every name a module imports is used in it or listed in its
``__all__``.  No module multiplies with the ``@`` operator: products go
through ``ndarray.dot`` (see the ``network`` module docstring).  The
descent adds its floats up left to right, not with builtin ``sum()``,
which is compensated from Python 3.12 and would round differently there.
A whole-array norm is ``_norm``, not ``np.linalg.norm``, and ``np.all`` and
``np.any`` are written as the array methods.
Every stop status of the descent is documented where its readers look, and
every private helper of the package has a caller in it.  The gauge tests
pass under OpenBLAS kernel families other than the default one.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dln_landscape
from dln_landscape import optim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"
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


def _bench_references():
    """``(where, module, name, call)`` for every ``pkg.<module>.<name>`` in
    the benchmark's source, with the ``ast.Call`` node when it is called."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "pkg"
            ):
                where = f"{path.name}:{node.lineno}"
                yield where, node.value.attr, node.attr, calls.get(id(node))


def test_every_benchmark_call_resolves_and_binds():
    problems = []
    seen = 0
    for where, module, name, call in _bench_references():
        target = getattr(importlib.import_module(f"dln_landscape.{module}"), name, None)
        if target is None:
            problems.append(f"{where}: {module}.{name} does not exist")
            continue
        if call is None:
            continue
        seen += 1
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            problems.append(f"{where}: {module}.{name} is called with * or ** arguments")
            continue
        try:
            inspect.signature(target).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            problems.append(f"{where}: {module}.{name}: {exc}")
    assert seen, "no direct package call found in the benchmark"
    assert not problems, problems


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


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_used_or_exported():
    dead = []
    for stem, tree in _module_trees().items():
        name = "dln_landscape" if stem == "__init__" else f"dln_landscape.{stem}"
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(importlib.import_module(name).__all__)
        dead += [f"{stem} imports {n}" for n in _imported_names(tree) if n not in used]
    assert not dead, f"imported but never used: {dead}"


def test_every_private_helper_has_a_caller():
    # A ``_``-prefixed function, method or class that nothing in the package
    # names outside its own definition is dead code left behind; an import
    # alone is not a use.
    defs, uses = [], []
    for stem, tree in _module_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                inside = {id(n) for n in ast.walk(node)}
                defs.append((stem, node.name, inside))
            if isinstance(node, ast.Name):
                uses.append((id(node), node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((id(node), node.attr))
    dead = [f"{stem}.{name}" for stem, name, inside in defs
            if not any(n == name and i not in inside for i, n in uses)]
    assert not dead, f"private helpers with no caller: {dead}"


def test_no_product_uses_the_matmul_operator():
    # ``@`` in a docstring is notation, a string constant, and is not seen.
    found = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not found, f"products written with @ instead of ndarray.dot: {found}"


def test_the_descent_calls_no_builtin_sum():
    tree = _module_trees()["optim"]
    found = [
        f"optim.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert not found, f"builtin sum() rounds by Python version: {found}"


def _is_square(node) -> bool:
    """``x * x`` of one expression, or ``x ** 2``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return isinstance(node.op, ast.Pow) and ast.dump(node.right) == ast.dump(ast.Constant(2))


def test_every_sum_of_squares_is_one_reduction():
    # ``network._sum_squares`` is the one reduction per array; a sum over an
    # elementwise square builds a temporary and rounds differently.
    found = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.sum", "np.add.reduce")
        and node.args
        and _is_square(node.args[0])
    ]
    assert not found, f"sums of squares not taken with _sum_squares: {found}"


def test_whole_array_norms_and_reductions_skip_the_function_forms():
    # ``linalg._norm`` is bitwise ``np.linalg.norm`` of a whole array without
    # its dispatch, and ``x.all()`` / ``x.any()`` are ``np.all(x)`` /
    # ``np.any(x)`` without theirs.  Row norms (``axis=``) stay on numpy.
    found = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (ast.unparse(node.func) in ("np.all", "np.any", "numpy.all", "numpy.any")
             or (ast.unparse(node.func) in ("np.linalg.norm", "numpy.linalg.norm")
                 and len(node.args) < 3 and all(kw.arg != "axis" for kw in node.keywords)))
    ]
    assert not found, f"np.all, np.any or a whole-array np.linalg.norm: {found}"


def test_every_descent_status_is_documented():
    # ``armijo_gd``'s docstring and the README's ``optim`` row name each
    # status the descent can stop with.
    [row] = [line for line in README.read_text(encoding="utf-8").splitlines()
             if line.startswith("| `dln_landscape.optim` |")]
    statuses = [getattr(optim, n) for n in optim.__all__ if n.startswith("STATUS_")]
    assert optim.STATUS_TARGET in statuses
    missing = [(where, status) for where, text in (("docstring", optim.armijo_gd.__doc__), ("README", row))
               for status in statuses if f"`{status}`" not in text]
    assert not missing, f"descent statuses not documented: {missing}"


# Runs one test file in a process whose OpenBLAS kernel family was chosen by
# ``OPENBLAS_CORETYPE``, after printing the family the library reports.
_UNDER_KERNEL = """
import ctypes, sys
import numpy, pytest
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
found = (getattr(ctypes.CDLL(lib), n, None) for lib in libs for n in names)
corename = next(f for f in found if f is not None)
corename.restype = ctypes.c_char_p
print("kernel", corename().decode(), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def test_the_gauge_tests_pass_under_other_blas_kernels():
    # The wheel's DYNAMIC_ARCH OpenBLAS picks a kernel family per CPU, and
    # the gauge tests check symmetries, not bytes, so they must hold on each.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name", "")
    if "openblas" not in blas or not sys.platform.startswith("linux"):
        pytest.skip(f"kernel families are chosen only in OpenBLAS on Linux, not {blas}")
    root = PACKAGE.parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    runs = {
        core: subprocess.Popen(
            [sys.executable, "-c", _UNDER_KERNEL, str(root / "tests" / "test_gauge.py")],
            cwd=root, env={**env, "OPENBLAS_CORETYPE": core},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for core in ("Haswell", "Sandybridge")
    }
    for core, run in runs.items():
        out, _ = run.communicate(timeout=300)
        assert out.startswith(f"kernel {core}\n") and run.returncode == 0, out
