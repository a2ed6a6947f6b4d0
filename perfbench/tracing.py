"""Span tracing of the ``dln_landscape`` modules, installed from outside.

A traced run replaces the public functions of each package module with
wrappers that record one span per call (name, start, end, parent span, op
id) in memory.  The package binds helpers with ``from .x import f``, so a
wrapper is installed on every module attribute that holds the original
function, not only where it is defined.  ``numpy.linalg.svd`` and the
``value``/``gradient`` methods of the built-in losses are wrapped with
counters only: they are called too often for a span each, and their time
stays in the caller's self time.

``Tracer.uninstall`` puts every original back, so untraced passes in the
same process run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Public functions that get a span, per module.  Leaf helpers called once per
# matrix entry or per draw (``storage.fmt_float``, ``linalg.ensure_matrix``,
# ``harness.stream``) are left out: a span there would cost more than the work.
SPAN_FUNCTIONS = {
    "linalg": ("numerical_rank", "kernel_vector", "min_norm_right_solve", "best_rank_approx"),
    "network": ("partial_product", "end_to_end", "chain_loss", "layer_gradients",
                "make_split", "bottleneck_split", "validate_loss_contract"),
    "perturb": ("default_delta", "kernel_family", "apply_family", "subspace_membership",
                "escape_construction", "escape_construction_mirrored", "reversed_chain",
                "lift_perturbation"),
    "analyze": ("super_gradients", "global_certificate", "classify", "two_layer_reduction",
                "descent_search"),
    "optim": ("armijo_gd",),
    "harness": ("gen_instance", "train_gd", "regenerate"),
    "oracle": ("rrr_oracle", "finite_diff_gradient"),
    "storage": ("save_matrix_csv", "load_matrix_csv", "save_instance", "load_chain",
                "load_instance", "save_certificate", "save_trajectory_csv",
                "load_trajectory_csv", "certificate_to_dict", "report_to_dict",
                "render_report_text"),
    "verify": ("verify_suite", "render_verify_text", "render_verify_json"),
    "cli": ("main",),
}
MODULES = tuple(SPAN_FUNCTIONS)

STORAGE_WRITES = ("storage.save_matrix_csv", "storage.save_instance",
                  "storage.save_certificate", "storage.save_trajectory_csv")
STORAGE_READS = ("storage.load_matrix_csv", "storage.load_chain",
                 "storage.load_instance", "storage.load_trajectory_csv")
# The trajectory callback that ``train_gd`` hands to ``armijo_gd``: its time
# is train_gd's own work (trajectory recording), though it runs inside
# armijo_gd.
RECORD_SPAN = "harness.train_gd.record"


def _file_size(path) -> int:
    return os.path.getsize(path)


def _manifest_size(directory) -> int:
    return os.path.getsize(os.path.join(directory, "manifest.json"))


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._in_armijo = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _counter(self, key: str, fn, armijo_key: str | None = None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
                if armijo_key is not None and self._in_armijo:
                    self.counts[armijo_key] += 1
            return fn(*args, **kwargs)

        return counted

    def _armijo(self, fn):
        record = self._span(RECORD_SPAN, lambda cb, *a: cb(*a))
        traced = self._span("optim.armijo_gd", fn)

        @functools.wraps(fn)
        def armijo(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            on_state = kwargs.get("on_state")
            if on_state is not None:
                kwargs["on_state"] = functools.partial(record, on_state)
            self._in_armijo += 1
            try:
                result = traced(*args, **kwargs)
            finally:
                self._in_armijo -= 1
            self.counts["optim.steps"] += result.steps
            return result

        return armijo

    def _cli_main(self, fn):
        spans: dict[str, object] = {}

        @functools.wraps(fn)
        def main(argv=None):
            if not self.active:
                return fn(argv)
            name = "cli." + (argv[0] if argv else "main")
            if name not in spans:
                spans[name] = self._span(name, fn)
            return spans[name](argv)

        return main

    def _byte_hook(self, qualified: str):
        directory_calls = {"storage.save_instance", "storage.save_certificate",
                           "storage.load_chain", "storage.load_instance"}
        size = _manifest_size if qualified in directory_calls else _file_size
        key = "storage.write_bytes" if qualified in STORAGE_WRITES else "storage.read_bytes"

        def after(args, kwargs, result):
            # CSV files inside a directory are counted by the nested
            # save/load_matrix_csv spans; the directory call adds its manifest.
            self.counts[key] += size(args[0] if args else
                                     kwargs.get("path", kwargs.get("directory")))

        return after

    def _wrapper(self, module: str, fname: str, fn):
        qualified = f"{module}.{fname}"
        if qualified == "optim.armijo_gd":
            return self._armijo(fn)
        if qualified == "cli.main":
            return self._cli_main(fn)
        if qualified in STORAGE_WRITES or qualified in STORAGE_READS:
            return self._span(qualified, fn, self._byte_hook(qualified))
        return self._span(qualified, fn)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, pkg) -> None:
        """Wrap every binding of the traced functions across the package."""
        modules = [pkg.package] + [getattr(pkg, m) for m in MODULES]
        for module in MODULES:
            for fname in SPAN_FUNCTIONS[module]:
                original = getattr(getattr(pkg, module), fname)
                wrapper = self._wrapper(module, fname, original)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
        for cls in (pkg.network.QuadraticLoss, pkg.network.LogCoshLoss):
            self._patch(cls, "value", self._counter(
                "network.loss.value_calls", cls.value, "optim.value_calls"))
            self._patch(cls, "gradient", self._counter(
                "network.loss.gradient_calls", cls.gradient, "optim.gradient_calls"))
        self._patch(np.linalg, "svd", self._counter("linalg.svd.calls", np.linalg.svd))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def summarize(self, mark: tuple[int, Counter]) -> tuple[dict, dict]:
        """Self and inclusive seconds per span name, plus counts, since ``mark``."""
        lo, counts_before = mark
        hi = len(self.start)
        start = np.array(self.start[lo:hi], dtype=np.float64)
        end = np.array(self.end[lo:hi], dtype=np.float64)
        names = np.array(self.name[lo:hi], dtype=np.int64)
        parents = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        duration = end - start
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested], minlength=hi - lo)
        own = duration - child
        width = len(self.names)
        self_s = np.bincount(names, weights=own, minlength=width)
        total_s = np.bincount(names, weights=duration, minlength=width)
        times = {n: (float(self_s[i]), float(total_s[i])) for i, n in enumerate(self.names)}
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        return times, {k: v for k, v in counts.items() if v}

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )


class NullTracer:
    """Stand-in for untraced runs."""

    op_id = -1

    @contextlib.contextmanager
    def paused(self):
        yield
