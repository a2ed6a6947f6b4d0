"""Benchmark of the ``dln_landscape`` package in ``src/``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,plateau_escape,cli_pipeline} \\
        --seed N --seconds S --trace {0,1}

One process, one BLAS thread, a closed loop: each op starts when the one
before it has finished.  With ``--trace 0`` ops run back to back for about
``S`` seconds and the end-to-end metrics are reported.  With ``--trace 1`` a
fixed list of ops derived from the seed runs in alternating untraced and
traced passes until ``S`` seconds are spent (at least two of each), and the
per-layer metrics are reported per op.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md beside this file describes workloads
and metrics.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# Set-up time counts from here: numpy and the package are imported below.
_START = perf_counter()

# Pin BLAS to one thread before numpy loads: on a 2-core machine a threaded
# BLAS makes timings depend on whatever else runs.
INHERITED_THREAD_ENV = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR.relative_to(ROOT) / "_work"
OUT = BENCH_DIR / "_out"
SETUP_SAMPLES = 3
PACKAGE_MODULES = ("analyze", "cli", "harness", "linalg", "network", "optim", "oracle",
                   "perturb", "storage", "verify")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "B/op"
    if name.endswith((".calls", "_calls")) or name == "optim.steps":
        return "count/op"
    if name == "optim.trials_per_step":
        return "trials/step"
    if name == "optim.steps_per_s":
        return "1/s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s/op"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up seconds and exit (used for setup_s samples)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def load_package() -> SimpleNamespace:
    """Import ``dln_landscape`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dln_landscape" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dln_landscape package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("dln_landscape")
    if Path(package.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: dln_landscape imported from {package.__file__}, not {src}")
    modules = {m: importlib.import_module(f"dln_landscape.{m}") for m in PACKAGE_MODULES}
    return SimpleNamespace(package=package, **modules)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process running the same workload."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.splitlines()[-1])


def execute(wl, inp: dict, tracer) -> workloads.Outcome:
    """One op; an exception inside the program is a failed op, not a crash."""
    start = perf_counter()
    try:
        return wl.execute(inp, tracer)
    except Exception as exc:  # the loop must go on and record the failure
        where = traceback.format_exc().strip().splitlines()[-3:]
        return workloads.Outcome(perf_counter() - start, f"raised {type(exc).__name__}: {exc}",
                                 [f"raised {type(exc).__name__}: {exc} | {' / '.join(where)}"])


class Run:
    """Ops attempted in one run, their failures and the guards they broke."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []
        self.broken: list[str] = []
        self.digests: list[str] = []

    def record(self, inp: dict, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        self.digests.append(outcome.digest)
        self.broken.extend(outcome.broken)
        if outcome.problems:
            self.failures.append({"inputs": inp, "problems": outcome.problems})

    def same_digest(self, what: str, first: workloads.Outcome, again: workloads.Outcome) -> None:
        if first.digest != again.digest:
            self.broken.append(f"{what}: outputs differ on repeat ({first.digest} vs {again.digest})")


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten ops beyond it, and its latency."""
    n = len(latencies)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def timed_run(wl, seconds: float, run: Run) -> tuple[dict, list[str]]:
    null = tracing.NullTracer()
    outcomes: list[workloads.Outcome] = []
    start = perf_counter()
    while True:
        inp = wl.inputs(len(outcomes))
        outcomes.append(execute(wl, inp, null))
        run.record(inp, outcomes[-1])
        latencies = [o.seconds for o in outcomes]
        # Start another op only if it should end by about the deadline: a
        # long op is not cut, so runs of long ops overshoot by at most 3/4 op.
        if perf_counter() - start + 0.25 * statistics.fmean(latencies) >= seconds:
            break
    # Determinism: the first op again, untimed, must give the same outputs.
    run.same_digest("op 0", outcomes[0], execute(wl, wl.inputs(0), null))
    # Timings cover the ops that passed their checks: a failed op is counted
    # in `failed`, and one that aborts early must not read as a fast op.
    latencies = [o.seconds for o in outcomes if not o.problems] or latencies
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"ops timed: {len(outcomes)} in {perf_counter() - start:.1f} s wall, "
             f"{len(latencies)} of them in the timings"]
    t = tail(latencies)
    notes.append("metric op_tail_ms = none (fewer than 11 ops)" if t is None else
                 f"metric op_tail_ms = {1e3 * t[1]!r} ms (p{t[0]:.2f} of {len(latencies)} ops)")
    return metrics, notes


def layer_metrics(times: dict, counts: dict, n_ops: int, ref_s: float, traced_s: float) -> dict:
    """Per-op per-layer metrics of one traced pass."""

    def self_s(name: str) -> float:
        return times.get(name, (0.0, 0.0))[0] / n_ops

    def per_op(key: str) -> float:
        return counts.get(key, 0) / n_ops

    steps = counts.get("optim.steps", 0)
    armijo_s = times.get("optim.armijo_gd", (0.0, 0.0))[1]
    m = {
        "optim.armijo_gd.s": self_s("optim.armijo_gd"),
        "optim.steps": per_op("optim.steps"),
        "optim.trials_per_step": ((counts.get("optim.value_calls", 0)
                                   - counts.get("optim.gradient_calls", 0)) / steps
                                  if steps else 0.0),
        "optim.steps_per_s": steps / armijo_s if steps else 0.0,
        "harness.train_gd.self_s": self_s("harness.train_gd") + self_s(tracing.RECORD_SPAN),
        "linalg.svd.calls": per_op("linalg.svd.calls"),
        "network.partial_product.calls": per_op("network.partial_product.calls"),
        "network.loss.value_calls": per_op("network.loss.value_calls"),
        "network.loss.gradient_calls": per_op("network.loss.gradient_calls"),
        "storage.write.s": sum(self_s(n) for n in tracing.STORAGE_WRITES),
        "storage.read.s": sum(self_s(n) for n in tracing.STORAGE_READS),
        "storage.write_bytes": per_op("storage.write_bytes"),
        "storage.read_bytes": per_op("storage.read_bytes"),
        "trace.overhead_ratio": ref_s / traced_s,
    }
    for name in ("linalg.numerical_rank", "linalg.kernel_vector", "network.partial_product",
                 "network.layer_gradients", "perturb.escape_construction",
                 "perturb.kernel_family", "analyze.classify", "analyze.descent_search",
                 "harness.gen_instance", "oracle.rrr_oracle", "oracle.finite_diff_gradient",
                 "verify.verify_suite"):
        m[name + ".s"] = self_s(name)
    for command in ("gen", "analyze", "perturb", "train", "oracle", "verify"):
        m[f"cli.{command}.s"] = self_s(f"cli.{command}")
    for module in tracing.MODULES:
        m[module + ".self_s"] = sum(self_s(n) for n in times if n.startswith(module + "."))
    return m


def traced_run(wl, pkg, seconds: float, run: Run) -> tuple[dict, list[str]]:
    null = tracing.NullTracer()
    ops = [wl.inputs(i) for i in range(wl.TRACE_OPS)]
    tracer = tracing.Tracer()
    reference: list[workloads.Outcome] = []
    untraced_s: list[float] = []
    passes = []
    start = perf_counter()
    # Untraced and traced passes over the same ops alternate, so that
    # trace.overhead_ratio compares like with like.
    while len(passes) < 2 or perf_counter() - start < seconds:
        outcomes = [execute(wl, inp, null) for inp in ops]
        for j, (inp, outcome) in enumerate(zip(ops, outcomes)):
            run.record(inp, outcome)
            if reference:
                run.same_digest(f"op {j} untraced pass {len(untraced_s)}", reference[j], outcome)
        reference = reference or outcomes
        untraced_s.append(sum(o.seconds for o in outcomes))

        tracer.install(pkg)
        try:
            mark = tracer.mark()
            outcomes = []
            for j, inp in enumerate(ops):
                tracer.op_id = len(passes) * len(ops) + j
                tracer.active = True
                try:
                    outcome = execute(wl, inp, tracer)
                finally:
                    tracer.active = False
                run.record(inp, outcome)
                run.same_digest(f"op {j} traced pass {len(passes)}", reference[j], outcome)
                outcomes.append(outcome)
            times, counts = tracer.summarize(mark)
        finally:
            tracer.uninstall()
        passes.append((outcomes, times, counts))
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.npz")

    for p, (_, _, counts) in enumerate(passes[1:], start=1):
        if counts != passes[0][2]:
            diff = sorted(k for k in set(counts) | set(passes[0][2])
                          if counts.get(k) != passes[0][2].get(k))
            run.broken.append(f"traced pass {p} counts differ from pass 0 in {diff}")
    per_pass = [layer_metrics(times, counts, len(ops), ref_s, sum(o.seconds for o in outs))
                for ref_s, (outs, times, counts) in zip(untraced_s, passes)]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    notes = [f"passes: {len(passes)} untraced and {len(passes)} traced of {len(ops)} ops; "
             f"{len(tracer.start)} spans written to {OUT.relative_to(ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    pkg = load_package()
    tmp = ROOT / WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # verify's round-trip files stay in the checkout
    wl = workloads.WORKLOADS[args.workload](pkg, args.seed, WORK)
    workloads.warm_up(pkg, WORK)
    setup = perf_counter() - _START
    if args.setup_probe:
        print(repr(setup))
        return 0

    run = Run()
    try:
        if args.trace:
            setup_samples = [setup]
            metrics, notes = traced_run(wl, pkg, args.seconds, run)
        else:
            setup_samples = [setup] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics, notes = timed_run(wl, args.seconds, run)
            metrics["setup_s"] = statistics.median(setup_samples)
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)

    failed = len(run.failures)
    units = END_TO_END_UNITS if not args.trace else {k: layer_unit(k) for k in metrics}
    result = {
        "correct": not run.broken,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup_samples_s": setup_samples, "fail_frac": failed / run.attempted,
        "failures": run.failures, "broken": run.broken, "notes": notes,
        "digest": workloads.digest(*(d.encode() for d in run.digests)), "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
    for k, v in result["metrics"].items():
        print(f"metric {k} = {v['value']!r} {v['unit']}")
    print(f"metric fail_frac = {failed / run.attempted!r} ({failed} of {run.attempted} ops)")
    for failure in run.failures:
        print(f"failed op: {json.dumps(failure, sort_keys=True)}")
    for problem in run.broken:
        print(f"INCORRECT: {problem}")
    print(f"output digest: {record['digest']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
