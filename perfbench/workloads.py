"""The benchmark's workloads: how each op's inputs derive from the seed, what
one op runs, and the checks its outputs must pass.

Every op returns an :class:`Outcome`: the seconds spent inside the program,
the checks it missed (counted as a failed op), any breach of the benchmark's
own guards (which make the whole run incorrect), and a digest of its outputs
for the determinism check.  The benchmark's checks run with tracing paused, so
they add neither time nor counts to the program's layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np


@dataclass
class Outcome:
    seconds: float
    digest: str
    problems: list[str] = field(default_factory=list)
    broken: list[str] = field(default_factory=list)


def derive_seed(*key: int) -> int:
    """A 64-bit op seed drawn from the workload seed and the op's key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def run_cli(pkg, argv: list[str]) -> tuple[int, str, str, float]:
    """``dln <argv>`` in process: exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = pkg.cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


class Verify:
    """``dln verify --seed s``: the self-check suite users run."""

    name = "verify"
    # trials=4 fixes every section's check count.  A run whose report lists
    # other sections or counts is refused, so a change cannot look faster by
    # checking less.
    SECTIONS = (
        ("loss_contract", 8),
        ("layer_gradients_vs_fd", 11),
        ("product_invariance", 12),
        ("escape_and_descent", 4),
        ("canonical_plateau", 1),
        ("lift_exactness", 4),
        ("trainer_vs_oracle", 4),
        ("oracle_vs_restarts", 4),
        ("determinism_roundtrip", 12),
    )
    SECTION_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+) \((\d+) checks\): ", re.MULTILINE)
    TRACE_OPS = 1

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.seed = seed

    def inputs(self, i: int) -> dict:
        return {"seed": derive_seed(1, self.seed, i)}

    def execute(self, inp: dict, tracer) -> Outcome:
        code, out, err, seconds = run_cli(self.pkg, ["verify", "--seed", str(inp["seed"])])
        outcome = Outcome(seconds, digest(out.encode()))
        if code != 0:
            outcome.problems.append(f"exit code {code}: {err.strip()[-300:]}")
        lines = out.splitlines()
        sections = self.SECTION_LINE.findall(out)
        if not lines or lines[-1] != "overall: PASS":
            failing = [n for s, n, _ in sections if s == "FAIL"]
            outcome.problems.append(f"report does not end in 'overall: PASS'; failing {failing}")
        listed = tuple((n, int(c)) for _, n, c in sections)
        # A suite that stopped before its report is a failed op; a report
        # that lists other sections or counts breaks the guard.
        if lines and lines[-1].startswith("overall: ") and listed != self.SECTIONS:
            outcome.broken.append(f"verify sections {listed} differ from {self.SECTIONS}")
        return outcome


class PlateauEscape:
    """Escape-then-descend on a constructed rank-deficient plateau."""

    name = "plateau_escape"
    WIDTH = 32
    BOTTLENECK = 8
    DEPTHS = (16, 32, 64)
    LOSSES = ("quadratic", "logcosh")
    TRACE_OPS = len(DEPTHS) * len(LOSSES)

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.seed = seed
        self.tols = pkg.linalg.Tolerances()

    def inputs(self, i: int) -> dict:
        return {
            "depth": self.DEPTHS[i % len(self.DEPTHS)],
            "loss": self.LOSSES[i % len(self.LOSSES)],
            "seed": derive_seed(2, self.seed, i),
        }

    def execute(self, inp: dict, tracer) -> Outcome:
        pkg, tols = self.pkg, self.tols
        depth = inp["depth"]
        dims = [self.WIDTH] * (depth + 1)
        dims[depth // 2] = self.BOTTLENECK
        spec = pkg.harness.InstanceSpec(dims=tuple(dims), construction="rank_deficient_plateau",
                                        loss_kind=inp["loss"], seed=inp["seed"])
        start = perf_counter()
        inst = pkg.harness.gen_instance(spec)
        report = pkg.analyze.classify(inst.chain, inst.loss)
        seconds = perf_counter() - start

        problems = []
        with tracer.paused():
            label = report.label.value
            cert = report.escape
            if label != "escapable_plateau" or cert is None:
                problems.append(f"label {label}")
                out_digest = digest(label.encode())
            else:
                meta = pkg.storage.certificate_to_dict(cert)
                out_digest = digest(label.encode(), json.dumps(meta, sort_keys=True).encode())
                before = pkg.network.chain_loss(inst.chain, inst.loss)
                after = pkg.network.chain_loss(cert.perturbed_chain, inst.loss)
                if not abs(after - before) <= tols.invariance_tol * (1.0 + abs(before)):
                    problems.append(f"perturbation moved the loss from {before!r} to {after!r}")
                above, below = pkg.analyze.super_gradients(cert.perturbed_chain, inst.loss)
                norm = float(np.hypot(np.linalg.norm(above), np.linalg.norm(below)))
                if not norm > tols.grad_tol:
                    problems.append(f"super-layer gradient {norm!r} not above grad_tol")

        start = perf_counter()
        try:
            pkg.analyze.descent_search(inst.chain, inst.loss, report, budget=25)
        except pkg.analyze.DescentNotFoundError as exc:
            problems.append(f"descent_search: {exc}")
        finally:
            seconds += perf_counter() - start
        return Outcome(seconds, out_digest, problems)


def pipeline(work: str, dims: str, plateau_seed: int, generic_seed: int,
             train_steps: str) -> list[list[str]]:
    """The ``dln`` argument lists of one pipeline op, writing under ``work``."""
    return [
        ["gen", "--dims", dims, "--construction", "rank_deficient_plateau",
         "--seed", str(plateau_seed), "--out", f"{work}/plateau"],
        ["analyze", f"{work}/plateau", "--format", "json"],
        ["perturb", f"{work}/plateau", "--out", f"{work}/cert"],
        ["gen", "--dims", dims, "--seed", str(generic_seed), "--out", f"{work}/generic"],
        ["train", f"{work}/generic", "--max-steps", train_steps, "--out", f"{work}/traj.csv",
         "--final-dir", f"{work}/trained"],
        ["oracle", f"{work}/trained"],
    ]


class CliPipeline:
    """``gen -> analyze -> perturb`` and ``gen -> train -> oracle`` through ``dln``."""

    name = "cli_pipeline"
    DIMS = "128,192,64,192,128"
    TRAIN_STEPS = "100"
    TRACE_OPS = 2

    def __init__(self, pkg, seed: int, workdir: Path) -> None:
        self.pkg = pkg
        self.seed = seed
        self.tols = pkg.linalg.Tolerances()
        # Relative to the checkout root, so paths echoed on stdout and stored
        # in manifests are the same in every run and every checkout.
        self.work = workdir / self.name

    def inputs(self, i: int) -> dict:
        return {"plateau_seed": derive_seed(3, self.seed, i, 0),
                "generic_seed": derive_seed(3, self.seed, i, 1)}

    def execute(self, inp: dict, tracer) -> Outcome:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        seconds = 0.0
        stdout: list[str] = []
        problems = []
        for argv in pipeline(self.work.as_posix(), self.DIMS, inp["plateau_seed"],
                             inp["generic_seed"], self.TRAIN_STEPS):
            code, out, err, took = run_cli(self.pkg, argv)
            seconds += took
            stdout.append(out)
            if code != 0:
                problems.append(f"dln {argv[0]} exited {code}: {err.strip()[-300:]}")
                break
        with tracer.paused():
            files = sorted(p for p in self.work.rglob("*") if p.is_file())
            out_digest = digest(*(s.encode() for s in stdout),
                                *(p.relative_to(self.work).as_posix().encode() + b"\0"
                                  + p.read_bytes() for p in files))
            if not problems:
                problems = self.check(stdout)
        return Outcome(seconds, out_digest, problems)

    def check(self, stdout: list[str]) -> list[str]:
        pkg, tols, w = self.pkg, self.tols, self.work
        analyze_out, oracle_out = stdout[1], stdout[5]
        problems = []
        label = json.loads(analyze_out)["label"]
        if label != "escapable_plateau":
            problems.append(f"analyze labelled the plateau {label}")
        chain, loss, _ = pkg.storage.load_instance(w / "plateau")
        before = pkg.network.chain_loss(chain, loss)
        after = pkg.network.chain_loss(pkg.storage.load_chain(w / "cert"), loss)
        if not abs(after - before) <= tols.invariance_tol * (1.0 + abs(before)):
            problems.append(f"stored certificate moved the loss from {before!r} to {after!r}")
        losses = [p.loss for p in pkg.storage.load_trajectory_csv(w / "traj.csv")]
        if not losses or any(b > a for a, b in zip(losses, losses[1:])):
            problems.append("trajectory loss is empty or increases")
        fields = dict(line.split(": ", 1) for line in oracle_out.splitlines())
        gap, best = float(fields["gap"]), float(fields["oracle_loss"])
        if not gap >= -1e-9 * (1.0 + abs(best)):
            problems.append(f"oracle gap {gap!r} below the trained chain")
        return problems


WORKLOADS = {w.name: w for w in (Verify, PlateauEscape, CliPipeline)}


def warm_up(pkg, workdir: Path) -> None:
    """Touch every layer once at a small size before the first timed op."""
    work = (workdir / "warmup").as_posix()
    shutil.rmtree(work, ignore_errors=True)
    for argv in pipeline(work, "3,4,2,4,3", 1, 2, "20"):
        code, _, err, _ = run_cli(pkg, argv)
        if code != 0:
            raise RuntimeError(f"warm-up 'dln {' '.join(argv)}' exited {code}: {err.strip()}")
    shutil.rmtree(work, ignore_errors=True)
    spec = pkg.harness.InstanceSpec(dims=(8, 8, 4, 8, 8), construction="rank_deficient_plateau",
                                    seed=3)
    inst = pkg.harness.gen_instance(spec)
    report = pkg.analyze.classify(inst.chain, inst.loss)
    pkg.analyze.descent_search(inst.chain, inst.loss, report, budget=25)
