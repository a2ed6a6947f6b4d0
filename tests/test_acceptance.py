"""End-to-end acceptance gate for the package.

Eight independent criteria, each reported as one printed ``[PASS]``/``[FAIL]``
line (run with ``pytest tests/test_acceptance.py -s`` to watch them land).
Each criterion states its own sample count, tolerance, and — where it matters —
wall-clock budget.  The whole file takes under half a minute on two cores;
everything is seeded, so reruns are bit-for-bit identical.

Criteria 1 and 3–8 run the same cores as the matching ``dln verify``
sections, at their own seeds, sample counts and probes, so each check has
one implementation: 7 runs the restart core of the oracle-vs-restarts
section and 8 its CSV round-trip core.  Criterion 2 tests a different thing
from its verify namesake.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import dln_landscape
from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import InstanceSpec, gen_instance, stream
from dln_landscape.linalg import best_rank_approx
from dln_landscape.network import (
    FactorChain,
    QuadraticLoss,
    bottleneck_split,
    chain_loss,
    end_to_end,
)
from dln_landscape.optim import STATUS_CRITICAL
from dln_landscape.oracle import rrr_oracle
from dln_landscape.perturb import RankOnePerturbation, apply_family, kernel_family
from dln_landscape.verify import (
    _csv_round_trip,
    _escape_and_descend,
    _gradient_checks,
    _lift_outcomes,
    _oracle_runs,
    _restart_best,
    _section_canonical_plateau,
)

_PLATEAU_DIMS = (
    (2, 1, 1, 2),
    (3, 4, 2, 4, 3),
    (2, 3, 1, 4, 2),
    (3, 2, 3),
    (4, 2, 5, 3, 4),
    (5, 3, 2, 4, 6),
)
_WIDE_BOTTLENECK_DIMS = (
    (3, 4, 2, 4, 3),
    (4, 2, 5, 3, 4),
    (5, 3, 2, 4, 6),
    (3, 2, 3),
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num} ({name}): {detail}"
    print(line, flush=True)
    assert ok, line


def test_acceptance_1_layer_gradients_match_finite_differences():
    started = time.perf_counter()
    dims_rng = stream(101, 0)
    specs = []
    for i in range(200):
        k = int(dims_rng.integers(2, 6))
        dims = tuple(int(dims_rng.integers(1, 9)) for _ in range(k + 1))
        loss_kind = "quadratic" if i % 2 == 0 else "logcosh"
        specs.append(InstanceSpec(dims=dims, loss_kind=loss_kind, seed=20000 + i))
    results = list(_gradient_checks(specs))
    mismatches = [(spec, layer) for spec, layer, _, agrees in results if not agrees]
    for spec, layer in mismatches:
        print(f"  mismatch: dims={spec.dims} loss={spec.loss_kind} layer={layer}")
    worst = max(scaled for _, _, scaled, _ in results)
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    _verdict(
        1,
        "layer gradients vs central finite differences",
        ok,
        f"{len(results)} layer checks over 200 instances, {len(mismatches)} mismatches, "
        f"worst scaled deviation {worst:.2e}, {elapsed:.1f}s (budget 60s)",
    )


def test_acceptance_2_rank_one_family_preserves_product_and_loss():
    deltas = (1e-1, 1e-3, 1e-6)
    violations = 0
    checks = 0
    worst_product = 0.0
    worst_loss = 0.0
    for i in range(500):
        loss_kind = "quadratic" if i % 4 < 2 else "logcosh"
        if i % 2 == 0:
            dims = _PLATEAU_DIMS[(i // 2) % len(_PLATEAU_DIMS)]
            inst = gen_instance(
                InstanceSpec(
                    dims=dims,
                    construction="rank_deficient_plateau",
                    loss_kind=loss_kind,
                    seed=70000 + i,
                )
            )
            chain, loss = inst.chain, inst.loss
        else:
            dims = _WIDE_BOTTLENECK_DIMS[(i // 2) % len(_WIDE_BOTTLENECK_DIMS)]
            inst = gen_instance(
                InstanceSpec(dims=dims, loss_kind=loss_kind, seed=70000 + i)
            )
            chain, loss = inst.chain, inst.loss
            split = bottleneck_split(chain)
            top = chain.factor(chain.k)
            chain = chain.with_factor(chain.k, best_rank_approx(top, split.width - 1))
        split = bottleneck_split(chain)
        ws = kernel_family(chain, split)
        product = end_to_end(chain)
        value = chain_loss(chain, loss)
        directions = stream(70000 + i, 9)
        for delta in deltas:
            perturbations = tuple(
                RankOnePerturbation(
                    layer=layer,
                    w=ws[layer - 1],
                    v=delta * directions.standard_normal(chain.factor(layer).shape[1]),
                )
                for layer in range(1, split.index + 1)
            )
            perturbed = apply_family(chain, perturbations)
            drift = float(np.linalg.norm(end_to_end(perturbed) - product))
            change = abs(chain_loss(perturbed, loss) - value)
            product_bound = 1e-9 * (1.0 + float(np.linalg.norm(product)))
            loss_bound = 1e-9 * (1.0 + abs(value))
            worst_product = max(worst_product, drift / product_bound)
            worst_loss = max(worst_loss, change / loss_bound)
            if drift > product_bound or change > loss_bound:
                violations += 1
            checks += 1
    ok = violations == 0
    _verdict(
        2,
        "kernel rank-one families leave product and loss unchanged",
        ok,
        f"{checks} perturbed chains (500 instances x 3 scales), {violations} "
        f"violations, worst product drift {worst_product:.2e} and loss drift "
        f"{worst_loss:.2e} as fractions of their bounds",
    )


def test_acceptance_3_constructed_plateaus_escape_and_descend():
    started = time.perf_counter()
    instances = [
        gen_instance(
            InstanceSpec(
                dims=_PLATEAU_DIMS[i % len(_PLATEAU_DIMS)],
                construction="rank_deficient_plateau",
                loss_kind="quadratic" if i % 2 == 0 else "logcosh",
                seed=30000 + i,
            )
        )
        for i in range(500)
    ]
    outcomes = _escape_and_descend([(inst.chain, inst.loss) for inst in instances], 500)
    successes = 0
    failures = []
    construction_failed = False
    for i, (report, after, error) in enumerate(outcomes):
        where = (i, instances[i].spec.dims, instances[i].spec.loss_kind)
        if report is None:
            construction_failed = True
            failures.append((*where, "construction", error))
        elif report.label is not Classification.ESCAPABLE_PLATEAU or report.escape is None:
            failures.append((*where, "label", report.label.value))
        elif abs(report.escape.loss_delta) > 1e-9 * (1.0 + abs(report.loss)):
            failures.append((*where, "loss_delta", report.escape.loss_delta))
        elif not report.escape.super_gradient_norm > 1e-8:
            failures.append((*where, "super_gradient", report.escape.super_gradient_norm))
        elif error:
            failures.append((*where, "descent", error))
        elif after < report.loss:
            successes += 1
        else:
            failures.append((*where, "no_strict_drop", None))
    elapsed = time.perf_counter() - started
    for f in failures:
        print(f"  escape failure: {f}")
    ok = successes >= 495 and not construction_failed and elapsed < 300.0
    _verdict(
        3,
        "constructed rank-deficient critical points escape and descend",
        ok,
        f"{successes}/500 escaped with a strict loss drop within 500 descent "
        f"steps ({len(failures)} failures logged), {elapsed:.1f}s (budget 300s)",
    )


def test_acceptance_4_closed_form_plateau_fixture():
    section = _section_canonical_plateau(0, 1)
    _verdict(4, "hand-traced width-1 plateau fixture is exact", section.passed, section.detail)


def test_acceptance_5_boundary_layer_lift_is_exact():
    scales = stream(505, 0)
    cases = [
        (InstanceSpec(dims=_WIDE_BOTTLENECK_DIMS[i % len(_WIDE_BOTTLENECK_DIMS)], seed=80000 + i), "above")
        for i in range(200)
    ]

    def draw(t, spec, shape):
        return 10.0 ** scales.uniform(-3.0, 2.0) * scales.standard_normal(shape)

    violations = 0
    worst = 0.0
    for (spec, _), outcome in zip(cases, _lift_outcomes(cases, draw)):
        layer, err, target_norm, update_norm, amplification = outcome
        assert layer == len(spec.dims) - 1
        bound = 1e-9 * target_norm
        worst = max(worst, err / bound)
        ratio = update_norm / target_norm
        if (
            err > bound
            or not np.isfinite(amplification)
            or abs(amplification - ratio) > 1e-12 * max(1.0, amplification)
        ):
            violations += 1
    ok = violations == 0
    _verdict(
        5,
        "top-layer updates realize upper super-layer changes exactly",
        ok,
        f"200 lifted targets across {len(_WIDE_BOTTLENECK_DIMS)} shapes, "
        f"{violations} violations, worst error {worst:.2e} of its 1e-9*|D| bound",
    )


def test_acceptance_6_gradient_descent_reaches_the_oracle():
    started = time.perf_counter()
    runs = 200
    seeds = [40000 + i for i in range(runs)]
    near = 0
    unexplained = []
    worst_rel = 0.0
    for i, (loss, result, oracle, is_near) in enumerate(_oracle_runs(seeds)):
        final = result.loss
        worst_rel = max(worst_rel, (final - oracle) / (1.0 + abs(oracle)))
        near += is_near
        if result.status == STATUS_CRITICAL and final > oracle + 1e-3 * (1.0 + abs(oracle)):
            label = classify(FactorChain(tuple(result.factors)), loss).label
            if label not in (
                Classification.ESCAPABLE_PLATEAU,
                Classification.REDUCIBLE_FULL_RANK,
            ):
                unexplained.append((i, final, oracle, label.value))
    elapsed = time.perf_counter() - started
    for u in unexplained:
        print(f"  unexplained stall: {u}")
    ok = near >= int(np.ceil(0.95 * runs)) and not unexplained and elapsed < 600.0
    _verdict(
        6,
        "seeded descent matches the closed-form rank-constrained optimum",
        ok,
        f"{near}/{runs} runs within 1e-5 relative of the oracle "
        f"(worst relative gap {worst_rel:.2e}), {len(unexplained)} unexplained "
        f"high-loss stalls, {elapsed:.0f}s (budget 600s)",
    )


def test_acceptance_7_oracle_agrees_with_restarted_descent():
    worst = 0.0
    disagreements = 0
    for t in range(20):
        data = stream(50000 + t, 1)
        d_in, d_out = int(data.integers(2, 7)), int(data.integers(2, 7))
        width = int(data.integers(1, min(d_in, d_out)))
        n = 2 * d_in
        inputs = data.standard_normal((d_in, n))
        targets = data.standard_normal((d_out, n))
        fit = rrr_oracle(inputs, targets, width)
        loss = QuadraticLoss(inputs, targets)
        inits = (
            gen_instance(InstanceSpec(dims=(d_in, width, d_out), seed=60000 + 100 * t + r)).chain
            for r in range(50)
        )
        best = _restart_best(loss, inits, 1000, 1e-8)
        gap = abs(best - fit.loss) / (1.0 + abs(fit.loss))
        worst = max(worst, gap)
        if gap > 1e-6:
            disagreements += 1
            print(f"  triple {t}: dims ({d_in},{width},{d_out}) gap {gap:.2e}")
    ok = disagreements == 0
    _verdict(
        7,
        "closed-form optimum agrees with 50-restart descent",
        ok,
        f"20 data sets, {disagreements} disagreements, worst relative gap {worst:.2e}",
    )


def test_acceptance_8_determinism_of_verify_and_csv(tmp_path):
    exe = shutil.which("dln")
    base = [exe] if exe else [sys.executable, "-m", "dln_landscape.cli"]
    # The subprocess imports the package this test imported, also from a
    # checkout where it is not installed.
    env = {**os.environ, "PYTHONPATH": str(Path(dln_landscape.__file__).resolve().parents[1])}
    outputs = []
    codes = []
    for _ in range(2):
        proc = subprocess.run(
            base + ["verify", "--seed", "42"],
            capture_output=True,
            timeout=600,
            env=env,
        )
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    identical = outputs[0] == outputs[1]
    clean = codes == [0, 0]

    probe = stream(8, 8).standard_normal((5, 4))
    probe[0, 0] = -0.0
    probe[1, 1] = 5e-324
    probe[2, 2] = -1e300
    probe[3, 3] = 1e-300
    csv_stable = not _csv_round_trip(probe, tmp_path)

    ok = identical and clean and csv_stable
    _verdict(
        8,
        "seeded verification and CSV storage are bitwise stable",
        ok,
        f"two `verify --seed 42` runs: exit codes {codes}, stdout identical: "
        f"{identical} ({len(outputs[0])} bytes); CSV round-trip bitwise stable: "
        f"{csv_stable}",
    )
