"""Self-contained verification suite with a deterministic report.

``verify_suite(seed, trials)`` runs nine independent sections covering the
package's core contracts: loss derivatives, layer gradients, loss-preserving
perturbations, escape-then-descend, the exactly-solvable reference plateau,
boundary-layer lifts, full-chain training against the closed-form
rank-constrained oracle, the oracle against restarted two-layer descent, and
bit-level determinism of generation and file round-trips.

The suite runs at the package's default tolerances, so the rendered report
is a pure function of ``(seed, trials)`` on a given platform: no
timestamps, no paths, no iteration-order dependence.  Running
the suite twice with the same arguments must produce identical bytes, and
that property is itself checked by the test suite.  The acceptance tests
run the cores of the sections they share (``_gradient_checks``,
``_escape_and_descend``, ``_lift_outcomes``, ``_oracle_runs``,
``_restart_best``, ``_csv_round_trip``) at their own seeds and probes.
The oracle and restart descents run from the balanced gauge at the
bottleneck cut (``_balanced_descent``), which changes no product but keeps
descent from crawling where one super layer is weak.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import network
from .analyze import Classification, DescentNotFoundError, classify, descent_search
from .harness import InstanceSpec, gen_instance, stream, train_gd
from .linalg import DEFAULT_GRAD_TOL, DEFAULT_INVARIANCE_TOL
from .network import (
    FactorChain,
    LogCoshLoss,
    QuadraticLoss,
    balance_gauge,
    chain_loss,
    end_to_end,
    partial_product,
    split_or_raise,
    validate_loss_contract,
)
from .optim import STATUS_BUDGET, STATUS_CRITICAL, GDResult, armijo_gd
from .oracle import finite_diff_gradient, rrr_oracle
from .perturb import ConstructionFailedError, escape_construction, lift_perturbation
from .storage import (
    fmt_float,
    json_text,
    load_matrix_csv,
    load_trajectory_csv,
    save_matrix_csv,
    save_trajectory_csv,
)

__all__ = [
    "SectionResult",
    "VerifyReport",
    "verify_suite",
    "canonical_plateau",
    "render_verify_text",
    "render_verify_json",
]

# Verification draws its instance seeds from streams keyed by a single
# integer (one per section), disjoint by construction from the
# (role, index) pairs instance generation uses under each instance seed.
_SECTION_KEY_BASE = 100


@dataclass(frozen=True)
class SectionResult:
    name: str
    passed: bool
    checks: int
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    trials: int
    sections: tuple[SectionResult, ...]
    warning: str | None = None

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.sections)


def canonical_plateau() -> tuple[FactorChain, QuadraticLoss]:
    """The exactly-solvable reference plateau used as a ground-truth anchor.

    Widths 2-1-1-2 with the two inner layers zero and the outer layer an
    identity embedding, fitting the identity on identity inputs.  Every
    quantity of interest has a closed form: loss 2, all layer gradients 0,
    convex gradient -2*I, and the escape construction produces a single
    rank-one perturbation of the first layer with certificate norm exactly
    twice the perturbation scale.
    """
    chain = FactorChain(
        (
            np.zeros((1, 2)),
            np.zeros((1, 1)),
            np.eye(2, 1),
        )
    )
    loss = QuadraticLoss(np.eye(2), np.eye(2))
    return chain, loss


# ---------------------------------------------------------------------------
# section helpers


def _instance_seeds(seed: int, section: int, count: int) -> list[int]:
    rng = stream(seed, _SECTION_KEY_BASE + section)
    return [int(s) for s in rng.integers(0, 2**63, size=count)]


_FD_SPECS = (
    ((2, 3, 2), "quadratic"),
    ((3, 2, 4), "logcosh"),
    ((2, 1, 1, 2), "quadratic"),
    ((3, 4, 2, 4, 3), "quadratic"),
    ((4, 3, 5), "logcosh"),
)

_PLATEAU_DIMS = (
    (2, 1, 1, 2),
    (3, 4, 2, 4, 3),
    (2, 3, 1, 4, 2),
    (3, 2, 3),
)

_LIFT_DIMS = (
    (3, 4, 2, 4, 3),
    (2, 3, 1, 4, 2),
    (3, 2, 3),
    (4, 2, 3, 5),
)

_RESTART_TRIPLES = (
    (3, 1, 3),
    (4, 2, 3),
    (5, 2, 4),
    (3, 2, 6),
)

_TRAINER_DIMS = (3, 4, 2, 4, 3)


def _section_loss_contract(seed: int, trials: int) -> SectionResult:
    checks = 0
    for t, inst_seed in enumerate(_instance_seeds(seed, 1, trials)):
        data = stream(inst_seed, _SECTION_KEY_BASE + 1, t)
        rows, cols, n = 3, 2, 5
        losses = [
            QuadraticLoss(data.standard_normal((cols, n)), data.standard_normal((rows, n))),
            LogCoshLoss(data.standard_normal((rows, cols))),
        ]
        for loss in losses:
            validate_loss_contract(loss, stream(inst_seed, _SECTION_KEY_BASE + 1, t, 1))
            checks += 1
    return SectionResult(
        "loss_contract", True, checks, f"{checks} losses satisfied the derivative and convexity contract"
    )


def _gradient_checks(specs):
    """Yield ``(spec, layer, scaled deviation, agrees)`` for every layer
    gradient of every generated instance against central differences."""
    for spec in specs:
        inst = gen_instance(spec)
        # Deliberately resolved through the module so a monkeypatched
        # gradient routine is caught by this suite.
        grads = network.layer_gradients(inst.chain, inst.loss)
        for layer in range(1, inst.chain.k + 1):
            fd = finite_diff_gradient(inst.chain, inst.loss, layer)
            g = grads[layer - 1]
            scaled = float(np.max(np.abs(g - fd))) / (1.0 + float(np.max(np.abs(fd))))
            yield spec, layer, scaled, np.allclose(g, fd, rtol=1e-5, atol=1e-8)


def _section_layer_gradients(seed: int, trials: int) -> SectionResult:
    specs = []
    for t, inst_seed in enumerate(_instance_seeds(seed, 2, trials)):
        dims, kind = _FD_SPECS[t % len(_FD_SPECS)]
        specs.append(InstanceSpec(dims=dims, loss_kind=kind, seed=inst_seed))
    results = list(_gradient_checks(specs))
    checks = len(results)
    failures = sum(not agrees for *_, agrees in results)
    worst = max([0.0, *(scaled for _, _, scaled, _ in results)])
    return SectionResult(
        "layer_gradients_vs_fd",
        failures == 0,
        checks,
        f"{failures} of {checks} layer gradients disagreed with central "
        f"differences; worst scaled deviation {fmt_float(worst)}",
    )


def _section_product_invariance(seed: int, trials: int) -> SectionResult:
    checks = 0
    failures = 0
    errors: list[str] = []
    worst = 0.0
    seeds = _instance_seeds(seed, 3, trials)
    for t, inst_seed in enumerate(seeds):
        dims = _PLATEAU_DIMS[t % len(_PLATEAU_DIMS)]
        kind = "logcosh" if t % 3 == 2 else "quadratic"
        inst = gen_instance(
            InstanceSpec(dims=dims, construction="rank_deficient_plateau", loss_kind=kind, seed=inst_seed)
        )
        product = end_to_end(inst.chain)
        bound_scale = 1.0 + float(np.linalg.norm(product))
        for delta in (1e-1, 1e-3, 1e-6):
            checks += 1
            try:
                cert = escape_construction(inst.chain, inst.loss, delta=delta)
            except ConstructionFailedError as exc:
                errors.append(f"construction failed at delta {fmt_float(delta)} on trial {t}: {exc}")
                continue
            drift = float(
                np.linalg.norm(end_to_end(cert.perturbed_chain) - product)
            )
            worst = max(worst, drift / bound_scale)
            if drift > DEFAULT_INVARIANCE_TOL * bound_scale:
                failures += 1
    detail = (
        f"{failures} of {checks} perturbed chains moved the end-to-end "
        f"product; worst relative drift {fmt_float(worst)}"
    )
    passed = failures == 0 and not errors
    return SectionResult("product_invariance", passed, checks, "; ".join([detail, *errors]))


def _escape_and_descend(problems, budget: int):
    """Yield ``(report, after, error)`` per ``(chain, loss)``: its
    classification (None when the escape construction failed), the loss a
    descent search from an escapable plateau reached, and why the
    construction or the search failed."""
    for chain, loss in problems:
        report = after = error = None
        try:
            report = classify(chain, loss)
            if report.label is Classification.ESCAPABLE_PLATEAU:
                after = chain_loss(descent_search(chain, loss, report, budget=budget), loss)
        except (ConstructionFailedError, DescentNotFoundError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        yield report, after, error


def _section_escape_and_descent(seed: int, trials: int) -> SectionResult:
    problems = []
    for t, inst_seed in enumerate(_instance_seeds(seed, 4, trials)):
        dims = _PLATEAU_DIMS[t % len(_PLATEAU_DIMS)]
        kind = "logcosh" if t % 2 == 1 else "quadratic"
        inst = gen_instance(
            InstanceSpec(dims=dims, construction="rank_deficient_plateau", loss_kind=kind, seed=inst_seed)
        )
        problems.append((inst.chain, inst.loss))
    outcomes = list(_escape_and_descend(problems, 500))
    checks = len(outcomes)
    failures = sum(after is None or not after < report.loss for report, after, _ in outcomes)
    detail = (
        f"{failures} of {checks} constructed plateaus failed to classify as "
        "escapable and then strictly descend within 500 steps"
    )
    errors = [f"trial {t}: {error}" for t, (_, _, error) in enumerate(outcomes) if error]
    return SectionResult("escape_and_descent", failures == 0, checks, "; ".join([detail, *errors]))


def _section_canonical_plateau(seed: int, trials: int) -> SectionResult:
    chain, loss = canonical_plateau()
    problems: list[str] = []
    value = chain_loss(chain, loss)
    if value != 2.0:
        problems.append(f"loss {fmt_float(value)} != 2")
    grads = network.layer_gradients(chain, loss)
    if any(float(np.linalg.norm(g)) != 0.0 for g in grads):
        problems.append("layer gradients not exactly zero")
    convex_norm = float(np.linalg.norm(loss.gradient(end_to_end(chain))))
    if convex_norm != 2.0 * np.sqrt(2.0):
        problems.append(f"convex gradient norm {fmt_float(convex_norm)} != 2*sqrt(2)")

    [(report, after, error)] = _escape_and_descend([(chain, loss)], 500)
    if report is not None:
        if report.label is not Classification.ESCAPABLE_PLATEAU:
            problems.append(f"label {report.label.value}")
        if report.split_index != 1:
            problems.append(f"split index {report.split_index} != 1")
        cert = report.escape
        if cert is None:
            problems.append("no escape certificate")
        else:
            delta = cert.delta
            expected_delta = 1e-3 * (1.0 + 1.0)
            if delta != expected_delta:
                problems.append(f"delta {fmt_float(delta)} != {fmt_float(expected_delta)}")
            if cert.side != "below":
                problems.append(f"side {cert.side!r}")
            if cert.containment_start != 1:
                problems.append(f"containment start {cert.containment_start} != 1")
            if cert.witness_row != 0:
                problems.append(f"witness row {cert.witness_row} != 0")
            if not np.array_equal(cert.perturbed_chain.factor(1), [[delta, 0.0]]):
                problems.append("perturbed first layer is not [[delta, 0]]")
            if cert.loss_delta != 0.0:
                problems.append(f"loss delta {fmt_float(cert.loss_delta)} != 0")
            if abs(cert.super_gradient_norm - 2.0 * delta) > 1e-12:
                problems.append(
                    f"certificate norm {fmt_float(cert.super_gradient_norm)} not 2*delta"
                )
    if error:
        problems.append(error)
    elif after is not None and not after < 2.0 - 1e-3:
        problems.append(f"descent reached only {fmt_float(after)}")
    passed = not problems
    detail = (
        "all closed-form quantities matched exactly and descent cleared 2 - 1e-3"
        if passed
        else "; ".join(problems)
    )
    return SectionResult("canonical_plateau", passed, 1, detail)


def _lift_outcomes(cases, draw_target):
    """Yield ``(layer, error, |target|, |update|, amplification)`` per
    ``(spec, side)`` case: the boundary-layer lift of the super-layer change
    ``draw_target(t, spec, shape)`` and how far the edited chain misses it."""
    for t, (spec, side) in enumerate(cases):
        inst = gen_instance(spec)
        split = split_or_raise(inst.chain)
        shape = split.above.shape if side == "above" else split.below.shape
        target = draw_target(t, spec, shape)
        layer, update, amplification = lift_perturbation(inst.chain, split, target, side=side)
        edited = inst.chain.with_factor(layer, inst.chain.factor(layer) + update)
        if side == "above":
            achieved = partial_product(edited, split.index + 1, edited.k) - split.above
        else:
            achieved = partial_product(edited, 1, split.index) - split.below
        err = float(np.linalg.norm(achieved - target))
        yield layer, err, float(np.linalg.norm(target)), float(np.linalg.norm(update)), amplification


def _section_lift_exactness(seed: int, trials: int) -> SectionResult:
    cases = [
        (InstanceSpec(dims=_LIFT_DIMS[t % len(_LIFT_DIMS)], seed=s), "above" if t % 2 == 0 else "below")
        for t, s in enumerate(_instance_seeds(seed, 6, trials))
    ]

    def draw(t: int, spec: InstanceSpec, shape) -> np.ndarray:
        return stream(spec.seed, _SECTION_KEY_BASE + 6, t).standard_normal(shape)

    outcomes = list(_lift_outcomes(cases, draw))
    checks = len(outcomes)
    failures = sum(err > 1e-9 * norm for _, err, norm, _, _ in outcomes)
    worst = max([0.0, *(err / max(norm, 1e-300) for _, err, norm, _, _ in outcomes)])
    return SectionResult(
        "lift_exactness",
        failures == 0,
        checks,
        f"{failures} of {checks} boundary-layer lifts missed the requested "
        f"super-layer change; worst relative error {fmt_float(worst)}",
    )


# Accepted steps between two returns of a balanced descent to the balanced
# gauge.  Large early steps can leave one super layer weak again: on 3,000
# section-7 instances (1,500 each from `stream(2028, 999)` and
# `stream(2030, 999)`) a single balancing at the start missed the oracle once
# and ran past 2,000 steps 10 times, while re-balancing every 25 steps
# missed none and never took 1,000.
_REBALANCE_STEPS = 25


def _balanced_descent(factors, loss, max_steps: int, stop_grad_tol: float) -> GDResult:
    """Full-chain :func:`~dln_landscape.optim.armijo_gd` that starts from
    the balanced gauge at the bottleneck cut
    (:func:`~dln_landscape.network.balance_gauge`, same product) and returns
    to it every ``_REBALANCE_STEPS`` accepted steps; ``steps`` of the result
    counts every step taken."""
    steps = 0
    while True:
        chunk = min(_REBALANCE_STEPS, max_steps - steps)
        result = armijo_gd(balance_gauge(factors), loss, range(1, len(factors) + 1), chunk, stop_grad_tol)
        steps += result.steps
        if result.status != STATUS_BUDGET or steps >= max_steps:
            return replace(result, steps=steps)
        factors = result.factors


def _oracle_runs(seeds):
    """Yield ``(loss, result, oracle loss, near)`` per seed: the
    :class:`~dln_landscape.optim.GDResult` of a balanced full-chain descent
    (:func:`_balanced_descent`, 4000 steps at most) on a generated
    ``_TRAINER_DIMS`` instance, next to the closed-form optimum, ``near``
    within 1e-5 relative of it."""
    for inst_seed in seeds:
        inst = gen_instance(InstanceSpec(dims=_TRAINER_DIMS, seed=inst_seed))
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, min(inst.chain.widths))
        result = _balanced_descent(inst.chain.factors, inst.loss, 4000, DEFAULT_GRAD_TOL)
        near = result.loss <= fit.loss + 1e-5 * (1.0 + abs(fit.loss))
        yield inst.loss, result, fit.loss, near


def _section_trainer_vs_oracle(seed: int, trials: int) -> SectionResult:
    runs = _oracle_runs(_instance_seeds(seed, 7, trials))
    near = explained = 0
    for loss, result, _, is_near in runs:
        if is_near:
            near += 1
        else:
            label = classify(FactorChain(tuple(result.factors)), loss).label
            explained += int(result.status == STATUS_CRITICAL and label is not Classification.NOT_CRITICAL)
    unexplained = trials - near - explained
    passed = unexplained == 0 and near >= int(np.ceil(0.95 * trials))
    return SectionResult(
        "trainer_vs_oracle",
        passed,
        trials,
        f"{near} of {trials} runs matched the closed-form oracle to 1e-5 "
        f"relative; {explained} stalled at a classified critical point; "
        f"{unexplained} unexplained",
    )


def _restart_best(loss, inits, max_steps: int, stop_grad_tol: float) -> float:
    """The lowest loss that balanced full-chain descent
    (:func:`_balanced_descent`) reaches from any of the chains ``inits``."""
    return min(_balanced_descent(init.factors, loss, max_steps, stop_grad_tol).loss for init in inits)


def _section_oracle_vs_restarts(seed: int, trials: int) -> SectionResult:
    problems = 0
    checks = 0
    worst = 0.0
    seeds = _instance_seeds(seed, 8, trials)
    for t, inst_seed in enumerate(seeds):
        dims = _RESTART_TRIPLES[t % len(_RESTART_TRIPLES)]
        spec = InstanceSpec(dims=dims, seed=inst_seed)
        inst = gen_instance(spec)
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, min(dims))
        restart_rng = stream(inst_seed, _SECTION_KEY_BASE + 8, t)
        inits = (
            gen_instance(replace(spec, seed=int(restart_rng.integers(0, 2**63)))).chain
            for _ in range(8)
        )
        best = _restart_best(inst.loss, inits, 3000, 1e-9)
        gap = abs(best - fit.loss) / (1.0 + abs(fit.loss))
        worst = max(worst, gap)
        if not (fit.loss <= best + 1e-9 * (1.0 + abs(best)) and gap <= 1e-6):
            problems += 1
        checks += 1
    passed = problems == 0
    return SectionResult(
        "oracle_vs_restarts",
        passed,
        checks,
        f"{problems} of {checks} data sets saw restarted descent disagree "
        f"with the closed-form optimum; worst relative gap {fmt_float(worst)}",
    )


def _csv_round_trip(matrix: np.ndarray, directory: Path) -> list[str]:
    """Save ``matrix`` as CSV under ``directory``, load it back and save the
    loaded matrix again; return what changed: the bits of the loaded matrix
    or the bytes of the rewritten file."""
    first = directory / "probe_a.csv"
    second = directory / "probe_b.csv"
    save_matrix_csv(first, matrix)
    loaded = load_matrix_csv(first)
    save_matrix_csv(second, loaded)
    problems = []
    if loaded.tobytes() != matrix.tobytes():
        problems.append("matrix round-trip changed bits")
    if second.read_bytes() != first.read_bytes():
        problems.append("rewritten matrix file changed bytes")
    return problems


def _section_determinism_roundtrip(seed: int, trials: int) -> SectionResult:
    problems: list[str] = []
    checks = 0
    seeds = _instance_seeds(seed, 9, max(1, trials))
    for t, inst_seed in enumerate(seeds):
        dims = _PLATEAU_DIMS[t % len(_PLATEAU_DIMS)]
        spec = InstanceSpec(dims=dims, seed=inst_seed)
        a = gen_instance(spec)
        b = gen_instance(spec)
        same = all(
            x.tobytes() == y.tobytes() for x, y in zip(a.chain.factors, b.chain.factors)
        ) and a.loss.inputs.tobytes() == b.loss.inputs.tobytes() and a.loss.targets.tobytes() == b.loss.targets.tobytes()
        if not same:
            problems.append("regeneration was not bit-identical")
        checks += 1

        probe = stream(inst_seed, _SECTION_KEY_BASE + 9, t)
        m = probe.standard_normal((3, 4))
        m[0, 0] = -0.0
        m[0, 1] = 1e-300
        m[1, 0] = -1e300
        m[1, 1] = np.pi * 1e-10
        with tempfile.TemporaryDirectory() as tmp:
            problems.extend(_csv_round_trip(m, Path(tmp)))
        checks += 1

        _, trajectory = train_gd(a.chain, a.loss, max_steps=3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            save_trajectory_csv(path, trajectory)
            points = load_trajectory_csv(path)
            if len(points) != len(trajectory.points):
                problems.append("trajectory round-trip changed length")
            else:
                for p, q in zip(trajectory.points, points):
                    if (
                        p.step != q.step
                        or np.float64(p.loss).tobytes() != np.float64(q.loss).tobytes()
                        or np.float64(p.max_grad).tobytes() != np.float64(q.max_grad).tobytes()
                        or p.rank_above != q.rank_above
                        or p.rank_below != q.rank_below
                    ):
                        problems.append("trajectory round-trip changed a point")
                        break
        checks += 1
    passed = not problems
    detail = (
        f"{checks} regeneration and file round-trips were bit-identical"
        if passed
        else "; ".join(sorted(set(problems)))
    )
    return SectionResult("determinism_roundtrip", passed, checks, detail)


_SECTIONS = (
    _section_loss_contract,
    _section_layer_gradients,
    _section_product_invariance,
    _section_escape_and_descent,
    _section_canonical_plateau,
    _section_lift_exactness,
    _section_trainer_vs_oracle,
    _section_oracle_vs_restarts,
    _section_determinism_roundtrip,
)


def verify_suite(seed: int = 0, trials: int = 4) -> VerifyReport:
    """Run every section at the given breadth.

    ``trials`` scales how many instances each randomized section draws;
    ``trials=0`` runs nothing and passes vacuously, with a warning recorded
    in the report.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials == 0:
        return VerifyReport(
            seed=seed,
            trials=0,
            sections=(),
            warning="trials=0: no checks were executed; the pass is vacuous",
        )
    sections = tuple(fn(seed, trials) for fn in _SECTIONS)
    return VerifyReport(seed=seed, trials=trials, sections=sections)


def render_verify_json(report: VerifyReport) -> str:
    return json_text({
        "seed": report.seed,
        "trials": report.trials,
        "passed": report.passed,
        "warning": report.warning,
        "sections": [
            {"name": s.name, "passed": s.passed, "checks": s.checks, "detail": s.detail}
            for s in report.sections
        ],
    })


def render_verify_text(report: VerifyReport) -> str:
    lines = [
        "verification suite",
        f"seed: {report.seed}",
        f"trials: {report.trials}",
    ]
    if report.warning:
        lines.append(f"warning: {report.warning}")
    for s in report.sections:
        lines.append(f"[{'PASS' if s.passed else 'FAIL'}] {s.name} ({s.checks} checks): {s.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
