import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dln_landscape.network
import dln_landscape.verify as verify_module
from dln_landscape.analyze import Classification, DescentNotFoundError, classify
from dln_landscape.cli import main
from dln_landscape.harness import InstanceSpec, gen_instance
from dln_landscape.linalg import DEFAULT_GRAD_TOL
from dln_landscape.network import FactorChain, LogCoshLoss, QuadraticLoss, chain_loss, layer_gradients
from dln_landscape.optim import STATUS_CRITICAL, STATUS_PRECISION, STATUS_TARGET, GDResult
from dln_landscape.perturb import ConstructionFailedError
from dln_landscape.verify import (
    _RESTART_TRIPLES,
    _TRAINER_DIMS,
    _balanced_descent,
    _oracle_runs,
    _restart_best,
    _section_escape_and_descent,
    _section_oracle_vs_restarts,
    _section_product_invariance,
    _section_trainer_vs_oracle,
    canonical_plateau,
    render_verify_json,
    render_verify_text,
    verify_suite,
)


class TestCanonicalFixture:
    def test_shape_and_exact_values(self):
        chain, loss = canonical_plateau()
        assert chain.widths == (2, 1, 1, 2)
        assert chain_loss(chain, loss) == 2.0
        assert all(np.all(g == 0.0) for g in layer_gradients(chain, loss))
        report = classify(chain, loss)
        assert report.label is Classification.ESCAPABLE_PLATEAU

    def test_fresh_copies_each_call(self):
        chain_a, _ = canonical_plateau()
        chain_b, _ = canonical_plateau()
        assert chain_a.factors[2] is not chain_b.factors[2]


@pytest.fixture(scope="module")
def suite_once():
    return verify_suite(seed=7, trials=1)


class TestSuite:
    def test_passes_and_is_deterministic(self, suite_once):
        report_b = verify_suite(seed=7, trials=1)
        assert suite_once.passed
        assert suite_once.warning is None
        assert [s.name for s in suite_once.sections] == [s.name for s in report_b.sections]
        assert render_verify_text(suite_once) == render_verify_text(report_b)
        assert render_verify_json(suite_once) == render_verify_json(report_b)

    def test_every_section_counts_checks(self, suite_once):
        assert len(suite_once.sections) == 9
        for section in suite_once.sections:
            assert section.checks > 0, section.name
            assert section.passed, f"{section.name}: {section.detail}"

    def test_zero_trials_is_vacuous_with_warning(self):
        report = verify_suite(seed=0, trials=0)
        assert report.passed
        assert report.sections == ()
        assert "vacuous" in report.warning
        assert "vacuous" in render_verify_text(report)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_suite(seed=0, trials=-1)

    def test_renderings_report_seed_and_verdict(self, suite_once):
        text = render_verify_text(suite_once)
        assert "seed: 7" in text
        assert text.rstrip().endswith("PASS")


class TestMutationIsCaught:
    def test_sign_flipped_gradients_fail_the_suite(self, monkeypatch):
        true_gradients = dln_landscape.network.layer_gradients

        def flipped(chain, loss):
            return [-g for g in true_gradients(chain, loss)]

        monkeypatch.setattr(dln_landscape.network, "layer_gradients", flipped)
        report = verify_suite(seed=7, trials=1)
        assert not report.passed
        failed = {s.name for s in report.sections if not s.passed}
        assert "layer_gradients_vs_fd" in failed
        text = render_verify_text(report)
        assert text.rstrip().endswith("FAIL")

    def test_inflated_oracle_breaks_restart_section(self, monkeypatch):
        from dln_landscape.oracle import ReducedRankFit, rrr_oracle

        def inflated(inputs, targets, rank, rank_tol=1e-9):
            fit = rrr_oracle(inputs, targets, rank, rank_tol=rank_tol)
            return ReducedRankFit(map=fit.map, loss=fit.loss + 1.0)

        monkeypatch.setattr(verify_module, "rrr_oracle", inflated)
        report = verify_suite(seed=7, trials=1)
        assert not report.passed
        failed = {s.name for s in report.sections if not s.passed}
        assert "oracle_vs_restarts" in failed


class TestSectionRobustness:
    def test_failed_construction_is_a_failed_check(self, monkeypatch):
        def no_escape(*args, **kwargs):
            raise ConstructionFailedError("no row escapes (forced)")

        monkeypatch.setattr(verify_module, "escape_construction", no_escape)
        section = _section_product_invariance(7, 4)
        assert section.passed is False
        assert section.checks == 12
        assert section.detail.count("on trial 2: no row escapes (forced)") == 3

    @pytest.mark.parametrize(
        "seed",
        (17932197170783694233, 5138692677612427587, 4947962726942478956,
         5420985676390298508, 8477482468467962123),
    )
    def test_small_delta_escape_passes_product_invariance(self, seed):
        # The delta = 1e-6 escape leaves a super-layer gradient of a few 1e-9,
        # linear in delta; its floor must shrink with delta for the
        # certificate to stand.
        section = _section_product_invariance(seed, 4)
        assert section.passed, section.detail
        assert section.checks == 12

    @pytest.mark.parametrize(
        "seed",
        (4282013476452249856, 7690692479661979584, 4947962726942478956, 537035798592168015,
         12919219483787288745, 17863825820209203660, 12332972238087048607,
         18249767108235661837, 2294122065732807884),
    )
    def test_slow_descent_seeds_reach_the_oracle(self, seed):
        # One of the four runs of each seed was still descending after 4000
        # Armijo steps: the first four with doubling-first trials, which
        # Barzilai–Borwein first trials mend; the next three on unbalanced
        # super layers (one at a wrong-subset saddle), which the balanced
        # start at the bottleneck cut mends; the last two when balanced only
        # at the start, which returning to the balance mends (every 25 steps
        # when these seeds were added, every 100 since).
        section = _section_trainer_vs_oracle(seed, 4)
        assert section.passed, section.detail

    @pytest.mark.parametrize(
        "status, explained", ((STATUS_CRITICAL, 2), (STATUS_PRECISION, 0))
    )
    def test_only_a_critical_stall_explains_a_missed_oracle(self, monkeypatch, status, explained):
        # Every run stops at its start, far above the oracle, at a point the
        # analyzer calls critical: only a stalled-critical stop explains that.
        def stopped(factors, loss, active_layers, max_steps, stop_grad_tol, **_):
            return GDResult(list(factors), chain_loss(FactorChain(factors), loss), status, 0, 1.0)

        def critical(chain, loss):
            return SimpleNamespace(label=Classification.ESCAPABLE_PLATEAU)

        monkeypatch.setattr(verify_module, "armijo_gd", stopped)
        monkeypatch.setattr(verify_module, "classify", critical)
        section = _section_trainer_vs_oracle(7, 2)
        assert section.passed is False
        assert section.detail == (
            f"0 of 2 runs matched the closed-form oracle to 1e-5 relative; "
            f"{explained} stalled at a classified critical point; {2 - explained} unexplained"
        )

    def test_oracle_sections_run_without_the_trajectory_trainer(self, monkeypatch):
        def no_trainer(*args, **kwargs):
            raise AssertionError("train_gd records a trajectory these sections never read")

        monkeypatch.setattr(verify_module, "train_gd", no_trainer)
        for section in (_section_trainer_vs_oracle(42, 1), _section_oracle_vs_restarts(42, 1)):
            assert section.passed, section.detail

    def test_failed_descent_search_fails_its_sections_with_a_full_report(self, monkeypatch, capsys):
        def no_descent(*args, **kwargs):
            raise DescentNotFoundError("descent exhausted (forced)", {})

        monkeypatch.setattr(verify_module, "descent_search", no_descent)
        assert main(["verify", "--seed", "7", "--trials", "1"]) == 2
        out = capsys.readouterr().out
        assert sum(line.startswith(("[PASS] ", "[FAIL] ")) for line in out.splitlines()) == 9
        assert (
            "[FAIL] escape_and_descent (1 checks): 1 of 1 constructed plateaus failed to "
            "classify as escapable and then strictly descend within 500 steps; "
            "trial 0: DescentNotFoundError: descent exhausted (forced)\n"
        ) in out
        assert "[FAIL] canonical_plateau (1 checks): DescentNotFoundError: descent exhausted (forced)\n" in out
        assert out.endswith("overall: FAIL\n")

    def test_failed_escape_construction_is_a_failed_instance(self, monkeypatch):
        def no_escape(*args, **kwargs):
            raise ConstructionFailedError("no row escapes (forced)")

        monkeypatch.setattr(verify_module, "classify", no_escape)
        section = _section_escape_and_descent(7, 2)
        assert section.passed is False
        assert section.checks == 2
        assert section.detail.endswith(
            "within 500 steps; trial 0: ConstructionFailedError: no row escapes (forced); "
            "trial 1: ConstructionFailedError: no row escapes (forced)"
        )


def test_the_oracle_runs_stop_at_their_goal_with_the_same_verdicts():
    # A run that reaches its goal stops ``target-reached`` at its first step
    # at or below it, mid-chunk; a run that never reaches it is the run
    # without a target, bit for bit.
    shortened = 0
    for seed, (_, result, oracle_loss, near) in enumerate(_oracle_runs(range(16))):
        goal = oracle_loss + 1e-5 * (1.0 + abs(oracle_loss))
        inst = gen_instance(InstanceSpec(dims=_TRAINER_DIMS, seed=seed))
        full = _balanced_descent(inst.chain.factors, inst.loss, 4000, DEFAULT_GRAD_TOL)
        assert near == (full.loss <= goal), seed
        if near:
            assert result.status == STATUS_TARGET, seed
            assert result.loss <= goal and result.steps <= full.steps, seed
            shortened += result.steps < full.steps
        else:
            assert (result.status, result.steps, result.loss) == (full.status, full.steps, full.loss)
    assert shortened > 0


def test_the_balanced_descents_take_few_line_search_trials(monkeypatch):
    # Loss values per accepted step over the two oracle sections: 1.87 with
    # the Armijo test against the current loss, 1.38 against the largest of
    # the last 10 losses, 1.19 with returns to the gauge every 100 steps,
    # where each return starts a fresh line search.  Each descent opens with
    # the gauge and returns to it after every 100 steps: at 25, sections 7
    # and 8 called it 33 and 375 times.  Section 8's 128 restarts call it
    # 131 times under OpenBLAS's SkylakeX kernels and 130 under Haswell,
    # Sandybridge and Prescott, as one restart's length moves by rounding.
    values = steps = 0
    gauges = {7: 0, 8: 0}
    section = None

    for cls in (QuadraticLoss, LogCoshLoss):
        def counted(self, r, core=cls._value):
            nonlocal values
            values += 1
            return core(self, r)

        monkeypatch.setattr(cls, "_value", counted)

    def counted_gd(*args, _gd=verify_module.armijo_gd, **kwargs):
        nonlocal steps
        result = _gd(*args, **kwargs)
        steps += result.steps
        return result

    def counted_gauge(factors, _gauge=verify_module.balance_gauge):
        gauges[section] += 1
        return _gauge(factors)

    monkeypatch.setattr(verify_module, "armijo_gd", counted_gd)
    monkeypatch.setattr(verify_module, "balance_gauge", counted_gauge)
    for seed in range(4):
        for section, run in ((7, _section_trainer_vs_oracle), (8, _section_oracle_vs_restarts)):
            result = run(seed, 4)
            assert result.passed, result.detail
    assert values <= 1.25 * steps
    assert gauges[7] == 17 and 130 <= gauges[8] <= 131, gauges


# A `dln verify` seed at which the section fails: its trial 0, a (2,1,1,2)
# quadratic plateau, escapes to a chain whose only nonzero layer gradient
# (4.9e-9) is below DEFAULT_GRAD_TOL, so the descent stops stalled-critical
# at step 0.  It passes once the escape picks a direction that the active
# layers can descend along.
_STALLING_ESCAPE_SEED = 41557401035949958


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the escape direction can leave the active layers' gradient below tolerance")
def test_escape_and_descent_passes_at_a_seed_where_its_descent_stalls():
    section = _section_escape_and_descent(_STALLING_ESCAPE_SEED, 4)
    assert section.passed, section.detail


# sha256 over the balanced-start descents of verify's two oracle cores:
# status, steps, final loss and factor bytes of `_oracle_runs` at instance
# seeds 0-7, then the best loss of `_restart_best` on eight restart data sets.
# Computed with the 10-loss Armijo reference, with the backward sweep and
# ``_sum_squares`` sums, with the oracle runs stopped ``target-reached`` at
# their first step at or below their target, and with returns to the
# balanced gauge every 100 steps, the gauge built from two SVDs.
PINNED_GAUGED_DESCENT_DIGEST = "92b7ce0b6ddcb22df21a13516e72afece00d9de82557862a7b04062470988169"


def test_gauged_descents_match_the_pinned_digest():
    h = hashlib.sha256()
    for _, result, _, _ in _oracle_runs(range(8)):
        h.update(f"{result.status},{result.steps},{result.loss.hex()};".encode())
        for m in result.factors:
            h.update(m.tobytes())
    for t in range(8):
        spec = InstanceSpec(dims=_RESTART_TRIPLES[t % len(_RESTART_TRIPLES)], seed=t)
        inits = (gen_instance(replace(spec, seed=100 + 8 * t + r)).chain.factors for r in range(8))
        h.update(f"{_restart_best(gen_instance(spec).loss, inits, 3000, 1e-9).hex()};".encode())
    assert h.hexdigest() == PINNED_GAUGED_DESCENT_DIGEST
