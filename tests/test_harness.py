import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dln_landscape
from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import (
    InfeasibleConstructionError,
    InstanceSpec,
    gen_instance,
    regenerate,
    stream,
    train_gd,
)
from dln_landscape.linalg import _rank_of_spectrum, numerical_rank
from dln_landscape.network import (
    bottleneck_split,
    chain_loss,
    end_to_end,
    layer_gradients,
    running_product,
)
from dln_landscape.oracle import rrr_oracle
from dln_landscape.verify import canonical_plateau


def _svd_rank(m) -> int:
    return _rank_of_spectrum(np.linalg.svd(m, compute_uv=False), 1e-9)


class TestStream:
    def test_same_key_same_draws(self):
        a = stream(7, 0, 1).standard_normal(5)
        b = stream(7, 0, 1).standard_normal(5)
        assert a.tobytes() == b.tobytes()

    def test_different_keys_differ(self):
        a = stream(7, 0, 1).standard_normal(5)
        b = stream(7, 0, 2).standard_normal(5)
        c = stream(7, 1, 1).standard_normal(5)
        assert a.tobytes() != b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_seed_range_checked(self):
        with pytest.raises(ValueError):
            stream(-1, 0)
        with pytest.raises(ValueError):
            stream(2**64, 0)


class TestInstanceSpec:
    def test_defaults_and_effective_n(self):
        spec = InstanceSpec(dims=(3, 4, 2, 4, 3))
        assert spec.construction == "generic"
        assert spec.loss_kind == "quadratic"
        assert spec.effective_n == 6
        assert InstanceSpec(dims=(3, 2, 3), n_samples=11).effective_n == 11

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"construction": "mystery"},
            {"loss_kind": "hinge"},
            {"seed": -1},
            {"n_samples": 0},
            {"data_scale": 0.0},
            {"data_scale": float("inf")},
            {"loss_kind": "logcosh", "n_samples": 5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InstanceSpec(dims=(3, 2, 3), **kwargs)


class TestGenerateGeneric:
    def test_shapes_and_determinism(self):
        spec = InstanceSpec(dims=(3, 4, 2, 4, 3), seed=5)
        a = gen_instance(spec)
        b = gen_instance(spec)
        assert a.chain.widths == (3, 4, 2, 4, 3)
        assert a.loss.inputs.shape == (3, 6)
        assert a.loss.targets.shape == (3, 6)
        for m, n in zip(a.chain.factors, b.chain.factors):
            assert m.tobytes() == n.tobytes()
        assert a.loss.inputs.tobytes() == b.loss.inputs.tobytes()

    def test_seed_changes_everything(self):
        a = gen_instance(InstanceSpec(dims=(3, 2, 3), seed=1))
        b = gen_instance(InstanceSpec(dims=(3, 2, 3), seed=2))
        assert a.chain.factor(1).tobytes() != b.chain.factor(1).tobytes()
        assert a.loss.inputs.tobytes() != b.loss.inputs.tobytes()

    def test_n_samples_and_scale(self):
        spec = InstanceSpec(dims=(3, 2, 3), n_samples=9, data_scale=10.0)
        inst = gen_instance(spec)
        assert inst.loss.inputs.shape == (3, 9)
        base = gen_instance(InstanceSpec(dims=(3, 2, 3), n_samples=9, data_scale=1.0))
        assert np.allclose(inst.loss.targets, 10.0 * base.loss.targets)
        # inputs are not scaled, only targets
        assert inst.loss.inputs.tobytes() == base.loss.inputs.tobytes()

    def test_logcosh_target_shape(self):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 4), loss_kind="logcosh"))
        assert inst.loss.target.shape == (4, 3)


class TestGeneratePlateau:
    @pytest.mark.parametrize("dims", [(2, 1, 1, 2), (3, 4, 2, 4, 3), (3, 2, 3)])
    def test_zero_pattern_straddles_cut(self, dims):
        inst = gen_instance(
            InstanceSpec(dims=dims, construction="rank_deficient_plateau", seed=3)
        )
        split = bottleneck_split(inst.chain)
        zeros = [
            i + 1
            for i, m in enumerate(inst.chain.factors)
            if not np.any(m)
        ]
        assert len(zeros) == 2
        below, above = zeros
        assert below <= split.index < above

    def test_exactly_critical_with_nonzero_convex_gradient(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="rank_deficient_plateau", seed=4)
        )
        assert max(np.linalg.norm(g) for g in layer_gradients(inst.chain, inst.loss)) == 0.0
        grad = inst.loss.gradient(end_to_end(inst.chain))
        assert np.linalg.norm(grad) > 1e-3
        assert np.array_equal(end_to_end(inst.chain), np.zeros((3, 3)))

    def test_requires_interior_bottleneck(self):
        with pytest.raises(InfeasibleConstructionError):
            gen_instance(
                InstanceSpec(dims=(2, 3, 2), construction="rank_deficient_plateau")
            )


class TestGenerateFullRankCritical:
    def test_stationary_full_rank_not_optimal(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="full_rank_critical", seed=5)
        )
        assert max(np.linalg.norm(g) for g in layer_gradients(inst.chain, inst.loss)) <= 1e-12
        split = bottleneck_split(inst.chain)
        assert numerical_rank(split.above) == 2
        assert numerical_rank(split.below) == 2
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, 2)
        assert chain_loss(inst.chain, inst.loss) > fit.loss + 1e-3

    @pytest.mark.parametrize("dims, n", [((4, 5, 2, 5, 3), 3), ((6, 3, 2, 4, 3), 4)])
    def test_fewer_samples_than_inputs(self, dims, n):
        inst = gen_instance(
            InstanceSpec(dims=dims, construction="full_rank_critical", n_samples=n, seed=5)
        )
        assert max(np.linalg.norm(g) for g in layer_gradients(inst.chain, inst.loss)) <= 1e-12
        split = bottleneck_split(inst.chain)
        assert numerical_rank(split.above) == numerical_rank(split.below) == 2
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, 2)
        assert chain_loss(inst.chain, inst.loss) > fit.loss + 1e-3
        assert classify(inst.chain, inst.loss).label is Classification.REDUCIBLE_FULL_RANK

    def test_quadratic_only(self):
        with pytest.raises(InfeasibleConstructionError):
            gen_instance(
                InstanceSpec(
                    dims=(3, 4, 2, 4, 3), construction="full_rank_critical",
                    loss_kind="logcosh",
                )
            )

    def test_narrow_boundary_infeasible(self):
        with pytest.raises(InfeasibleConstructionError):
            gen_instance(
                InstanceSpec(dims=(1, 1, 2), construction="full_rank_critical")
            )


class TestGenerateFactoredGlobal:
    @pytest.mark.parametrize("kind", ["quadratic", "logcosh"])
    def test_plants_a_certified_optimum(self, kind):
        inst = gen_instance(
            InstanceSpec(
                dims=(3, 4, 2, 4, 3), construction="factored_global",
                loss_kind=kind, seed=6,
            )
        )
        grad = inst.loss.gradient(end_to_end(inst.chain))
        assert np.linalg.norm(grad) <= 1e-8

    def test_quadratic_plant_matches_oracle(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="factored_global", seed=7)
        )
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, 2)
        assert chain_loss(inst.chain, inst.loss) <= fit.loss + 1e-9


    @pytest.mark.parametrize("dims, n", [((4, 5, 2, 5, 3), 2), ((4, 5, 2, 5, 3), 3),
                                         ((6, 3, 2, 4, 3), 4)])
    def test_fewer_samples_than_inputs(self, dims, n):
        inst = gen_instance(
            InstanceSpec(dims=dims, construction="factored_global", n_samples=n, seed=7)
        )
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, 2)
        assert chain_loss(inst.chain, inst.loss) <= fit.loss + 1e-9
        assert classify(inst.chain, inst.loss).label is Classification.GLOBAL_CERTIFIED


class TestRegenerate:
    def test_override_seed(self):
        spec = InstanceSpec(dims=(3, 2, 3), seed=1)
        a = gen_instance(spec)
        b = regenerate(spec, seed=2)
        c = regenerate(spec)
        assert a.chain.factor(1).tobytes() != b.chain.factor(1).tobytes()
        assert a.chain.factor(1).tobytes() == c.chain.factor(1).tobytes()


class TestTrainGD:
    def test_plateau_stalls_immediately(self):
        chain, loss = canonical_plateau()
        trained, trajectory = train_gd(chain, loss)
        assert trajectory.status == "stalled-critical"
        assert trajectory.final.step == 0
        assert trajectory.final.max_grad == 0.0
        assert trajectory.final.rank_above == 0
        assert trajectory.final.rank_below == 0
        assert chain_loss(trained, loss) == 2.0

    def test_loss_non_increasing_and_budget_status(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=8))
        trained, trajectory = train_gd(inst.chain, inst.loss, max_steps=5)
        losses = [p.loss for p in trajectory.points]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]
        assert trajectory.status == "budget-exhausted"
        assert trajectory.final.step == 5

    def test_two_layer_run_reaches_oracle(self):
        inst = gen_instance(InstanceSpec(dims=(3, 1, 3), seed=9))
        trained, trajectory = train_gd(
            inst.chain, inst.loss, max_steps=3000, stop_grad_tol=1e-9
        )
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, 1)
        final = chain_loss(trained, inst.loss)
        assert final <= fit.loss + 1e-6 * (1.0 + fit.loss)
        assert final >= fit.loss - 1e-9 * (1.0 + fit.loss)

    def test_no_bottleneck_ranks_are_sentinel(self):
        inst = gen_instance(InstanceSpec(dims=(2, 3, 2), seed=10))
        _, trajectory = train_gd(inst.chain, inst.loss, max_steps=3)
        assert all(p.rank_above == -1 and p.rank_below == -1 for p in trajectory.points)

    def test_trajectory_ranks_at_canonical_split(self, monkeypatch):
        # Every recorded rank matches an SVD recount of that state's super
        # layers: at a 2-wide cut (ranks by SVD) and at an 8-wide one (by the
        # full-rank certificate).
        states = []
        descend = dln_landscape.harness.armijo_gd

        def keeping_states(**kwargs):
            record = kwargs["on_state"]

            def both(step, factors, value, max_grad):
                states.append([m.copy() for m in factors])
                record(step, factors, value, max_grad)

            return descend(**{**kwargs, "on_state": both})

        monkeypatch.setattr(dln_landscape.harness, "armijo_gd", keeping_states)
        for dims, width in (((3, 4, 2, 4, 3), 2), ((10, 12, 8, 12, 10), 8)):
            states.clear()
            inst = gen_instance(InstanceSpec(dims=dims, seed=11))
            _, trajectory = train_gd(inst.chain, inst.loss, max_steps=20)
            assert trajectory.points[0].rank_above == width
            assert trajectory.points[0].rank_below == width
            assert len(states) == len(trajectory.points) == 21
            for point, factors in zip(trajectory.points, states):
                assert point.rank_above == _svd_rank(running_product(factors[2:]))
                assert point.rank_below == _svd_rank(running_product(factors[:2]))


class TestTrainGDGuards:
    def test_overflowing_trial_fails_armijo_instead_of_raising(self):
        inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=1, data_scale=1e80))
        trained, trajectory = train_gd(inst.chain, inst.loss, max_steps=20)
        assert trajectory.status in (
            "line-search-stalled", "budget-exhausted", "precision-limited"
        )
        assert all(np.isfinite(p.loss) for p in trajectory.points)
        assert chain_loss(trained, inst.loss) == trajectory.final.loss

    def test_a_start_whose_loss_overflows_is_refused(self):
        # The data are finite, but |W X - Y|² overflows at the start.
        inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), seed=1, data_scale=1e160))
        with pytest.raises(
            ValueError, match="the loss or its gradient at the end-to-end product overflows"
        ):
            train_gd(inst.chain, inst.loss)

    def test_negative_max_steps_rejected(self):
        chain, loss = canonical_plateau()
        with pytest.raises(ValueError, match="max_steps must be non-negative, got -5"):
            train_gd(chain, loss, max_steps=-5)
        assert train_gd(chain, loss, max_steps=0)[1].final.step == 0

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -1.0, -1e-300))
    def test_invalid_stop_grad_tol_rejected(self, value):
        chain, loss = canonical_plateau()
        with pytest.raises(ValueError, match="stop_grad_tol must be non-negative and finite"):
            train_gd(chain, loss, stop_grad_tol=value)
        assert train_gd(chain, loss, stop_grad_tol=0.0)[1].status == "stalled-critical"

    def test_loss_increase_raises(self, monkeypatch):
        monkeypatch.setattr(dln_landscape.harness, "armijo_gd", _rising_armijo)
        chain, loss = canonical_plateau()
        with pytest.raises(RuntimeError, match="loss increased"):
            train_gd(chain, loss)

    def test_loss_increase_raises_under_optimize_flag(self):
        script = "\n".join([
            inspect.getsource(_rising_armijo),
            "import dln_landscape.harness as harness",
            "from dln_landscape.verify import canonical_plateau",
            "harness.armijo_gd = _rising_armijo",
            "try:",
            "    harness.train_gd(*canonical_plateau())",
            "except RuntimeError:",
            "    raise SystemExit(0)",
            "raise SystemExit(1)",
        ])
        src = str(Path(dln_landscape.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
        assert done.returncode == 0


def _rising_armijo(factors, loss, active_layers, max_steps, stop_grad_tol, on_state=None, **_):
    """A descent stand-in that reports a loss increase.  Self-contained so its
    source can run in the ``python -O`` subprocess."""
    from dln_landscape.optim import GDResult

    factors = list(factors)
    on_state(0, factors, 1.0, 1.0)
    on_state(1, factors, 2.0, 1.0)
    return GDResult(factors=factors, loss=2.0, status="budget-exhausted", steps=1, max_grad=1.0)
