import numpy as np
import pytest

from dln_landscape.analyze import (
    Classification,
    DescentNotFoundError,
    WrongClassificationError,
    classify,
    descent_search,
    global_certificate,
    super_gradients,
    two_layer_reduction,
)
from dln_landscape.harness import CONSTRUCTIONS, InstanceSpec, gen_instance
from dln_landscape.network import (
    FactorChain,
    NoInteriorBottleneckError,
    QuadraticLoss,
    bottleneck_split,
    chain_loss,
    layer_gradients,
)
from dln_landscape.verify import canonical_plateau


class TestSuperGradients:
    def test_matches_hand_formulas(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=0))
        split = bottleneck_split(inst.chain)
        g_above, g_below = super_gradients(inst.chain, inst.loss)
        grad = inst.loss.gradient(split.above @ split.below)
        assert np.allclose(g_above, grad @ split.below.T, rtol=1e-12, atol=1e-12)
        assert np.allclose(g_below, split.above.T @ grad, rtol=1e-12, atol=1e-12)

    def test_requires_interior_bottleneck(self):
        inst = gen_instance(InstanceSpec(dims=(2, 3, 2), seed=1))
        with pytest.raises(NoInteriorBottleneckError):
            super_gradients(inst.chain, inst.loss)


class TestGlobalCertificate:
    def test_planted_optimum_certifies(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="factored_global", seed=2)
        )
        assert global_certificate(inst.chain, inst.loss)

    def test_generic_point_does_not(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=3))
        assert not global_certificate(inst.chain, inst.loss)


class TestClassify:
    def test_generic_is_not_critical(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=4))
        report = classify(inst.chain, inst.loss)
        assert report.label is Classification.NOT_CRITICAL
        assert max(report.layer_gradient_norms) > 1e-8

    def test_factored_global_certified(self):
        for kind in ("quadratic", "logcosh"):
            inst = gen_instance(
                InstanceSpec(
                    dims=(3, 4, 2, 4, 3), construction="factored_global",
                    loss_kind=kind, seed=5,
                )
            )
            report = classify(inst.chain, inst.loss)
            assert report.label is Classification.GLOBAL_CERTIFIED
            assert report.escape is None
            with pytest.raises(WrongClassificationError):
                two_layer_reduction(inst.chain, report)

    def test_full_rank_critical_reducible(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="full_rank_critical", seed=6)
        )
        report = classify(inst.chain, inst.loss)
        assert report.label is Classification.REDUCIBLE_FULL_RANK
        assert report.rank_above == 2
        assert report.rank_below == 2
        above, below = two_layer_reduction(inst.chain, report)
        assert above.shape == (3, 2) and below.shape == (2, 3)
        assert report.oracle_gap is not None and report.oracle_gap > 1e-3
        # stationarity of the super layers, not just the layers
        assert report.super_gradient_above_norm <= 1e-8
        assert report.super_gradient_below_norm <= 1e-8

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @pytest.mark.parametrize("dims, n", [((4, 5, 2, 5, 3), 3), ((6, 3, 2, 4, 3), 4)])
    def test_oracle_gap_on_fewer_samples_than_inputs(self, construction, dims, n):
        inst = gen_instance(
            InstanceSpec(dims=dims, construction=construction, n_samples=n, seed=1)
        )
        report = classify(inst.chain, inst.loss)
        assert np.isfinite(report.oracle_gap)
        assert report.oracle_gap >= -1e-12 * (1.0 + report.loss)

    def test_plateau_escapable_with_certificate(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="rank_deficient_plateau", seed=7)
        )
        report = classify(inst.chain, inst.loss)
        assert report.label is Classification.ESCAPABLE_PLATEAU
        assert report.escape is not None
        assert report.escape.side == "below"
        assert report.rank_above == 0 and report.rank_below == 0

    def test_canonical_report_values(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        assert report.label is Classification.ESCAPABLE_PLATEAU
        assert report.loss == 2.0
        assert report.layer_gradient_norms == (0.0, 0.0, 0.0)
        assert report.convex_gradient_norm == 2.0 * np.sqrt(2.0)
        assert report.split_index == 1
        assert report.rank_above == 0
        assert report.rank_below == 0
        assert report.super_gradient_above_norm == 0.0
        assert report.super_gradient_below_norm == 0.0
        assert report.oracle_gap == pytest.approx(1.0, abs=1e-12)

    def test_no_bottleneck_saddle(self):
        chain = FactorChain((np.zeros((2, 1)), np.zeros((1, 2))))
        loss = QuadraticLoss(np.array([[1.0]]), np.array([[1.0]]))
        report = classify(chain, loss)
        assert report.label is Classification.NO_BOTTLENECK_SADDLE
        assert report.split_index is None
        assert report.rank_above is None and report.rank_below is None
        assert report.diagnostic is not None
        assert max(report.layer_gradient_norms) == 0.0
        assert report.convex_gradient_norm > 1e-8

    def test_no_bottleneck_generic_still_not_critical(self):
        inst = gen_instance(InstanceSpec(dims=(2, 3, 2), seed=8))
        report = classify(inst.chain, inst.loss)
        assert report.label is Classification.NOT_CRITICAL
        assert report.split_index is None

    def test_mirrored_side_selected_when_only_below_deficient(self):
        chain = FactorChain(
            (np.zeros((1, 2)), np.array([[1.0]]), np.array([[1.0], [0.0]]))
        )
        loss = QuadraticLoss(np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]))
        report = classify(chain, loss)
        assert report.label is Classification.ESCAPABLE_PLATEAU
        assert report.rank_above == 1
        assert report.rank_below == 0
        assert report.escape.side == "above"


class TestTwoLayerReduction:
    def test_returns_split_products(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="full_rank_critical", seed=9)
        )
        report = classify(inst.chain, inst.loss)
        above, below = two_layer_reduction(inst.chain, report)
        split = bottleneck_split(inst.chain)
        assert np.array_equal(above, split.above)
        assert np.array_equal(below, split.below)
        # the reduced pair reproduces the chain's loss
        assert inst.loss.value(above @ below) == pytest.approx(report.loss, rel=1e-12)

    def test_wrong_label_rejected(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        with pytest.raises(WrongClassificationError):
            two_layer_reduction(chain, report)


class TestDescentSearch:
    def test_canonical_descends_below_threshold(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        better = descent_search(chain, loss, report, budget=500)
        assert chain_loss(better, loss) < 2.0 - 1e-3

    def test_negative_budget_rejected(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        with pytest.raises(ValueError, match="max_steps must be non-negative, got -1"):
            descent_search(chain, loss, report, budget=-1)

    def test_wrong_label_rejected(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=10))
        report = classify(inst.chain, inst.loss)
        with pytest.raises(WrongClassificationError):
            descent_search(inst.chain, inst.loss, report)

    def test_same_side_double_zero_descent_fails_honestly(self):
        # Zeroing two layers BELOW the cut leaves the upper super layer full
        # rank, so the mirrored construction applies; but every layer
        # gradient at the perturbed point is still exactly zero (each
        # gradient contains the other zero layer as a factor), so bounded
        # descent cannot make progress and must say so.
        base = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=11))
        chain = base.chain.with_factor(1, np.zeros((4, 3))).with_factor(
            2, np.zeros((2, 4))
        )
        loss = base.loss
        assert max(np.linalg.norm(g) for g in layer_gradients(chain, loss)) == 0.0
        report = classify(chain, loss)
        assert report.label is Classification.ESCAPABLE_PLATEAU
        assert report.escape.side == "above"
        # the upper product already has escaping rows, so the certificate is
        # the trivial one: no perturbation, matching the nonzero lower
        # super-layer gradient that the layer parameterization cannot follow
        assert report.escape.containment_start == 0
        perturbed = report.escape.perturbed_chain
        for a, b in zip(perturbed.factors, chain.factors):
            assert a.tobytes() == b.tobytes()
        assert report.escape.super_gradient_norm == pytest.approx(
            report.super_gradient_below_norm, rel=1e-12
        )
        assert (
            max(np.linalg.norm(g) for g in layer_gradients(perturbed, loss)) == 0.0
        )
        with pytest.raises(DescentNotFoundError) as exc:
            descent_search(chain, loss, report, budget=200)
        assert exc.value.diagnostics["status"] == "stalled-critical"

    def test_mirrored_descent_succeeds(self):
        chain = FactorChain(
            (np.zeros((1, 2)), np.array([[1.0]]), np.array([[1.0], [0.0]]))
        )
        loss = QuadraticLoss(np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]))
        report = classify(chain, loss)
        better = descent_search(chain, loss, report, budget=500)
        assert chain_loss(better, loss) < report.loss
