import numpy as np
import pytest
from hypothesis import given, strategies as st

from dln_landscape.harness import InstanceSpec, gen_instance, train_gd
from dln_landscape.linalg import best_rank_approx, numerical_rank
from dln_landscape.network import chain_loss, layer_gradients
from dln_landscape.oracle import finite_diff_gradient, rrr_oracle


class TestRRROracle:
    def test_identity_inputs_hand_value(self):
        fit = rrr_oracle(np.eye(2), np.diag([3.0, 1.0]), rank=1)
        assert np.allclose(fit.map, np.diag([3.0, 0.0]), atol=1e-12)
        assert fit.loss == pytest.approx(1.0, abs=1e-12)

    def test_rank_zero_gives_zero_map(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 8))
        y = rng.standard_normal((2, 8))
        fit = rrr_oracle(x, y, rank=0)
        assert np.array_equal(fit.map, np.zeros((2, 3)))
        assert fit.loss == pytest.approx(float(np.sum(y * y)), rel=1e-12)

    def test_full_rank_matches_least_squares(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 10))
        y = rng.standard_normal((4, 10))
        fit = rrr_oracle(x, y, rank=3)
        w_ls, *_ = np.linalg.lstsq(x.T, y.T, rcond=None)
        assert np.allclose(fit.map, w_ls.T, rtol=1e-10, atol=1e-12)
        resid = fit.map @ x - y
        assert fit.loss == pytest.approx(float(np.sum(resid * resid)), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_dependent_rows_match_dropped_rows(self, rank, n):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((3, n))
        x = np.vstack([base, base[0], 2.0 * base[1] - base[2]])  # rank 3 of 5 rows
        y = rng.standard_normal((4, n))
        fit = rrr_oracle(x, y, rank=rank)
        reduced = rrr_oracle(base, y, rank=rank)
        assert fit.loss == pytest.approx(reduced.loss, rel=1e-12, abs=1e-12)
        resid = fit.map @ x - y
        assert fit.loss == pytest.approx(float(np.sum(resid * resid)), rel=1e-12, abs=1e-24)
        assert numerical_rank(fit.map) <= rank

    @pytest.mark.parametrize("shape", [(5, 8), (5, 3)])
    def test_map_is_minimum_norm(self, shape):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
        y = rng.standard_normal((2, shape[1]))
        fit = rrr_oracle(x, y, rank=1)
        # rows of the map lie in the column space of X: W = W X X^+
        assert np.allclose(fit.map, fit.map @ x @ np.linalg.pinv(x), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dims, n", [((4, 5, 2, 5, 3), 2), ((4, 5, 2, 5, 3), 3),
                                         ((6, 3, 2, 4, 3), 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_descent_does_not_beat_oracle_on_fewer_samples(self, dims, n, seed):
        inst = gen_instance(InstanceSpec(dims=dims, n_samples=n, seed=seed))
        fit = rrr_oracle(inst.loss.inputs, inst.loss.targets, rank=min(dims))
        _, trajectory = train_gd(inst.chain, inst.loss, max_steps=2000)
        scale = 1.0 + float(np.sum(inst.loss.targets ** 2))
        assert trajectory.final.loss >= fit.loss - 1e-12 * scale
        assert trajectory.final.loss <= fit.loss + 1e-9 * scale

    def test_map_respects_rank_budget(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 12))
        y = rng.standard_normal((3, 12))
        for rank in (1, 2):
            fit = rrr_oracle(x, y, rank=rank)
            assert numerical_rank(fit.map) <= rank

    def test_beats_naive_truncation_on_correlated_inputs(self):
        # Truncating the SVD of the unconstrained least-squares map is NOT
        # optimal when the inputs are correlated; the whitened route must be
        # at least as good, and strictly better here.
        rng = np.random.default_rng(3)
        base = rng.standard_normal((3, 20))
        x = np.vstack([base[0], base[0] * 0.95 + 0.05 * base[1], base[2]])
        y = rng.standard_normal((3, 20))
        fit = rrr_oracle(x, y, rank=1)
        w_ls, *_ = np.linalg.lstsq(x.T, y.T, rcond=None)
        naive = best_rank_approx(w_ls.T, 1)
        naive_loss = float(np.sum((naive @ x - y) ** 2))
        assert fit.loss <= naive_loss + 1e-12
        assert fit.loss < naive_loss - 1e-6

    @given(st.integers(0, 2**32 - 1))
    def test_optimal_among_random_rank_r_maps(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 9))
        y = rng.standard_normal((3, 9))
        fit = rrr_oracle(x, y, rank=1)
        for _ in range(10):
            w = np.outer(rng.standard_normal(3), rng.standard_normal(3))
            loss = float(np.sum((w @ x - y) ** 2))
            assert fit.loss <= loss + 1e-9

    def test_monotone_in_rank(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 11))
        y = rng.standard_normal((4, 11))
        losses = [rrr_oracle(x, y, rank=r).loss for r in range(5)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _reference_finite_diff(chain, loss, layer):
    """Central differences entry by entry, each probe the ``chain_loss`` of
    a chain with that layer replaced: ``finite_diff_gradient`` must match it
    byte for byte."""
    m = chain.factor(layer)
    step = 1e-5 * (1.0 + float(np.linalg.norm(m)))
    out = np.empty_like(m)
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            plus = np.array(m)
            plus[r, c] += step
            minus = np.array(m)
            minus[r, c] -= step
            hi = chain_loss(chain.with_factor(layer, plus), loss)
            lo = chain_loss(chain.with_factor(layer, minus), loss)
            out[r, c] = (hi - lo) / (2.0 * step)
    return out


class TestFiniteDiffGradient:
    @pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
    @pytest.mark.parametrize("dims, construction", (
        ((3, 4, 2, 4, 3), "generic"),
        ((2, 1, 1, 2), "generic"),
        ((4, 3, 5), "generic"),
        ((2, 3, 1, 4, 2), "rank_deficient_plateau"),
    ))
    def test_matches_the_chain_loss_reference_bytewise(self, dims, construction, loss_kind):
        inst = gen_instance(
            InstanceSpec(dims=dims, construction=construction, loss_kind=loss_kind, seed=8)
        )
        for layer in range(1, inst.chain.k + 1):
            fd = finite_diff_gradient(inst.chain, inst.loss, layer)
            assert fd.tobytes() == _reference_finite_diff(inst.chain, inst.loss, layer).tobytes()

    def test_matches_analytic_on_generic_chain(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=5))
        grads = layer_gradients(inst.chain, inst.loss)
        for layer in range(1, 5):
            fd = finite_diff_gradient(inst.chain, inst.loss, layer)
            assert np.allclose(grads[layer - 1], fd, rtol=1e-5, atol=1e-8)

    def test_matches_on_logcosh(self):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 3), loss_kind="logcosh", seed=6))
        grads = layer_gradients(inst.chain, inst.loss)
        for layer in (1, 2):
            fd = finite_diff_gradient(inst.chain, inst.loss, layer)
            assert np.allclose(grads[layer - 1], fd, rtol=1e-5, atol=1e-8)

    def test_zero_gradient_at_plateau(self):
        inst = gen_instance(
            InstanceSpec(dims=(2, 1, 1, 2), construction="rank_deficient_plateau", seed=7)
        )
        for layer in (1, 2, 3):
            fd = finite_diff_gradient(inst.chain, inst.loss, layer)
            assert np.linalg.norm(fd) <= 1e-8
