import numpy as np
import pytest
from hypothesis import given, strategies as st

from dln_landscape.network import (
    BottleneckSplit,
    DimensionSignature,
    FactorChain,
    LogCoshLoss,
    LossContractViolation,
    NoInteriorBottleneckError,
    QuadraticLoss,
    ShapeMismatchError,
    TransposedLoss,
    bottleneck_split,
    chain_loss,
    end_to_end,
    layer_gradients,
    make_split,
    partial_product,
    prefix_suffix_products,
    running_product,
    validate_loss_contract,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _random_chain(widths, seed=0) -> FactorChain:
    rng = _rng(seed)
    return FactorChain(
        tuple(
            rng.standard_normal((widths[i + 1], widths[i]))
            for i in range(len(widths) - 1)
        )
    )


class TestDimensionSignature:
    def test_basic_properties(self):
        sig = DimensionSignature((3, 4, 2, 4, 3))
        assert sig.k == 4
        assert sig.min_width == 2

    @pytest.mark.parametrize(
        "widths,expected",
        [
            ((2, 1, 1, 2), 1),  # ties resolved to the smallest index
            ((3, 4, 2, 4, 3), 2),
            ((2, 3, 1, 4, 2), 2),
            ((1, 3, 3), None),  # minimum attained only on the boundary
            ((3, 1, 1, 3), 1),
            ((2, 3, 2), None),
            ((1, 1, 3), 1),  # interior tie with a boundary still splits
            ((3, 2, 3), 1),
        ],
    )
    def test_interior_bottleneck(self, widths, expected):
        assert DimensionSignature(widths).interior_bottleneck() == expected

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            DimensionSignature((3, 2))
        with pytest.raises(ValueError):
            DimensionSignature((3, 0, 3))


class TestFactorChain:
    def test_shapes_and_indexing(self):
        chain = _random_chain((3, 4, 2))
        assert chain.k == 2
        assert chain.dims.widths == (3, 4, 2)
        assert chain.factor(1).shape == (4, 3)
        assert chain.factor(2).shape == (2, 4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            FactorChain((np.ones((4, 3)), np.ones((2, 5))))

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            FactorChain((np.ones((2, 2)),))

    def test_factors_are_read_only_copies(self):
        m = np.ones((4, 3))
        chain = FactorChain((m, np.ones((2, 4))))
        m[0, 0] = 99.0
        assert chain.factor(1)[0, 0] == 1.0
        with pytest.raises(ValueError):
            chain.factor(1)[0, 0] = 5.0

    def test_with_factor_replaces_one_layer(self):
        chain = _random_chain((3, 4, 2))
        new = np.zeros((4, 3))
        other = chain.with_factor(1, new)
        assert np.array_equal(other.factor(1), new)
        assert np.array_equal(other.factor(2), chain.factor(2))
        with pytest.raises(ShapeMismatchError):
            chain.with_factor(1, np.zeros((5, 3)))


class TestPartialProduct:
    def test_hand_value(self):
        m1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        m2 = np.array([[1.0, 0.0], [1.0, 1.0]])
        chain = FactorChain((m1, m2))
        assert np.array_equal(partial_product(chain, 1, 1), m1)
        assert np.array_equal(partial_product(chain, 2, 2), m2)
        assert np.array_equal(
            partial_product(chain, 1, 2), np.array([[1.0, 2.0], [4.0, 6.0]])
        )
        assert np.array_equal(end_to_end(chain), m2 @ m1)

    def test_empty_products_are_identities(self):
        chain = _random_chain((3, 4, 2))
        assert np.array_equal(partial_product(chain, 1, 0), np.eye(3))
        assert np.array_equal(partial_product(chain, 3, 2), np.eye(2))
        assert np.array_equal(partial_product(chain, 2, 1), np.eye(4))

    def test_bounds_checked(self):
        chain = _random_chain((3, 4, 2))
        with pytest.raises(IndexError):
            partial_product(chain, 0, 1)
        with pytest.raises(IndexError):
            partial_product(chain, 1, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_associativity_at_every_cut(self, seed, cut):
        chain = _random_chain((3, 4, 2, 4, 3), seed)
        whole = end_to_end(chain)
        upper = partial_product(chain, cut + 1, chain.k)
        lower = partial_product(chain, 1, cut)
        assert np.allclose(whole, upper @ lower, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2))
    def test_identity_insertion_preserves_product(self, seed, where):
        chain = _random_chain((3, 4, 2), seed)
        factors = list(chain.factors)
        width = (3, 4, 2)[where]
        factors.insert(where, np.eye(width))
        padded = FactorChain(tuple(factors))
        assert np.array_equal(end_to_end(padded), end_to_end(chain))

    @given(st.integers(0, 2**32 - 1), st.floats(-8.0, 8.0))
    def test_scaling_one_layer_scales_product(self, seed, c):
        chain = _random_chain((3, 4, 2), seed)
        scaled = chain.with_factor(2, c * chain.factor(2))
        assert np.allclose(
            end_to_end(scaled), c * end_to_end(chain), rtol=1e-12, atol=1e-12
        )


class TestQuadraticLoss:
    def test_hand_value_and_gradient(self):
        loss = QuadraticLoss(np.eye(2), np.zeros((2, 2)))
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert loss.value(w) == 30.0
        assert np.array_equal(loss.gradient(w), 2.0 * w)

    def test_general_data(self):
        x = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
        y = np.array([[1.0, 1.0, 0.0]])
        w = np.array([[2.0, -1.0]])
        r = w @ x - y
        loss = QuadraticLoss(x, y)
        assert abs(loss.value(w) - np.sum(r * r)) < 1e-14
        assert np.allclose(loss.gradient(w), 2.0 * r @ x.T, atol=1e-14)

    def test_gradient_is_affine_in_w(self):
        rng = _rng(3)
        loss = QuadraticLoss(rng.standard_normal((2, 5)), rng.standard_normal((3, 5)))
        u = rng.standard_normal((3, 2))
        v = rng.standard_normal((3, 2))
        lhs = loss.gradient(0.25 * u + 0.75 * v)
        rhs = 0.25 * loss.gradient(u) + 0.75 * loss.gradient(v)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            QuadraticLoss(np.ones((2, 5)), np.ones((3, 4)))
        loss = QuadraticLoss(np.ones((2, 5)), np.ones((3, 5)))
        with pytest.raises(ShapeMismatchError):
            loss.value(np.ones((3, 3)))


class TestLogCoshLoss:
    def test_hand_value_and_gradient(self):
        loss = LogCoshLoss(np.zeros((1, 1)))
        w = np.array([[0.5]])
        assert abs(loss.value(w) - np.log(np.cosh(0.5))) < 1e-14
        assert abs(loss.gradient(w)[0, 0] - np.tanh(0.5)) < 1e-14

    def test_stable_for_huge_arguments(self):
        loss = LogCoshLoss(np.zeros((1, 2)))
        w = np.array([[800.0, -900.0]])
        v = loss.value(w)
        expected = (800.0 - np.log(2.0)) + (900.0 - np.log(2.0))
        assert np.isfinite(v)
        assert abs(v - expected) < 1e-9
        g = loss.gradient(w)
        assert np.array_equal(g, np.array([[1.0, -1.0]]))

    def test_minimum_at_target(self):
        t = np.array([[0.3, -0.7]])
        loss = LogCoshLoss(t)
        assert loss.value(t) == 0.0
        assert np.array_equal(loss.gradient(t), np.zeros((1, 2)))


class TestTransposedLoss:
    def test_value_and_gradient_consistency(self):
        rng = _rng(4)
        base = QuadraticLoss(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)))
        t = TransposedLoss(base)
        v = rng.standard_normal((3, 2))
        assert t.value(v) == base.value(v.T)
        assert np.array_equal(t.gradient(v), base.gradient(v.T).T)
        assert (t.out_rows, t.in_cols) == (base.in_cols, base.out_rows)

    def test_contract_still_holds(self):
        rng = _rng(5)
        base = LogCoshLoss(rng.standard_normal((2, 3)))
        validate_loss_contract(TransposedLoss(base), _rng(6))


class TestLayerGradients:
    def test_two_layer_hand_formula(self):
        rng = _rng(7)
        x = rng.standard_normal((3, 5))
        y = rng.standard_normal((2, 5))
        m1 = rng.standard_normal((4, 3))
        m2 = rng.standard_normal((2, 4))
        chain = FactorChain((m1, m2))
        loss = QuadraticLoss(x, y)
        g1, g2 = layer_gradients(chain, loss)
        resid_grad = 2.0 * (m2 @ m1 @ x - y) @ x.T
        assert np.allclose(g1, m2.T @ resid_grad, rtol=1e-12, atol=1e-12)
        assert np.allclose(g2, resid_grad @ m1.T, rtol=1e-12, atol=1e-12)

    def test_three_layer_middle_gradient(self):
        rng = _rng(8)
        widths = (2, 3, 2, 2)
        chain = _random_chain(widths, seed=9)
        x = rng.standard_normal((2, 4))
        y = rng.standard_normal((2, 4))
        loss = QuadraticLoss(x, y)
        grads = layer_gradients(chain, loss)
        g = loss.gradient(end_to_end(chain))
        m1, m2, m3 = chain.factors
        assert np.allclose(grads[1], m3.T @ g @ m1.T, rtol=1e-12, atol=1e-12)

    def test_mixed_zero_chain_gradients_vanish(self):
        # two zeroed layers on opposite sides of the cut kill every layer
        # gradient exactly
        chain = FactorChain(
            (np.zeros((1, 2)), np.zeros((1, 1)), np.eye(2, 1))
        )
        loss = QuadraticLoss(np.eye(2), np.eye(2))
        for g in layer_gradients(chain, loss):
            assert np.array_equal(g, np.zeros_like(g))

    def test_gradient_shapes_match_layers(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=10)
        loss = QuadraticLoss(_rng(11).standard_normal((3, 6)), _rng(12).standard_normal((3, 6)))
        for g, m in zip(layer_gradients(chain, loss), chain.factors):
            assert g.shape == m.shape


class TestProductCore:
    def test_running_product_accumulates_from_the_bottom(self):
        chain = _random_chain((3, 4, 2, 5), seed=30)
        m1, m2, m3 = chain.factors
        assert np.array_equal(running_product(chain.factors), m3 @ (m2 @ m1))
        assert running_product(chain.factors[:1]) is m1

    def test_prefix_suffix_products_bracket_every_layer(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=31)
        below, above = prefix_suffix_products(chain.factors)
        assert len(below) == len(above) == chain.k + 1
        assert np.array_equal(below[0], np.eye(3))
        assert np.array_equal(above[chain.k], np.eye(3))
        for i in range(chain.k + 1):
            assert np.allclose(below[i], partial_product(chain, 1, i), rtol=1e-12, atol=1e-12)
            assert np.allclose(above[i], partial_product(chain, i + 1, chain.k),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(above[i] @ below[i], end_to_end(chain), rtol=1e-12, atol=1e-12)


class TestSplits:
    def test_make_split_products(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=13)
        split = make_split(chain, 2)
        assert split.index == 2
        assert split.width == 2
        assert np.allclose(split.above, chain.factor(4) @ chain.factor(3))
        assert np.allclose(split.below, chain.factor(2) @ chain.factor(1))

    def test_make_split_rejects_non_bottleneck(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=14)
        with pytest.raises(ValueError):
            make_split(chain, 1)  # width 4, not the minimum

    def test_bottleneck_split_picks_smallest_index(self):
        chain = _random_chain((2, 1, 1, 2), seed=15)
        split = bottleneck_split(chain)
        assert split.index == 1

    def test_bottleneck_split_none(self):
        chain = _random_chain((2, 3, 2), seed=16)
        assert bottleneck_split(chain) is None

    def test_boundary_split_products_cover_chain(self):
        chain = _random_chain((3, 2, 4, 3), seed=17)
        split = bottleneck_split(chain)
        assert split.index == 1
        assert np.allclose(split.above @ split.below, end_to_end(chain))


class TestLossContract:
    def test_builtin_losses_pass(self):
        rng = _rng(18)
        validate_loss_contract(
            QuadraticLoss(rng.standard_normal((3, 7)), rng.standard_normal((2, 7))),
            _rng(19),
        )
        validate_loss_contract(LogCoshLoss(rng.standard_normal((2, 3))), _rng(20))

    def test_wrong_gradient_caught(self):
        class Skewed(QuadraticLoss):
            def gradient(self, w):
                return 1.01 * super().gradient(w)

        rng = _rng(21)
        loss = Skewed(rng.standard_normal((2, 5)), rng.standard_normal((2, 5)))
        with pytest.raises(LossContractViolation):
            validate_loss_contract(loss, _rng(22))

    def test_concave_caught(self):
        class Concave(QuadraticLoss):
            def value(self, w):
                return -super().value(w)

            def gradient(self, w):
                return -super().gradient(w)

        rng = _rng(23)
        loss = Concave(rng.standard_normal((2, 5)), rng.standard_normal((2, 5)))
        with pytest.raises(LossContractViolation):
            validate_loss_contract(loss, _rng(24))


class TestChainLoss:
    def test_matches_value_of_product(self):
        chain = _random_chain((3, 4, 2), seed=25)
        rng = _rng(26)
        loss = QuadraticLoss(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)))
        assert chain_loss(chain, loss) == loss.value(end_to_end(chain))

    def test_loss_shape_mismatch_raises(self):
        chain = _random_chain((3, 4, 2), seed=27)
        rng = _rng(28)
        loss = QuadraticLoss(rng.standard_normal((4, 6)), rng.standard_normal((2, 6)))
        with pytest.raises(ShapeMismatchError):
            chain_loss(chain, loss)
