import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dln_landscape.harness import InstanceSpec
from dln_landscape.network import (
    BottleneckSplit,
    FactorChain,
    LogCoshLoss,
    LossContractViolation,
    NoInteriorBottleneckError,
    QuadraticLoss,
    ShapeMismatchError,
    _norm,
    _sum_squares,
    bottleneck_split,
    chain_loss,
    end_to_end,
    layer_gradients,
    make_split,
    partial_product,
    gradient_core,
    interior_bottleneck,
    prefix_products,
    running_product,
    validate_loss_contract,
)


def suffix_products(mats, lowest: int) -> dict[int, np.ndarray]:
    """The products ``M_k ... M_{i+1}`` above layer ``i``, keyed by ``i``,
    for ``i`` from ``k - 1`` down to ``lowest``: ``M_k`` itself, then each
    entry times ``M_{i+1}``, accumulated from the top.  Layer ``k`` gets no
    entry.  The reference gradient formula below is built on them."""
    k = len(mats)
    above = {k - 1: mats[-1]} if lowest < k else {}
    for i in range(k - 2, lowest - 1, -1):
        above[i] = above[i + 1].dot(mats[i])
    return above


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
    """The widths ``d_0, ..., d_k`` of a chain and its interior bottleneck."""

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
        assert interior_bottleneck(widths) == expected

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError, match="at least 2 layers"):
            InstanceSpec((3, 2))
        with pytest.raises(ValueError, match="widths must be positive"):
            InstanceSpec((3, 0, 3))


class TestFactorChain:
    def test_shapes_and_indexing(self):
        chain = _random_chain((3, 4, 2))
        assert chain.k == 2
        assert chain.widths == (3, 4, 2)
        assert chain.factor(1).shape == (4, 3)
        assert chain.factor(2).shape == (2, 4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            FactorChain((np.ones((4, 3)), np.ones((2, 5))))

    def test_needs_two_factors(self):
        with pytest.raises(ValueError):
            FactorChain((np.ones((2, 2)),))

    @pytest.mark.parametrize("shapes", [((0, 3), (2, 0)), ((4, 3), (0, 4)), ((4, 0), (2, 4))])
    def test_refuses_an_empty_factor(self, shapes):
        with pytest.raises(ValueError, match="empty"):
            FactorChain(tuple(np.ones(shape) for shape in shapes))

    def test_factors_are_read_only_copies(self):
        m = np.ones((4, 3))
        chain = FactorChain((m, np.ones((2, 4))))
        m[0, 0] = 99.0
        assert chain.factor(1)[0, 0] == 1.0
        with pytest.raises(ValueError):
            chain.factor(1)[0, 0] = 5.0

    def test_a_chain_of_another_chains_factors_shares_them(self):
        chain = _random_chain((3, 4, 2, 5))
        again = FactorChain(chain.factors)
        assert all(a is b for a, b in zip(again.factors, chain.factors))
        edited = chain.with_factor(2, np.zeros((2, 4)))
        assert edited.factors[0] is chain.factors[0] and edited.factors[2] is chain.factors[2]
        loss = QuadraticLoss(chain.factors[0], np.ones((4, 3)))
        assert loss.inputs is chain.factors[0]

    def test_a_writable_input_is_still_copied(self):
        m = np.ones((4, 3))
        chain = FactorChain((m, np.ones((2, 4))))
        assert chain.factor(1) is not m and not np.shares_memory(chain.factor(1), m)
        m[:] = 7.0
        assert (chain.factor(1) == 1.0).all()

    @pytest.mark.parametrize("make", ["read-only view of a writable array",
                                      "read-only view of a read-only array",
                                      "read-only float32 array"])
    def test_a_read_only_array_that_is_not_float64_or_owned_is_copied(self, make):
        base = np.arange(12.0).reshape(4, 3)
        if make == "read-only view of a writable array":
            m = base.view()
        elif make == "read-only view of a read-only array":
            base.flags.writeable = False
            m = base[:, :]
        else:
            m = base.astype(np.float32)
        m.flags.writeable = False
        chain = FactorChain((m, np.ones((2, 4))))
        held = chain.factor(1)
        assert held is not m and held.flags.owndata and not held.flags.writeable
        assert held.dtype == np.float64 and np.array_equal(held, base)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_frozen_owned_array_that_is_not_finite_is_refused(self, bad):
        m = np.ones((4, 3))
        m[2, 1] = bad
        m.flags.writeable = False
        with pytest.raises(ValueError, match="non-finite"):
            FactorChain((m, np.ones((2, 4))))
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticLoss(m, np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            LogCoshLoss(m)

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

    def test_prefix_and_suffix_products_bracket_every_layer(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=31)
        below = prefix_products(chain.factors)
        above = suffix_products(chain.factors, 1)
        assert len(below) == chain.k and sorted(above) == list(range(1, chain.k))
        assert below[0] is chain.factors[0] and above[chain.k - 1] is chain.factors[-1]
        assert np.array_equal(below[-1], running_product(chain.factors))
        for i in range(1, chain.k + 1):
            assert np.allclose(below[i - 1], partial_product(chain, 1, i), rtol=1e-12, atol=1e-12)
        for i in range(1, chain.k):
            assert np.allclose(above[i], partial_product(chain, i + 1, chain.k),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(above[i] @ below[i - 1], end_to_end(chain), rtol=1e-12, atol=1e-12)

    def test_suffix_products_stop_at_the_lowest_layer(self):
        chain = _random_chain((3, 4, 2, 4, 3, 2), seed=32)
        assert sorted(suffix_products(chain.factors, 3)) == [3, 4]
        assert suffix_products(chain.factors, chain.k) == {}

    def test_gradient_core_on_a_subset_of_layers(self):
        chain = _random_chain((3, 4, 2, 4, 3), seed=33)
        rng = _rng(34)
        loss = QuadraticLoss(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))
        below = prefix_products(chain.factors)
        grads = gradient_core(chain.factors, below, loss.gradient(below[-1]), [4, 2])
        assert list(grads) == [4, 2]
        every = layer_gradients(chain, loss)
        for i, g in grads.items():
            assert np.array_equal(g, every[i - 1])


def _suffix_gradient_core(mats, below, grad, layers):
    """The layer-gradient formula that the backward sweep replaced, kept as
    the reference: suffix products ``M_k ... M_{i+1}`` formed top down, then
    two products per layer, ``above^T f'(W)`` and that times ``below^T``."""
    k = len(mats)
    above = suffix_products(mats, min(layers))
    grads = {}
    for i in layers:
        g = grad if i == k else above[i].T.dot(grad)
        grads[i] = g if i == 1 else g.dot(below[i - 2].T)
    return grads


class _CountedDot(np.ndarray):
    """An array that counts its ``dot`` calls in ``_CountedDot.calls``;
    products, transposes and views of it are of this class too."""

    calls = 0

    def dot(self, other):
        _CountedDot.calls += 1
        return super().dot(other)


class TestBackwardSweep:
    """``gradient_core`` against the suffix-product formula, on every
    non-empty sorted subset of layers of chains of depth 1 to 6."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 5), min_size=2, max_size=7))
    def test_matches_the_suffix_formula_with_one_product_per_layer(self, seed, widths):
        rng = _rng(seed)
        k = len(widths) - 1
        mats = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(k)]
        below = prefix_products(mats)
        grad = rng.standard_normal((widths[-1], widths[0]))
        norms = [np.linalg.norm(m) for m in mats]
        counted = [m.view(_CountedDot) for m in mats]
        counted_below = [b.view(_CountedDot) for b in below]
        for size in range(1, k + 1):
            for layers in itertools.combinations(range(1, k + 1), size):
                grads = gradient_core(mats, below, grad, layers)
                reference = _suffix_gradient_core(mats, below, grad, layers)
                assert list(grads) == list(layers)
                for i in layers:
                    if k <= 2:
                        assert grads[i].tobytes() == reference[i].tobytes()
                    scale = np.linalg.norm(grad) * math.prod(norms[:i - 1] + norms[i:])
                    assert np.abs(grads[i] - reference[i]).max() <= 1e-12 * scale
                _CountedDot.calls = 0
                gradient_core(counted, counted_below, grad.view(_CountedDot), layers)
                assert _CountedDot.calls == (k - layers[0]) + len(layers) - (layers[0] == 1)
                assert list(gradient_core(mats, below, grad, layers[::-1])) == list(layers[::-1])


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
            def _value(self, r):
                return -super()._value(r)

            def _gradient(self, r):
                return -super()._gradient(r)

        rng = _rng(23)
        loss = Concave(rng.standard_normal((2, 5)), rng.standard_normal((2, 5)))
        with pytest.raises(LossContractViolation, match="midpoint convexity"):
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


def _operand(rng: np.random.Generator, rows: int, cols: int, layout: str) -> np.ndarray:
    """A ``rows x cols`` operand: C-contiguous, Fortran-ordered, or the
    transpose of a C-contiguous array."""
    if layout == "C":
        return rng.standard_normal((rows, cols))
    if layout == "F":
        return np.asfortranarray(rng.standard_normal((rows, cols)))
    return rng.standard_normal((cols, rows)).T


_WIDTH = st.one_of(st.integers(1, 8), st.integers(1, 192))
_LAYOUT = st.sampled_from("CFT")


class TestDotIsMatmul:
    """The package multiplies with ``ndarray.dot``, not ``@``, and keeps the
    bytes ``@`` gave.  That rests on one condition, checked here for the
    installed numpy and BLAS: for float64 operands that are contiguous or
    transposes of contiguous arrays, both routes make the same cblas call
    (gemm, gemv, or syrk for a Gram pair), so their results agree bit for
    bit.  Strided views are outside the condition: there the routes may
    differ, and none of the package's own arrays is one."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), _WIDTH, _WIDTH, _WIDTH, _LAYOUT, _LAYOUT)
    def test_matrix_products(self, seed, m, k, n, left, right):
        rng = _rng(seed)
        a, b = _operand(rng, m, k, left), _operand(rng, k, n, right)
        assert a.dot(b).tobytes() == (a @ b).tobytes()

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), _WIDTH, _WIDTH, _LAYOUT)
    def test_gram_pairs(self, seed, rows, cols, layout):
        m = _operand(_rng(seed), rows, cols, layout)
        assert m.T.dot(m).tobytes() == (m.T @ m).tobytes()
        assert m.dot(m.T).tobytes() == (m @ m.T).tobytes()

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), _WIDTH, _WIDTH, _LAYOUT)
    def test_matrix_vector_products(self, seed, rows, cols, layout):
        rng = _rng(seed)
        a = _operand(rng, rows, cols, layout)
        v, w = rng.standard_normal(cols), rng.standard_normal(rows)
        assert a.dot(v).tobytes() == (a @ v).tobytes()
        assert w.dot(a).tobytes() == (w @ a).tobytes()


class TestSumSquares:
    """One reduction per array: ``_norm`` is the root of ``_sum_squares``,
    bitwise, and both are what ``np.linalg.norm`` computes."""

    @given(st.integers(0, 2**32 - 1), _WIDTH, _WIDTH, _LAYOUT)
    def test_norm_is_the_root_of_the_sum_of_squares(self, seed, rows, cols, layout):
        a = _operand(_rng(seed), rows, cols, layout)
        assert _norm(a) == math.sqrt(_sum_squares(a)) == np.linalg.norm(a)
        assert _sum_squares(a) == pytest.approx(float(np.add.reduce(a * a, None)), rel=1e-13)

    @given(st.integers(0, 2**32 - 1), _WIDTH, _WIDTH, st.sampled_from("CFT1r"))
    def test_norm_is_np_linalg_norm_byte_for_byte(self, seed, rows, cols, form):
        # 1-D: a vector, or a row of a matrix as the escape walk takes it.
        rng = _rng(seed)
        if form == "1":
            a = rng.standard_normal(rows * cols)
        elif form == "r":
            a = rng.standard_normal((rows, cols))[rows // 2]
        else:
            a = _operand(rng, rows, cols, form)
        assert np.float64(_norm(a)).tobytes() == np.linalg.norm(a).tobytes()
