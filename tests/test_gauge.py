"""Symmetries of the product core.

Inserting ``Q Q^T = I`` at an interior layer (``M_i -> Q M_i``,
``M_{i+1} -> M_{i+1} Q^T`` with ``Q`` orthogonal) leaves the end-to-end
product unchanged and rotates the two affected layer gradients, so every
quantity the analysis reports must be invariant.  Reversing the chain and
transposing every factor computes the transposed product, so under the
transposed loss the analysis must agree with the original up to swapping
the two super layers.  The package's mirrored escape walks transposed views
of the chain's own factors instead, from the chain's one bottom-up pass, so
it must make every discrete choice of the reversed chain's escape and agree
with its floats to rounding.  The balanced gauge at the bottleneck cut is
one such insertion, so it must keep the function and every analysis result
too.
"""

import warnings

import numpy as np
from hypothesis import assume, given, strategies as st

from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import InstanceSpec, gen_instance
from dln_landscape.linalg import (
    DEFAULT_INVARIANCE_TOL,
    Tolerances,
    best_rank_approx,
    numerical_rank,
)
from dln_landscape.network import (
    ConvexLoss,
    FactorChain,
    LogCoshLoss,
    QuadraticLoss,
    balance_gauge,
    bottleneck_split,
    chain_loss,
    end_to_end,
    interior_bottleneck,
    layer_gradients,
    running_product,
    validate_loss_contract,
)
from dln_landscape.perturb import (
    escape_construction,
    escape_construction_mirrored,
    reversed_chain,
)

_DIMS = ((3, 4, 2, 4, 3), (2, 3, 1, 4, 2), (4, 5, 2, 3, 4, 3), (3, 2, 3), (2, 1, 1, 2))
# Exactly one interior layer of minimum width, so the reversed chain splits
# at the mirrored index.
_ONE_BOTTLENECK = (
    (3, 4, 2, 4, 3),
    (2, 3, 1, 4, 2),
    (4, 5, 2, 3, 4, 3),
    (3, 2, 3),
    (4, 2, 5, 3, 4),
    (5, 3, 2, 4, 6),
)
# Every feasible (construction, loss) pair: full_rank_critical is quadratic only.
_KINDS = (
    ("generic", "quadratic"),
    ("generic", "logcosh"),
    ("rank_deficient_plateau", "quadratic"),
    ("rank_deficient_plateau", "logcosh"),
    ("full_rank_critical", "quadratic"),
    ("factored_global", "quadratic"),
    ("factored_global", "logcosh"),
)


class TransposedLoss(ConvexLoss):
    """View of a loss acting on the transposed product, ``g(W) = f(W^T)``.

    Convexity and differentiability carry over; the gradient is
    ``f'(W^T)^T``.  The residual is the base loss's residual at ``W^T``.
    Pairs with :func:`reversed_chain`, which computes the transposed product.
    """

    def __init__(self, base: ConvexLoss) -> None:
        self.base = base
        self.out_rows = base.in_cols
        self.in_cols = base.out_rows

    def _residual(self, w: np.ndarray) -> np.ndarray:
        return self.base._residual(w.T)

    def _value(self, r: np.ndarray) -> float:
        return self.base._value(r)

    def _gradient(self, r: np.ndarray) -> np.ndarray:
        return self.base._gradient(r).T


class TestTransposedLoss:
    def test_value_and_gradient_consistency(self):
        rng = np.random.default_rng(4)
        base = QuadraticLoss(rng.standard_normal((3, 6)), rng.standard_normal((2, 6)))
        t = TransposedLoss(base)
        v = rng.standard_normal((3, 2))
        assert t.value(v) == base.value(v.T)
        assert np.array_equal(t.gradient(v), base.gradient(v.T).T)
        assert (t.out_rows, t.in_cols) == (base.in_cols, base.out_rows)

    def test_contract_still_holds(self):
        rng = np.random.default_rng(5)
        base = LogCoshLoss(rng.standard_normal((2, 3)))
        validate_loss_contract(TransposedLoss(base), np.random.default_rng(6))


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _gauge(chain: FactorChain, layer: int, q: np.ndarray) -> FactorChain:
    """``M_layer -> Q M_layer`` and ``M_{layer+1} -> M_{layer+1} Q^T``."""
    factors = list(chain.factors)
    factors[layer - 1] = q @ factors[layer - 1]
    factors[layer] = factors[layer] @ q.T
    return FactorChain(tuple(factors))


def _generic(dims, rng: np.random.Generator, quadratic: bool):
    """A standard-normal chain of widths ``dims`` and a loss drawn from ``rng``."""
    chain = FactorChain(
        tuple(rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1))
    )
    if quadratic:
        loss = QuadraticLoss(rng.standard_normal((dims[0], 5)), rng.standard_normal((dims[-1], 5)))
    else:
        loss = LogCoshLoss(rng.standard_normal((dims[-1], dims[0])))
    return chain, loss


@given(st.sampled_from(_DIMS), st.integers(0, 2**32 - 1), st.integers(0, 2**16), st.booleans())
def test_gradient_norms_and_loss_are_gauge_invariant(dims, seed, pick, quadratic):
    rng = np.random.default_rng(seed)
    chain, loss = _generic(dims, rng, quadratic)
    layer = 1 + pick % (chain.k - 1)
    moved = _gauge(chain, layer, _orthogonal(rng, dims[layer]))

    np.testing.assert_allclose(chain_loss(moved, loss), chain_loss(chain, loss), rtol=1e-10)
    before = [np.linalg.norm(g) for g in layer_gradients(chain, loss)]
    after = [np.linalg.norm(g) for g in layer_gradients(moved, loss)]
    np.testing.assert_allclose(after, before, rtol=1e-10)


@given(
    st.sampled_from(_DIMS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**16),
    st.sampled_from(("quadratic", "logcosh")),
)
def test_plateau_classification_is_gauge_invariant(dims, seed, pick, kind):
    tols = Tolerances()
    inst = gen_instance(
        InstanceSpec(dims=dims, construction="rank_deficient_plateau", loss_kind=kind, seed=seed)
    )
    layer = 1 + pick % (inst.chain.k - 1)
    q = _orthogonal(np.random.default_rng(seed), dims[layer])
    moved = _gauge(inst.chain, layer, q)

    base = classify(inst.chain, inst.loss, tols=tols)
    report = classify(moved, inst.loss, tols=tols)
    assert base.label is Classification.ESCAPABLE_PLATEAU
    assert report.label is base.label
    assert (report.rank_above, report.rank_below) == (base.rank_above, base.rank_below)
    assert report.split_index == base.split_index
    assert abs(report.escape.loss_delta) <= tols.invariance_tol * (1.0 + abs(report.loss))


@given(st.sampled_from(_ONE_BOTTLENECK), st.sampled_from(_KINDS), st.integers(0, 2**32 - 1))
def test_reversal_with_transposed_loss_mirrors_the_classification(dims, kinds, seed):
    tols = Tolerances()
    construction, kind = kinds
    inst = gen_instance(InstanceSpec(dims=dims, construction=construction, loss_kind=kind, seed=seed))
    base = classify(inst.chain, inst.loss, tols=tols)
    mirrored_loss = TransposedLoss(inst.loss)
    mirrored = classify(reversed_chain(inst.chain), mirrored_loss, tols=tols)

    assert mirrored.label is base.label
    assert abs(mirrored.loss - base.loss) <= 1e-12 * (1.0 + abs(base.loss))
    assert (mirrored.rank_above, mirrored.rank_below) == (base.rank_below, base.rank_above)
    assert mirrored.split_index == inst.chain.k - base.split_index
    if mirrored.escape is not None:
        cert = mirrored.escape
        bound = tols.invariance_tol * (1.0 + abs(mirrored.loss))
        assert abs(cert.loss_delta) <= bound
        assert abs(chain_loss(cert.perturbed_chain, mirrored_loss) - mirrored.loss) <= bound
        assert cert.super_gradient_norm > tols.grad_tol


def _lower_deficient(dims, seed: int, quadratic: bool, pick: int):
    """A chain whose lower super layer alone is rank deficient (``M_1`` cut
    to rank ``d - 1``), and a loss whose gradient at its product is
    orthogonal to the range of the product of the top ``top`` layers, with
    ``top`` from ``pick``; so the mirrored walk first finds its rows inside
    the gradient null space at its layer ``top`` (when that is above 0)."""
    rng = np.random.default_rng(seed)
    chain, loss = _generic(dims, rng, quadratic)
    factors = list(chain.factors)
    factors[0] = best_rank_approx(factors[0], min(dims) - 1)
    chain = FactorChain(tuple(factors))
    top = pick % (chain.k - interior_bottleneck(dims) + 1)
    if top == 0:
        return chain, loss
    u, s, _ = np.linalg.svd(running_product(factors[-top:]))
    perp = u[:, numerical_rank(np.diag(s)):]
    grad = perp @ (perp.T @ rng.uniform(-1.0, 1.0, (dims[-1], dims[0])))
    grad *= 0.5 / max(np.abs(grad).max(), 1e-300)
    w = end_to_end(chain)
    if quadratic:
        x = loss.inputs
        return chain, QuadraticLoss(x, w @ x - 0.5 * grad @ np.linalg.solve(x @ x.T, x))
    return chain, LogCoshLoss(w - np.arctanh(grad))


def _outcome(build, chain, loss, delta):
    """The certificate ``build`` returns, or the type of what it raises."""
    try:
        return build(chain, loss, delta=delta)
    except (ValueError, RuntimeError) as exc:  # the package's refusals
        return type(exc)


@given(
    st.sampled_from(_ONE_BOTTLENECK),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(0, 3),
    st.sampled_from((None, 1e-3, 0.1)),
)
def test_mirrored_escape_matches_the_reversed_escape(dims, seed, quadratic, pick, delta):
    # The mirrored escape reads the chain's own bottom-up pass, the reversed
    # chain's escape a pass built top-down, so their floats agree to
    # rounding while every discrete choice of the walk agrees exactly.
    chain, loss = _lower_deficient(dims, seed, quadratic, pick)
    split = bottleneck_split(chain)
    assume(numerical_rank(split.above) == split.width > numerical_rank(split.below))

    cert = _outcome(escape_construction_mirrored, chain, loss, delta)
    rev = _outcome(escape_construction, reversed_chain(chain), TransposedLoss(loss), delta)
    if isinstance(cert, type) or isinstance(rev, type):
        assert cert is rev
        return
    assert (cert.side, rev.side) == ("above", "below")
    assert (cert.containment_start, cert.witness_row) == (rev.containment_start, rev.witness_row)
    assert cert.delta == rev.delta
    assert abs(cert.original_loss - rev.original_loss) <= 1e-12 * (1.0 + abs(rev.original_loss))
    for c in (cert, rev):
        assert abs(c.loss_delta) <= DEFAULT_INVARIANCE_TOL * (1.0 + abs(c.original_loss))
    k = chain.k
    for i, m in enumerate(cert.perturbed_chain.factors):
        r = rev.perturbed_chain.factors[k - 1 - i].T
        assert np.linalg.norm(m - r) <= 1e-12 * (1.0 + np.linalg.norm(r))
    assert len(cert.family) == len(rev.family)
    for p, q in zip(cert.family, reversed(rev.family)):
        assert p.layer == k + 1 - q.layer
        assert np.array_equal(p.w != 0.0, q.v != 0.0)


@given(st.sampled_from(_DIMS), st.integers(0, 2**32 - 1), st.booleans())
def test_balance_gauge_equalizes_the_super_layer_grams(dims, seed, quadratic):
    chain, loss = _generic(dims, np.random.default_rng(seed), quadratic)
    balanced = FactorChain(tuple(balance_gauge(chain.factors)))
    product = end_to_end(chain)
    bound = DEFAULT_INVARIANCE_TOL * (1.0 + np.linalg.norm(product))
    assert np.linalg.norm(end_to_end(balanced) - product) <= bound

    j = interior_bottleneck(chain.widths)
    upper = running_product(balanced.factors[j:])
    lower = running_product(balanced.factors[:j])
    lower_gram, upper_gram = lower @ lower.T, upper.T @ upper
    assert np.linalg.norm(lower_gram - upper_gram) <= 1e-8 * np.linalg.norm(lower_gram)

    base = classify(chain, loss)
    report = classify(balanced, loss)
    assert report.label is base.label
    assert (report.rank_above, report.rank_below) == (base.rank_above, base.rank_below)
    assert report.split_index == base.split_index


def _cut_chain(d, below, above, rng, deficient):
    """A chain whose one interior minimum width ``d`` sits after ``below``
    layers, with ``above`` layers over it and outer widths ``d + 1 .. d + 3``.
    A super layer named in ``deficient`` is exactly rank deficient: the
    layer next to the cut has its last row (below) or column (above) equal
    to twice its first one, or zero when ``d == 1``, and scaling by two
    commutes with rounding, so the super layer's product shares it."""
    widths = [int(w) for w in d + rng.integers(1, 4, size=below)]
    widths += [d] + [int(w) for w in d + rng.integers(1, 4, size=above)]
    mats = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(len(widths) - 1)]
    scale = 2.0 if d > 1 else 0.0
    if "lower" in deficient:
        mats[below - 1][d - 1] = scale * mats[below - 1][0]
    if "upper" in deficient:
        mats[below][:, d - 1] = scale * mats[below][:, 0]
    return mats


_DEFICIENT = ((), ("lower",), ("upper",), ("lower", "upper"))


@given(
    st.sampled_from((1, 2, 3, 8, 9, 10)),
    st.integers(1, 2),
    st.integers(1, 2),
    st.sampled_from(_DEFICIENT),
    st.integers(0, 2**32 - 1),
)
def test_balance_gauge_refuses_a_super_layer_below_full_rank(d, below, above, deficient, seed):
    mats = _cut_chain(d, below, above, np.random.default_rng(seed), deficient)
    assert interior_bottleneck((mats[0].shape[1],) + tuple(m.shape[0] for m in mats)) == below
    ranks = {
        "lower": numerical_rank(running_product(mats[:below])),
        "upper": numerical_rank(running_product(mats[below:])),
    }
    for side in deficient:
        assert ranks[side] < d, side
    balanced = balance_gauge(mats)
    assert len(balanced) == len(mats)
    if min(ranks.values()) < d:
        assert all(got is want for got, want in zip(balanced, mats))
    else:
        product = running_product(mats)
        bound = DEFAULT_INVARIANCE_TOL * (1.0 + np.linalg.norm(product))
        assert np.linalg.norm(running_product(balanced) - product) <= bound


def _sqrt_pair(s: np.ndarray):
    """``S^{1/2}`` and ``S^{-1/2}`` of a symmetric matrix from one ``eigh``,
    or ``None`` unless ``S`` is finite and every eigenvalue is positive."""
    if not np.isfinite(s).all():
        return None
    w, v = np.linalg.eigh(s)
    if not w[0] > 0.0:
        return None
    r = np.sqrt(w)
    return (v * r) @ v.T, (v / r) @ v.T


def _reference_gauge(factors):
    """The balanced gauge from three ``eigh``: ``G = X^{1/2}``, with ``X``
    the matrix geometric mean of ``(B B^T)^{-1}`` and ``A^T A``, behind the
    rank tests and product bound of :func:`balance_gauge`."""
    mats = list(factors)
    j = interior_bottleneck((mats[0].shape[1],) + tuple(m.shape[0] for m in mats))
    if j is None:
        return mats
    with np.errstate(over="ignore", invalid="ignore"):
        upper, lower = running_product(mats[j:]), running_product(mats[:j])
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            return mats
        d = lower.shape[0]
        if numerical_rank(upper) < d or numerical_rank(lower) < d:
            return mats
        lower_gram = _sqrt_pair(lower @ lower.T)
        if lower_gram is None:
            return mats
        half, inv_half = lower_gram
        middle = _sqrt_pair(half @ (upper.T @ upper) @ half)
        if middle is None:
            return mats
        gauge = _sqrt_pair(inv_half @ middle[0] @ inv_half)
        if gauge is None:
            return mats
        gauged = list(mats)
        gauged[j - 1] = gauge[0] @ mats[j - 1]
        gauged[j] = mats[j] @ gauge[1]
        product = running_product(mats)
        drift = np.linalg.norm(running_product(gauged) - product)
        bound = DEFAULT_INVARIANCE_TOL * (1.0 + np.linalg.norm(product))
    return gauged if drift <= bound else mats


_GAUGE_CASES = st.one_of(
    st.builds(
        lambda dims, seed: list(_generic(dims, np.random.default_rng(seed), True)[0].factors),
        st.sampled_from(_DIMS),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(
        lambda d, below, above, deficient, seed: _cut_chain(
            d, below, above, np.random.default_rng(seed), deficient
        ),
        st.sampled_from((1, 2, 3, 8, 9, 10)),
        st.integers(1, 2),
        st.integers(1, 2),
        st.sampled_from(_DEFICIENT),
        st.integers(0, 2**32 - 1),
    ),
)


@given(_GAUGE_CASES)
def test_balance_gauge_agrees_with_the_three_eigh_reference(mats):
    # The two gauges differ by an orthogonal factor at the cut, which
    # cancels in the outer Gram matrices of the two super layers.
    got, want = balance_gauge(mats), _reference_gauge(mats)
    kept = all(g is m for g, m in zip(got, mats))
    assert kept == all(w is m for w, m in zip(want, mats))
    if kept:
        return
    j = interior_bottleneck((mats[0].shape[1],) + tuple(m.shape[0] for m in mats))
    lower, upper = running_product(got[:j]), running_product(got[j:])
    ref_lower, ref_upper = running_product(want[:j]), running_product(want[j:])
    for gram, ref in ((lower.T @ lower, ref_lower.T @ ref_lower), (upper @ upper.T, ref_upper @ ref_upper.T)):
        assert np.linalg.norm(gram - ref) <= 1e-10 * np.linalg.norm(ref)
    inner = lower @ lower.T
    assert np.linalg.norm(inner - upper.T @ upper) <= 1e-10 * np.linalg.norm(inner)


def _breaching_chain() -> FactorChain:
    """Widths 2-1-2-2-2 whose gauge breaches the product bound on every
    kernel.  ``M_3 = M_4 = diag(1e30, 1e180)`` lift both rows of
    ``M_2 = (1, 1e-300)^T`` to 1e60, so the gauge at the width-1 cut scales
    ``M_2`` by about 1e-30.  Its second entry becomes about 1e-330 and
    underflows to zero, six orders below the smallest subnormal, while the
    original product forms ``M_2 M_1`` first, 1e-300 times ``M_1``, and
    keeps that row: the gauged product loses its second row."""
    scale = np.diag([1e30, 1e180])
    return FactorChain((np.array([[1.0, 2.0]]), np.array([[1.0], [1e-300]]), scale, scale))


def _unchanged_cases():
    no_bottleneck = _generic((2, 3, 4), np.random.default_rng(1), True)[0]
    assert interior_bottleneck(no_bottleneck.widths) is None
    plateau = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), construction="rank_deficient_plateau", seed=1))
    assert numerical_rank(running_product(plateau.chain.factors[2:])) < 2
    breaching = _breaching_chain()
    # Both super layers have full rank and every gauge quantity is finite,
    # so only the product bound refuses it.
    assert numerical_rank(running_product(breaching.factors[1:])) == 1
    assert numerical_rank(breaching.factors[0]) == 1
    assert np.isfinite(end_to_end(breaching)).all()
    # Both super layers are finite and of full rank, but their product is not.
    rng = np.random.default_rng(0)
    overflowing = FactorChain((1e200 * rng.standard_normal((3, 4)), 1e200 * rng.standard_normal((4, 3))))
    return no_bottleneck, plateau.chain, breaching, overflowing


def test_balance_gauge_leaves_ineligible_chains_bitwise_unchanged():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chain in _unchanged_cases():
            balanced = balance_gauge(chain.factors)
            assert len(balanced) == chain.k
            for got, want in zip(balanced, chain.factors):
                assert got.tobytes() == want.tobytes()
