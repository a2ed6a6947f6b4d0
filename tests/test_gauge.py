"""Symmetries of the product core.

Inserting ``Q Q^T = I`` at an interior layer (``M_i -> Q M_i``,
``M_{i+1} -> M_{i+1} Q^T`` with ``Q`` orthogonal) leaves the end-to-end
product unchanged and rotates the two affected layer gradients, so every
quantity the analysis reports must be invariant.  Reversing the chain and
transposing every factor computes the transposed product, so under the
transposed loss the analysis must agree with the original up to swapping
the two super layers.
"""

import numpy as np
from hypothesis import given, strategies as st

from dln_landscape.analyze import Classification, classify
from dln_landscape.harness import InstanceSpec, gen_instance
from dln_landscape.linalg import Tolerances
from dln_landscape.network import (
    FactorChain,
    LogCoshLoss,
    QuadraticLoss,
    TransposedLoss,
    chain_loss,
    layer_gradients,
)
from dln_landscape.perturb import reversed_chain

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


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _gauge(chain: FactorChain, layer: int, q: np.ndarray) -> FactorChain:
    """``M_layer -> Q M_layer`` and ``M_{layer+1} -> M_{layer+1} Q^T``."""
    factors = list(chain.factors)
    factors[layer - 1] = q @ factors[layer - 1]
    factors[layer] = factors[layer] @ q.T
    return FactorChain(tuple(factors))


@given(st.sampled_from(_DIMS), st.integers(0, 2**32 - 1), st.integers(0, 2**16), st.booleans())
def test_gradient_norms_and_loss_are_gauge_invariant(dims, seed, pick, quadratic):
    rng = np.random.default_rng(seed)
    chain = FactorChain(
        tuple(rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1))
    )
    if quadratic:
        loss = QuadraticLoss(rng.standard_normal((dims[0], 5)), rng.standard_normal((dims[-1], 5)))
    else:
        loss = LogCoshLoss(rng.standard_normal((dims[-1], dims[0])))
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

    base = classify(inst.chain, inst.loss, tols=tols, compute_oracle_gap=False)
    report = classify(moved, inst.loss, tols=tols, compute_oracle_gap=False)
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
    base = classify(inst.chain, inst.loss, tols=tols, compute_oracle_gap=False)
    mirrored_loss = TransposedLoss(inst.loss)
    mirrored = classify(reversed_chain(inst.chain), mirrored_loss, tols=tols, compute_oracle_gap=False)

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
