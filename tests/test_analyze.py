import numpy as np
import pytest
from hypothesis import given, strategies as st

from dln_landscape import analyze, network, perturb
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
from dln_landscape.linalg import DEFAULT_GRAD_TOL, Tolerances, best_rank_approx, numerical_rank
from dln_landscape.network import (
    FactorChain,
    LogCoshLoss,
    NoInteriorBottleneckError,
    QuadraticLoss,
    bottleneck_split,
    chain_loss,
    end_to_end,
    layer_gradients,
)
from dln_landscape.optim import armijo_gd
from dln_landscape.perturb import (
    ConstructionFailedError,
    escape_construction,
    escape_construction_mirrored,
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
        # The reduction is literally the two-layer chain (below, above).
        two_layer = layer_gradients(FactorChain((split.below, split.above)), inst.loss)
        assert g_above.tobytes() == two_layer[1].tobytes()
        assert g_below.tobytes() == two_layer[0].tobytes()

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
        better = descent_search(chain, loss, report, budget=500, target=2.0 - 1e-3)
        assert chain_loss(better, loss) < 2.0 - 1e-3

    def test_negative_budget_rejected(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        with pytest.raises(ValueError, match="budget must be non-negative, got -1"):
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

    @pytest.mark.parametrize("dims", [(3, 4, 2, 4, 3), (4, 5, 2, 5, 4)], ids=("k4", "k4-wide"))
    @pytest.mark.parametrize("loss_kind", ("quadratic", "logcosh"))
    def test_returns_the_first_iterate_at_the_required_decrease(self, dims, loss_kind):
        # The full-budget descent from the certificate, every iterate kept:
        # the search returns the first one at or below ``required``, also
        # when its ``target`` lies above ``required``.
        shortened = 0
        for seed in range(4):
            inst = gen_instance(InstanceSpec(dims=dims, construction="rank_deficient_plateau",
                                             loss_kind=loss_kind, seed=seed))
            report = classify(inst.chain, inst.loss)
            assert report.label is Classification.ESCAPABLE_PLATEAU
            cut, k = report.split_index, inst.chain.k
            active = range(cut + 1, k + 1) if report.escape.side == "below" else range(1, cut + 1)
            iterates = []
            armijo_gd(report.escape.perturbed_chain.factors, inst.loss, active, 500, DEFAULT_GRAD_TOL,
                      on_state=lambda step, f, value, g: iterates.append(([m.copy() for m in f], value)))
            required = report.loss - max(1e-12, 1e-6 * abs(report.loss))
            first = next(i for i, (_, value) in enumerate(iterates) if value <= required)
            shortened += first < len(iterates) - 1
            for target in (None, report.loss):
                better = descent_search(inst.chain, inst.loss, report, target=target)
                assert chain_loss(better, inst.loss) <= required
                for got, want in zip(better.factors, iterates[first][0], strict=True):
                    assert got.tobytes() == want.tobytes()
        assert shortened > 0

    def test_mirrored_descent_succeeds(self):
        chain = FactorChain(
            (np.zeros((1, 2)), np.array([[1.0]]), np.array([[1.0], [0.0]]))
        )
        loss = QuadraticLoss(np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]))
        report = classify(chain, loss)
        better = descent_search(chain, loss, report, budget=500)
        assert chain_loss(better, loss) < report.loss


_OVERFLOW_MESSAGE = "the loss or its gradient at the end-to-end product overflows"


def _huge(construction: str, where: str):
    """A 1e160-scaled instance: with ``where == "data"`` the data are finite
    and so is the product, but ``|W X - Y|²`` overflows; with ``"factors"``
    every factor is scaled instead, and a generic chain's prefix products
    overflow."""
    scale = 1e160 if where == "data" else 1.0
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), construction=construction,
                                     seed=1, data_scale=scale))
    if where == "data":
        return inst.chain, inst.loss
    return FactorChain(tuple(1e160 * m for m in inst.chain.factors)), inst.loss


@pytest.mark.parametrize("construction, where", (
    ("generic", "data"), ("rank_deficient_plateau", "data"), ("generic", "factors"),
))
@pytest.mark.parametrize("analysis", (classify, escape_construction, escape_construction_mirrored))
def test_an_overflowing_loss_is_refused(analysis, construction, where):
    # Warnings are errors in this suite, so the refusal is also quiet.
    with pytest.raises(ValueError, match=_OVERFLOW_MESSAGE):
        analysis(*_huge(construction, where))


@pytest.mark.parametrize("analysis", (classify, escape_construction, escape_construction_mirrored))
def test_a_default_delta_that_overflows_fails_the_construction(analysis):
    # The plateau's product is zero, but the default delta, 1e-3 times the
    # largest factor norm, overflows: the certificate fails, naming it.
    with pytest.raises(ConstructionFailedError, match="perturbed chain overflows at delta inf"):
        analysis(*_huge("rank_deficient_plateau", "factors"))


@pytest.mark.parametrize("construction, label", (
    ("generic", Classification.NOT_CRITICAL),
    ("rank_deficient_plateau", Classification.ESCAPABLE_PLATEAU),
))
def test_a_finite_logcosh_loss_on_huge_data_keeps_its_label(construction, label):
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), construction=construction,
                                     loss_kind="logcosh", seed=1, data_scale=1e160))
    assert classify(inst.chain, inst.loss).label is label


def _count_first_order_calls(monkeypatch, chain, loss) -> dict:
    """The loss-core calls and the ``network.prefix_products`` builds over
    the chain's own factors, or over the views ``M_k^T, ..., M_2^T`` of all
    but its first, that one ``classify`` of ``chain`` makes."""
    calls = {"_gradient": 0, "_value": 0, "_residual": 0, "prefix_products": 0,
             "view_prefix_products": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_gradient", "_value", "_residual"):
        monkeypatch.setattr(loss, name, counted(name, getattr(loss, name)))
    own, real = chain.factors, network.prefix_products

    def prefix_products(mats):
        if len(mats) == len(own) and all(a is b for a, b in zip(mats, own)):
            calls["prefix_products"] += 1
        if len(mats) == len(own) - 1 and all(a.base is b for a, b in zip(mats, own[:0:-1])):
            calls["view_prefix_products"] += 1
        return real(mats)

    for module in (network, analyze, perturb):
        monkeypatch.setattr(module, "prefix_products", prefix_products)
    report = classify(chain, loss)
    assert report.label is Classification.ESCAPABLE_PLATEAU
    return calls


@pytest.mark.parametrize("kind", ("quadratic", "logcosh"))
def test_classify_makes_one_first_order_pass(monkeypatch, kind):
    inst = gen_instance(InstanceSpec((3, 4, 2, 4, 3), construction="rank_deficient_plateau",
                                     loss_kind=kind, seed=1))
    calls = _count_first_order_calls(monkeypatch, inst.chain, inst.loss)
    # One pass at the product, one gradient at above·below, one value at
    # the perturbed product, and one pass over the views for the kernels.
    assert calls == {"_gradient": 2, "_value": 2, "_residual": 3, "prefix_products": 1,
                     "view_prefix_products": 1}


def test_mirrored_classify_makes_one_first_order_pass(monkeypatch):
    # The seed-11 chain with layers 1 and 2 zeroed escapes on the above
    # side, from the same two passes as a below-side escape: there the
    # view pass gives the walk's products.
    base = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=11))
    chain = base.chain.with_factor(1, np.zeros((4, 3))).with_factor(2, np.zeros((2, 4)))
    calls = _count_first_order_calls(monkeypatch, chain, base.loss)
    assert calls == {"_gradient": 2, "_value": 2, "_residual": 3, "prefix_products": 1,
                     "view_prefix_products": 1}


def _certificate_bytes(cert) -> list:
    floats = (cert.delta, cert.super_gradient_norm, cert.loss_delta, cert.original_loss)
    return [
        cert.side, cert.witness_row, cert.containment_start, *(x.hex() for x in floats),
        *(m.tobytes() for m in cert.perturbed_chain.factors),
        *((p.layer, p.w.tobytes(), p.v.tobytes()) for p in cert.family),
    ]


@given(
    st.sampled_from(((3, 4, 2, 4, 3), (2, 3, 1, 4, 2), (4, 5, 2, 3, 4, 3), (3, 2, 3), (2, 1, 1, 2))),
    st.sampled_from(("quadratic", "logcosh")),
    st.integers(0, 2**32 - 1),
    st.sampled_from((None, 1e-3)),
)
def test_classify_certificate_is_the_escape_construction_bit_for_bit(dims, kind, seed, delta):
    tols = Tolerances()
    inst = gen_instance(InstanceSpec(dims=dims, construction="rank_deficient_plateau",
                                     loss_kind=kind, seed=seed))
    try:
        got = classify(inst.chain, inst.loss, tols=tols, delta=delta).escape
    except (ValueError, RuntimeError) as exc:  # the package's refusals
        with pytest.raises(type(exc)):
            escape_construction(inst.chain, inst.loss, delta=delta, tols=tols)
        return
    want = escape_construction(inst.chain, inst.loss, delta=delta, tols=tols)
    assert _certificate_bytes(got) == _certificate_bytes(want)


def _lower_deficient_critical(dims, kind: str, seed: int):
    """A critical chain whose lower super layer alone is rank deficient.

    ``M_1`` of a generic chain is cut to rank ``d - 1``.  With ``U`` an
    orthonormal basis orthogonal to the range of the upper super layer,
    ``V`` one orthogonal to the row space of the lower one and ``R = U Z
    V^T``, the quadratic targets ``W X + R (X X^T)^{-1} X / 2`` make the
    convex gradient ``-R``, and the log-cosh target ``W - artanh(-c R)``
    makes it ``-c R``; either kills every layer gradient."""
    inst = gen_instance(InstanceSpec(dims=dims, loss_kind=kind, seed=seed))
    factors = list(inst.chain.factors)
    factors[0] = best_rank_approx(factors[0], min(dims) - 1)
    chain = FactorChain(tuple(factors))
    split = bottleneck_split(chain)
    u = np.linalg.svd(split.above)[0][:, numerical_rank(split.above):]
    v = np.linalg.svd(split.below)[2][numerical_rank(split.below):].T
    r = u @ np.random.default_rng(seed).standard_normal((u.shape[1], v.shape[1])) @ v.T
    w = end_to_end(chain)
    if kind == "quadratic":
        x = inst.loss.inputs
        return chain, QuadraticLoss(x, w @ x + 0.5 * r @ np.linalg.solve(x @ x.T, x))
    return chain, LogCoshLoss(w - np.arctanh(-0.5 * r / np.abs(r).max()))


@given(
    st.sampled_from(((3, 4, 2, 4, 3), (2, 3, 1, 4, 2), (4, 5, 2, 3, 4, 3), (3, 2, 3), (2, 1, 1, 2),
                     (5, 3, 2, 4, 6))),
    st.sampled_from(("quadratic", "logcosh")),
    st.integers(0, 2**32 - 1),
    st.sampled_from((None, 1e-3)),
)
def test_mirrored_certificate_starts_from_the_reports_loss(dims, kind, seed, delta):
    tols = Tolerances()
    chain, loss = _lower_deficient_critical(dims, kind, seed)
    report = classify(chain, loss, tols=tols, delta=delta)
    assert report.label is Classification.ESCAPABLE_PLATEAU
    assert report.escape.side == "above"
    assert report.escape.original_loss.hex() == report.loss.hex()
    want = escape_construction_mirrored(chain, loss, delta=delta, tols=tols)
    assert _certificate_bytes(report.escape) == _certificate_bytes(want)
