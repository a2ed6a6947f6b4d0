import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dln_landscape.analyze import super_gradients
from dln_landscape.harness import InstanceSpec, gen_instance
from dln_landscape.linalg import (
    RankDeficientLiftError,
    Tolerances,
    best_rank_approx,
    min_norm_right_solve,
    numerical_rank,
)
from dln_landscape.network import (
    FactorChain,
    LogCoshLoss,
    QuadraticLoss,
    bottleneck_split,
    chain_loss,
    end_to_end,
    layer_gradients,
    make_split,
    partial_product,
)
from dln_landscape.perturb import (
    ConstructionFailedError,
    FullRankAboveError,
    GradientVanishesError,
    RankOnePerturbation,
    apply_family,
    default_delta,
    escape_construction,
    escape_construction_mirrored,
    kernel_family,
    lift_perturbation,
    reversed_chain,
    subspace_membership,
)
from dln_landscape.verify import canonical_plateau


def _plateau(dims, seed, kind="quadratic"):
    return gen_instance(
        InstanceSpec(dims=dims, construction="rank_deficient_plateau", loss_kind=kind, seed=seed)
    )


def _cut_critical(seed: int, kind: str = "quadratic", side: str = "below"):
    """A critical generic chain 8–16 wide with one super layer of rank
    ``d - 1``: its top factor is cut to that rank for ``side == "below"``
    (the lower super layer escapes), its bottom factor for ``"above"``.

    With ``U`` an orthonormal basis orthogonal to the range of the upper
    super layer, ``V`` one orthogonal to the row space of the lower one and
    ``R = U Z V^T``, the quadratic targets ``W X + R (X X^T)^{-1} X / 2``
    make the convex gradient ``-R``, and the log-cosh target
    ``W - artanh(-c R)`` makes it ``-c R``; either kills every layer
    gradient.  Both end widths exceed ``d``, so ``R`` is not zero."""
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(3, 6)), int(rng.integers(8, 12))
    dims = [int(w) for w in rng.integers(d + 1, 17, size=k + 1)]
    dims[int(rng.integers(1, k))] = d
    inst = gen_instance(InstanceSpec(dims=tuple(dims), loss_kind=kind, seed=seed))
    factors = list(inst.chain.factors)
    cut = -1 if side == "below" else 0
    factors[cut] = best_rank_approx(factors[cut], d - 1)
    chain = FactorChain(tuple(factors))
    split = bottleneck_split(chain)
    u = np.linalg.svd(split.above)[0][:, numerical_rank(split.above):]
    v = np.linalg.svd(split.below)[2][numerical_rank(split.below):].T
    r = u @ rng.standard_normal((u.shape[1], v.shape[1])) @ v.T
    w = end_to_end(chain)
    if kind == "quadratic":
        x = inst.loss.inputs
        return chain, QuadraticLoss(x, w @ x + 0.5 * r @ np.linalg.solve(x @ x.T, x))
    return chain, LogCoshLoss(w - np.arctanh(-0.5 * r / np.abs(r).max()))


class TestKernelFamily:
    def test_canonical_kernels(self):
        chain, _ = canonical_plateau()
        split = bottleneck_split(chain)
        family = kernel_family(chain, split)
        assert len(family) == 1
        assert np.array_equal(family[0], np.array([1.0]))

    def test_full_rank_above_raises(self):
        chain = FactorChain(
            (np.zeros((1, 2)), np.array([[1.0]]), np.array([[1.0], [0.0]]))
        )
        split = bottleneck_split(chain)
        with pytest.raises(FullRankAboveError):
            kernel_family(chain, split)

    def test_kernels_annihilated_by_upper_products(self):
        # A plateau, whose upper products are exact zeros, and generic
        # chains whose top factor is cut to rank d - 1.
        chains = [_plateau((3, 4, 2, 4, 3), seed=3).chain]
        chains += [_cut_critical(seed)[0] for seed in range(6)]
        for chain in chains:
            split = bottleneck_split(chain)
            family = kernel_family(chain, split)
            assert len(family) == split.index
            for i, w in enumerate(family, start=1):
                upper = partial_product(chain, i + 1, chain.k)
                assert np.linalg.norm(upper @ w) <= 1e-12 * (1.0 + np.linalg.norm(upper))
                assert abs(np.linalg.norm(w) - 1.0) < 1e-12


class TestApplyFamily:
    def test_zero_v_layers_pass_through_bitwise(self):
        inst = _plateau((3, 4, 2, 4, 3), seed=4)
        chain = inst.chain
        family = (
            RankOnePerturbation(1, np.ones(4), np.zeros(3)),
            RankOnePerturbation(2, np.ones(2), np.zeros(4)),
        )
        out = apply_family(chain, family)
        for a, b in zip(out.factors, chain.factors):
            assert a.tobytes() == b.tobytes()

    def test_rank_one_update_applied(self):
        chain, _ = canonical_plateau()
        family = (RankOnePerturbation(1, np.array([1.0]), np.array([0.25, 0.0])),)
        out = apply_family(chain, family)
        assert np.array_equal(out.factor(1), np.array([[0.25, 0.0]]))

    def test_shape_validation(self):
        chain, _ = canonical_plateau()
        family = (RankOnePerturbation(1, np.ones(2), np.ones(2)),)
        with pytest.raises(ValueError):
            apply_family(chain, family)


class TestSubspaceMembership:
    def test_hand_cases(self):
        g = np.array([[0.0, 0.0], [0.0, -2.0]])
        assert subspace_membership(np.array([1.0, 0.0]), g)
        assert not subspace_membership(np.array([0.0, 1.0]), g)
        assert subspace_membership(np.zeros(2), g)

    def test_relative_threshold(self):
        g = np.array([[1e6, 0.0], [0.0, 1e-3]])
        # (0, 1) maps to (0, 1e-3): relative to |g| ~ 1e6 that is tiny
        assert subspace_membership(np.array([0.0, 1.0]), g, subspace_tol=1e-8)
        assert not subspace_membership(np.array([1.0, 0.0]), g, subspace_tol=1e-8)


class TestEscapeConstruction:
    def test_canonical_exact_certificate(self):
        chain, loss = canonical_plateau()
        cert = escape_construction(chain, loss)
        delta = cert.delta
        assert delta == 1e-3 * (1.0 + 1.0)
        assert cert.side == "below"
        assert cert.containment_start == 1
        assert cert.witness_row == 0
        assert cert.original_loss == 2.0
        assert cert.loss_delta == 0.0
        expected = np.zeros((1, 2))
        expected[0, 0] = delta
        assert np.array_equal(cert.perturbed_chain.factor(1), expected)
        assert abs(cert.super_gradient_norm - 2.0 * delta) <= 1e-12
        # untouched layers are bitwise identical
        assert cert.perturbed_chain.factor(2).tobytes() == chain.factor(2).tobytes()
        assert cert.perturbed_chain.factor(3).tobytes() == chain.factor(3).tobytes()

    def test_certificate_norm_scales_linearly_with_delta(self):
        chain, loss = canonical_plateau()
        small = escape_construction(chain, loss, delta=1e-3)
        large = escape_construction(chain, loss, delta=2e-3)
        assert large.super_gradient_norm == pytest.approx(
            2.0 * small.super_gradient_norm, rel=1e-12
        )
        inst = _plateau((3, 4, 2, 4, 3), seed=5)
        small = escape_construction(inst.chain, inst.loss, delta=1e-4)
        large = escape_construction(inst.chain, inst.loss, delta=2e-4)
        assert large.super_gradient_norm == pytest.approx(
            2.0 * small.super_gradient_norm, rel=1e-9
        )

    def test_gradient_vanishes_rejected(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="factored_global", seed=6)
        )
        with pytest.raises(GradientVanishesError):
            escape_construction(inst.chain, inst.loss)

    @pytest.mark.parametrize("build", (escape_construction, escape_construction_mirrored))
    @pytest.mark.parametrize("dims, construction, delta", (
        ((3, 4, 2, 4, 3), "factored_global", -1.0),
        ((2, 3, 2), "generic", float("nan")),
        ((3, 4, 2, 4, 3), "rank_deficient_plateau", float("inf")),
    ))
    def test_bad_delta_refused_before_any_work(self, build, dims, construction, delta):
        # A certified global minimum and a chain without a bottleneck would
        # each raise their own error if the walk ran first.
        inst = gen_instance(InstanceSpec(dims=dims, construction=construction, seed=6))
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            build(inst.chain, inst.loss, delta=delta)

    def test_full_rank_above_rejected(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="full_rank_critical", seed=7)
        )
        with pytest.raises(FullRankAboveError):
            escape_construction(inst.chain, inst.loss)

    def test_absurd_membership_tolerance_fails_loudly(self):
        chain, loss = canonical_plateau()
        with pytest.raises(ConstructionFailedError) as exc:
            escape_construction(chain, loss, tols=Tolerances(subspace_tol=0.9))
        assert "member_threshold" in exc.value.diagnostics

    def test_containment_start_beyond_first_layer(self):
        # generic first layer, zeros at layers 2 (below the cut) and 3
        # (above it): containment begins at layer 2 and the injection uses a
        # basis vector against the most violating first-layer row
        base = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=8))
        chain = base.chain.with_factor(2, np.zeros((2, 4))).with_factor(
            3, np.zeros((4, 2))
        )
        loss = base.loss
        assert max(np.linalg.norm(g) for g in layer_gradients(chain, loss)) == 0.0
        cert = escape_construction(chain, loss)
        assert cert.containment_start == 2
        assert cert.side == "below"
        perturbed = cert.perturbed_chain
        # layer 1 untouched, layer 2 got a rank-one update aligned with one
        # row of layer 1
        assert perturbed.factor(1).tobytes() == chain.factor(1).tobytes()
        v2 = cert.family[1].v
        nz = np.nonzero(v2)[0]
        assert nz.size == 1 and v2[nz[0]] == cert.delta
        assert cert.loss_delta == 0.0
        assert cert.super_gradient_norm > 0.0

    def test_generated_plateaus_all_sides(self):
        for seed in range(5):
            inst = _plateau((2, 3, 1, 4, 2), seed=seed)
            cert = escape_construction(inst.chain, inst.loss)
            w = end_to_end(inst.chain)
            drift = np.linalg.norm(end_to_end(cert.perturbed_chain) - w)
            assert drift <= 1e-9 * (1.0 + np.linalg.norm(w))
            assert abs(cert.loss_delta) <= 1e-9 * (1.0 + abs(cert.original_loss))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-1, 1e-3, 1e-6]))
    def test_random_families_leave_product_invariant(self, seed, delta):
        inst = _plateau((3, 4, 2, 4, 3), seed=seed)
        split = bottleneck_split(inst.chain)
        kernels = kernel_family(inst.chain, split)
        rng = np.random.default_rng(seed + 1)
        family = tuple(
            RankOnePerturbation(
                i,
                kernels[i - 1],
                delta * rng.standard_normal(inst.chain.factor(i).shape[1]),
            )
            for i in range(1, split.index + 1)
        )
        out = apply_family(inst.chain, family)
        w = end_to_end(inst.chain)
        assert np.linalg.norm(end_to_end(out) - w) <= 1e-9 * (1.0 + np.linalg.norm(w))


@given(st.integers(0, 2**32 - 1), st.sampled_from(("quadratic", "logcosh")),
       st.sampled_from(("below", "above")))
def test_certificates_on_wide_cut_chains_keep_the_loss_and_escape(seed, kind, side):
    # The direct certificate when the top factor is cut, the mirrored one
    # when the bottom factor is: the loss stays within the invariance bound,
    # the layers on the other side of the cut keep their bytes, and the
    # escaped super-layer gradient, recomputed, clears the gradient floor.
    tols = Tolerances()
    chain, loss = _cut_critical(seed, kind, side)
    construction = escape_construction if side == "below" else escape_construction_mirrored
    cert = construction(chain, loss, tols=tols)
    assert cert.side == side
    before, after = chain_loss(chain, loss), chain_loss(cert.perturbed_chain, loss)
    assert abs(after - before) <= tols.invariance_tol * (1.0 + abs(before))
    j = bottleneck_split(chain).index
    kept = range(j, chain.k) if side == "below" else range(j)
    for i in kept:
        assert cert.perturbed_chain.factors[i].tobytes() == chain.factors[i].tobytes()
    above_grad, below_grad = super_gradients(cert.perturbed_chain, loss)
    escaped = above_grad if side == "below" else below_grad
    assert np.linalg.norm(escaped) > tols.grad_tol
    assert cert.super_gradient_norm > tols.grad_tol


class TestMirroredConstruction:
    def _fixture(self):
        chain = FactorChain(
            (np.zeros((1, 2)), np.array([[1.0]]), np.array([[1.0], [0.0]]))
        )
        loss = QuadraticLoss(np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]))
        return chain, loss

    def test_exact_mirrored_certificate(self):
        chain, loss = self._fixture()
        cert = escape_construction_mirrored(chain, loss)
        delta = cert.delta
        assert cert.side == "above"
        assert cert.containment_start == 1
        assert cert.witness_row == 0
        assert cert.original_loss == 1.0
        assert cert.loss_delta == 0.0
        # the top layer gains the escape direction in its second output row
        expected_top = np.array([[1.0], [delta]])
        assert np.array_equal(cert.perturbed_chain.factor(3), expected_top)
        assert cert.perturbed_chain.factor(1).tobytes() == chain.factor(1).tobytes()
        assert abs(cert.super_gradient_norm - 2.0 * delta) <= 1e-12

    def test_mirrored_preserves_product(self):
        chain, loss = self._fixture()
        cert = escape_construction_mirrored(chain, loss)
        assert np.array_equal(end_to_end(cert.perturbed_chain), end_to_end(chain))

    def test_full_rank_lower_super_layer_is_named(self):
        # A generic chain: its lower super layer, which the mirrored escape
        # needs rank deficient, has full rank.
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=3))
        with pytest.raises(FullRankAboveError, match="lower super layer has full rank 2"):
            escape_construction_mirrored(inst.chain, inst.loss)

    def test_reversed_chain_products(self):
        chain = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=9)).chain
        rev = reversed_chain(chain)
        assert np.allclose(end_to_end(rev), end_to_end(chain).T, rtol=1e-13, atol=0)
        assert rev.widths == chain.widths[::-1]


# sha256 over side, containment start, witness row, the ``.hex()`` of delta,
# super-gradient norm, loss change and original loss, the perturbed factor
# bytes and every family ``v`` of the certificates in ``_pinned_certificates``,
# computed with the quadratic loss's value taken by ``network._sum_squares``,
# one dot product, which moves the loss bits that the digest reads.
PINNED_ESCAPE_DIGEST = "e015f655b125f299006aa7b96168ce3052a080ebcdc1b8a7dcb5d63c25c938c4"

_PINNED_ESCAPE_DIMS = ((3, 4, 2, 4, 3), (5, 6, 6, 2, 6, 5), (6, 5, 5, 5, 3, 5, 4),
                       (4, 5, 3, 2, 3, 5, 4))


def _pinned_certificates():
    """Direct and mirrored escapes of constructed plateaus at two scales,
    then a direct escape of the generic chain whose top factor is cut to
    rank ``d - 1``, per dims, loss and seed."""
    for dims in _PINNED_ESCAPE_DIMS:
        for kind in ("quadratic", "logcosh"):
            for seed in range(3):
                inst = _plateau(dims, seed, kind)
                for build in (escape_construction, escape_construction_mirrored):
                    for delta in (None, 1e-3):
                        yield build(inst.chain, inst.loss, delta=delta)
                generic = gen_instance(InstanceSpec(dims=dims, loss_kind=kind, seed=seed))
                factors = list(generic.chain.factors)
                factors[-1] = best_rank_approx(factors[-1], min(dims) - 1)
                yield escape_construction(FactorChain(tuple(factors)), generic.loss)


def test_escape_certificates_match_the_pinned_digest():
    h = hashlib.sha256()
    starts = set()
    for cert in _pinned_certificates():
        starts.add(cert.containment_start)
        h.update(f"{cert.side},{cert.containment_start},{cert.witness_row},"
                 f"{cert.delta.hex()},{cert.super_gradient_norm.hex()},"
                 f"{cert.loss_delta.hex()},{cert.original_loss.hex()};".encode())
        for m in cert.perturbed_chain.factors:
            h.update(m.tobytes())
        for p in cert.family:
            h.update(p.v.tobytes())
    # every branch of the walk is covered: no perturbation, the seeded
    # first layer, and a first perturbed layer at 2 and at 3
    assert starts == {0, 1, 2, 3}
    assert h.hexdigest() == PINNED_ESCAPE_DIGEST


class TestLiftPerturbation:
    def test_identity_inner_lift_is_exact_copy(self):
        chain, _ = canonical_plateau()
        split = bottleneck_split(chain)
        target = np.array([[0.3, -0.1]])
        layer, update, amp = lift_perturbation(chain, split, target, side="below")
        assert layer == 1
        assert np.allclose(update, target, atol=1e-15)
        assert abs(amp - 1.0) < 1e-12

    def test_rank_deficient_inner_raises(self):
        chain, _ = canonical_plateau()
        split = bottleneck_split(chain)
        with pytest.raises(RankDeficientLiftError):
            lift_perturbation(chain, split, np.zeros((2, 1)), side="above")

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_generic_lift_realizes_target(self, side):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=10))
        chain = inst.chain
        split = make_split(chain, 2)
        shape = split.above.shape if side == "above" else split.below.shape
        target = np.random.default_rng(11).standard_normal(shape)
        layer, update, amp = lift_perturbation(chain, split, target, side=side)
        edited = chain.with_factor(layer, chain.factor(layer) + update)
        new_split = make_split(edited, 2)
        achieved = (new_split.above - split.above) if side == "above" else (
            new_split.below - split.below
        )
        assert np.linalg.norm(achieved - target) <= 1e-9 * np.linalg.norm(target)
        assert amp > 0.0

    def test_lifts_through_the_inner_product(self):
        # Above the cut the update goes through M_{k-1}...M_{j+1} = M_3; below
        # it through M_j...M_2 = M_2.
        chain = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=13)).chain
        split = make_split(chain, 2)
        rng = np.random.default_rng(14)
        above_target = rng.standard_normal(split.above.shape)
        _, update, _ = lift_perturbation(chain, split, above_target, side="above")
        assert np.allclose(update, min_norm_right_solve(chain.factor(3), above_target)[0])
        below_target = rng.standard_normal(split.below.shape)
        _, update, _ = lift_perturbation(chain, split, below_target, side="below")
        assert np.allclose(update.T, min_norm_right_solve(chain.factor(2).T, below_target.T)[0])

    def test_bad_side_rejected(self):
        chain, _ = canonical_plateau()
        split = bottleneck_split(chain)
        with pytest.raises(ValueError):
            lift_perturbation(chain, split, np.zeros((2, 1)), side="sideways")

    def test_target_shape_checked(self):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=12))
        split = make_split(inst.chain, 2)
        with pytest.raises(ValueError):
            lift_perturbation(inst.chain, split, np.zeros((5, 5)), side="above")


class TestDefaultDelta:
    def test_hand_value(self):
        chain, _ = canonical_plateau()
        assert default_delta(chain) == 1e-3 * (1.0 + 1.0)

    def test_scales_with_largest_factor(self):
        chain = FactorChain((np.full((2, 2), 3.0), np.eye(2)))
        assert default_delta(chain) == 1e-3 * (1.0 + 6.0)
