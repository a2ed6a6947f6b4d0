"""Product-invariant rank-one perturbations and escape certificates.

When the super layer above an interior bottleneck is rank deficient, every
upper partial product ``M_k ... M_{i+1}`` (for layers ``i`` at or below the
cut) has a kernel direction ``w_i``.  Adding ``w_i v_i^T`` to layer ``i``
then leaves the end-to-end product — and hence the loss — unchanged for
*any* row vector ``v_i``, because the kernel direction is annihilated by
everything above.  This module builds such families and uses them to
construct *escape certificates*: perturbed chains with (numerically) the
same loss whose lower super layer sees a nonzero gradient, witnessing that a
critical chain sits on an escapable plateau rather than at a local minimum.

The same machinery applies to a rank-deficient lower super layer by running
the construction on the reversed, transposed chain
(``escape_construction_mirrored``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    Tolerances,
    ensure_matrix,
    kernel_vector,
    min_norm_right_solve,
    numerical_rank,
)
from .network import (
    BottleneckSplit,
    ConvexLoss,
    FactorChain,
    TransposedLoss,
    end_to_end,
    make_split,
    partial_product,
    prefix_suffix_products,
    split_or_raise,
)

__all__ = [
    "GradientVanishesError",
    "FullRankAboveError",
    "ConstructionFailedError",
    "RankOnePerturbation",
    "EscapeCertificate",
    "kernel_family",
    "apply_family",
    "subspace_membership",
    "escape_construction",
    "escape_construction_mirrored",
    "reversed_chain",
    "lift_perturbation",
    "default_delta",
]


class GradientVanishesError(ValueError):
    """The convex gradient is numerically zero: the point is already a
    certified global minimum and there is nothing to escape."""


class FullRankAboveError(ValueError):
    """The targeted super layer has full rank, so no kernel family exists."""


class ConstructionFailedError(RuntimeError):
    """The escape construction could not produce a valid certificate.

    Carries a ``diagnostics`` dict.  Raised under tolerance misconfiguration,
    pathological conditioning, a ``delta`` at which the perturbed chain
    overflows, or data far off the unit scale: the gradient floor is absolute,
    so the harness's ``rank_deficient_plateau`` ``(3, 4, 2, 4, 3)`` instance
    at seed 1 and ``data_scale=1e-9`` raises it.
    """

    def __init__(self, message: str, diagnostics: dict | None = None) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class RankOnePerturbation:
    """``w v^T`` added to one layer; ``w`` lives in the layer's output space
    (unit kernel direction), ``v`` in its input space."""

    layer: int
    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class EscapeCertificate:
    """Evidence that a critical chain is a plateau point, not a local min.

    perturbed_chain
        Same loss as the original (within invariance tolerance) but with a
        nonzero gradient at the super-layer level.
    side
        ``"below"`` when the lower super layer was perturbed (the upper one
        was rank deficient); ``"above"`` for the mirrored construction.
    witness_row
        Index of the row of the perturbed super-layer product with the
        largest relative violation ``|G r| / |r|`` of gradient-null-space
        membership.  For ``side == "above"`` the row index refers to the
        reversed/transposed frame, i.e. a column of the perturbed upper
        product.
    containment_start
        Smallest layer index whose unperturbed partial product had all rows
        inside the gradient null space (0 when the original chain already
        escaped and no perturbation was needed).  Serialized as ``i_star``.
    super_gradient_norm
        Frobenius norm of the escaped super-layer gradient.
    loss_delta
        Achieved loss change (should be ~0).
    delta
        Scale at which the ``v`` vectors of the ``family`` were chosen.
    """

    perturbed_chain: FactorChain
    family: tuple[RankOnePerturbation, ...]
    side: str
    witness_row: int
    containment_start: int
    super_gradient_norm: float
    loss_delta: float
    original_loss: float
    delta: float


def default_delta(chain: FactorChain) -> float:
    """Default perturbation scale: ``1e-3 * (1 + max_i |M_i|_F)``."""
    return 1e-3 * (1.0 + max(float(np.linalg.norm(m)) for m in chain.factors))


def kernel_family(
    chain: FactorChain,
    split: BottleneckSplit,
    rank_tol: float = Tolerances().rank_tol,
) -> list[np.ndarray]:
    """Unit kernel vectors ``w_1 ... w_j`` of the upper partial products.

    ``w_i`` satisfies ``(M_k ... M_{i+1}) w_i ~ 0``; such vectors exist for
    every layer at or below the cut because each of those products factors
    through the rank-deficient upper super layer.  Raises
    :class:`FullRankAboveError` when the upper super layer has full rank.
    """
    d = split.width
    if numerical_rank(split.above, rank_tol) >= d:
        raise FullRankAboveError(
            f"upper super layer has full rank {d}; no kernel family exists"
        )
    _, above = prefix_suffix_products(chain.factors)
    return [kernel_vector(above[i], rank_tol) for i in range(1, split.index + 1)]


def apply_family(chain: FactorChain, family: Sequence[RankOnePerturbation]) -> FactorChain:
    """Apply every rank-one perturbation, returning a new chain.

    Layers whose ``v`` is identically zero are passed through bitwise
    unchanged.
    """
    factors = list(chain.factors)
    for p in family:
        m = chain.factor(p.layer)
        w = np.asarray(p.w, dtype=np.float64)
        v = np.asarray(p.v, dtype=np.float64)
        if w.shape != (m.shape[0],) or v.shape != (m.shape[1],):
            raise ValueError(
                f"perturbation for layer {p.layer} has w {w.shape}, v {v.shape}; "
                f"layer is {m.shape}"
            )
        if np.any(v != 0.0):
            factors[p.layer - 1] = m + np.outer(w, v)
    return FactorChain(tuple(factors))


def subspace_membership(
    vec,
    grad_matrix,
    subspace_tol: float = Tolerances().subspace_tol,
) -> bool:
    """Is ``vec`` numerically inside the null space of ``grad_matrix``?

    True iff ``|G v| <= subspace_tol * |G| * |v|``; the zero vector is
    always a member.
    """
    v = np.asarray(vec, dtype=np.float64)
    g = ensure_matrix(grad_matrix, "gradient matrix")
    return float(np.linalg.norm(g @ v)) <= subspace_tol * float(
        np.linalg.norm(g)
    ) * float(np.linalg.norm(v))


def _row_scores(rows: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Relative null-space violation ``|G r| / |r|`` per row (0 for zero rows)."""
    norms = np.linalg.norm(rows, axis=1)
    image = np.linalg.norm(rows @ grad.T, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(norms > 0.0, image / safe, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def escape_construction(
    chain: FactorChain,
    loss: ConvexLoss,
    delta: float | None = None,
    tols: Tolerances = Tolerances(),
    split: BottleneckSplit | None = None,
) -> EscapeCertificate:
    """Certify that a chain with a rank-deficient upper super layer is not a
    local minimum, by perturbing lower layers without changing the loss.

    The construction walks layers ``1..j``.  Let ``V`` be the null space of
    the convex gradient ``G`` at the end-to-end product.  It finds the first
    layer index whose partial product has all rows inside ``V``
    (``containment_start``); everything below already escapes.  At that
    layer it injects ``w_i v_i^T`` with ``v_i`` proportional to either the
    most violating row of ``G`` itself (when containment starts at layer 1)
    or the standard basis vector selecting the most violating row of the
    perturbed product built so far.  Higher layers are perturbed only if
    multiplying by the unperturbed factor would push every row back into
    ``V`` — generically it does not, and their ``v_i`` stays zero.

    Raises :class:`GradientVanishesError` (global minimum — nothing to do),
    :class:`FullRankAboveError` (use the mirrored entry point or accept the
    two-layer reduction), or :class:`ConstructionFailedError` (also when a
    witness score, super-layer gradient or loss change is inf or NaN).
    """
    split = split_or_raise(chain, split)
    below, _ = prefix_suffix_products(chain.factors)
    product = below[-1]
    grad = loss.gradient(product)
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm <= tols.grad_tol:
        raise GradientVanishesError(
            f"convex gradient norm {grad_norm:.3e} <= grad_tol "
            f"{tols.grad_tol:g}: point is a certified global minimum"
        )
    scale = default_delta(chain)
    if delta is None:
        delta = scale
    if not (delta > 0.0 and np.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    # The escaped super-layer gradient is linear in delta, so its floor is
    # grad_tol at the default scale and shrinks with a smaller delta.
    gradient_floor = tols.grad_tol * min(1.0, delta / scale)

    j = split.index
    kernels = kernel_family(chain, split, tols.rank_tol)
    member_threshold = tols.subspace_tol * grad_norm

    # Find the first layer whose (unperturbed) partial product is fully
    # contained in the gradient null space.
    containment_start = 0
    for i in range(1, j + 1):
        scores = _row_scores(below[i], grad)
        if np.all(scores <= member_threshold):
            containment_start = i
            break

    vs: list[np.ndarray] = [np.zeros(chain.factor(i).shape[1]) for i in range(1, j + 1)]
    if containment_start == 0:
        # The lower super layer already escapes; certificate needs no
        # perturbation at all.
        current = split.below
    else:
        i0 = containment_start
        if i0 == 1:
            # No escaped rows exist below layer 1; seed the escape with the
            # most violating row of the gradient itself, which can never lie
            # in its own null space.
            row = int(np.argmax(np.linalg.norm(grad, axis=1)))
            u = grad[row] / np.linalg.norm(grad[row])
            nonzero = np.nonzero(u)[0]
            if nonzero.size and u[nonzero[0]] < 0.0:
                u = -u
            vs[0] = delta * u
            current = chain.factor(1) + np.outer(kernels[0], vs[0])
        else:
            current = below[i0 - 1]
            pick = int(np.argmax(_row_scores(current, grad)))
            vs[i0 - 1] = delta * _basis(current.shape[0], pick)
            current = chain.factor(i0) @ current + np.outer(
                kernels[i0 - 1], delta * current[pick]
            )
        for i in range(containment_start + 1, j + 1):
            candidate = chain.factor(i) @ current
            if np.max(_row_scores(candidate, grad)) > member_threshold:
                current = candidate
            else:
                pick = int(np.argmax(_row_scores(current, grad)))
                vs[i - 1] = delta * _basis(current.shape[0], pick)
                current = candidate + np.outer(kernels[i - 1], delta * current[pick])

    family = tuple(
        RankOnePerturbation(layer=i, w=kernels[i - 1], v=vs[i - 1])
        for i in range(1, j + 1)
    )
    perturbed = apply_family(chain, family)
    below_tilde = partial_product(perturbed, 1, j)
    scores = _row_scores(below_tilde, grad)
    witness_row = int(np.argmax(scores))
    super_gradient_norm = float(np.linalg.norm(grad @ below_tilde.T))
    original_loss = loss.value(product)
    moved = end_to_end(perturbed)
    loss_delta = (loss.value(moved) if np.all(np.isfinite(moved)) else np.inf) - original_loss

    diagnostics = {
        "witness_score": float(scores[witness_row]),
        "member_threshold": member_threshold,
        "super_gradient_norm": super_gradient_norm,
        "loss_delta": loss_delta,
        "containment_start": containment_start,
        "delta": float(delta),
    }
    if not np.all(np.isfinite([scores[witness_row], super_gradient_norm, loss_delta])):
        raise ConstructionFailedError(f"perturbed chain overflows at delta {delta:g}", diagnostics)
    if scores[witness_row] <= member_threshold:
        raise ConstructionFailedError(
            "no row of the perturbed lower product escapes the gradient null "
            "space; check subspace_tol against the conditioning of the inputs",
            diagnostics,
        )
    if super_gradient_norm <= gradient_floor:
        raise ConstructionFailedError(
            f"escaped super-layer gradient {super_gradient_norm:.3e} is below "
            f"{gradient_floor:g}, grad_tol scaled by delta; delta may be too small",
            diagnostics,
        )
    if abs(loss_delta) > tols.invariance_tol * (1.0 + abs(original_loss)):
        raise ConstructionFailedError(
            f"loss changed by {loss_delta:.3e}, violating product invariance; "
            "kernel vectors may be inaccurate at this rank tolerance",
            diagnostics,
        )
    return EscapeCertificate(
        perturbed_chain=perturbed,
        family=family,
        side="below",
        witness_row=witness_row,
        containment_start=containment_start,
        super_gradient_norm=super_gradient_norm,
        loss_delta=loss_delta,
        original_loss=original_loss,
        delta=float(delta),
    )


def reversed_chain(chain: FactorChain) -> FactorChain:
    """The chain computing the transposed product: reversed, transposed factors."""
    return FactorChain(tuple(m.T for m in reversed(chain.factors)))


def escape_construction_mirrored(
    chain: FactorChain,
    loss: ConvexLoss,
    delta: float | None = None,
    tols: Tolerances = Tolerances(),
    split: BottleneckSplit | None = None,
) -> EscapeCertificate:
    """Escape certificate for a rank-deficient *lower* super layer.

    Transposing the end-to-end product swaps the roles of the two super
    layers while preserving convexity of the loss, so the lower-side
    construction applied to the reversed chain perturbs layers ``j+1..k`` of
    the original one.  The returned certificate is expressed in the original
    frame (``side == "above"``).
    """
    split = split_or_raise(chain, split)
    k = chain.k
    rev = reversed_chain(chain)
    rev_split = make_split(rev, k - split.index)
    rev_cert = escape_construction(
        rev, TransposedLoss(loss), delta=delta, tols=tols, split=rev_split
    )
    factors = tuple(
        rev_cert.perturbed_chain.factors[k - 1 - i].T for i in range(k)
    )
    family = tuple(
        RankOnePerturbation(layer=k + 1 - p.layer, w=p.v, v=p.w)
        for p in reversed(rev_cert.family)
    )
    return EscapeCertificate(
        perturbed_chain=FactorChain(factors),
        family=family,
        side="above",
        witness_row=rev_cert.witness_row,
        containment_start=rev_cert.containment_start,
        super_gradient_norm=rev_cert.super_gradient_norm,
        loss_delta=rev_cert.loss_delta,
        original_loss=rev_cert.original_loss,
        delta=rev_cert.delta,
    )


def lift_perturbation(
    chain: FactorChain,
    split: BottleneckSplit,
    target_change,
    side: str = "above",
    rank_tol: float = Tolerances().rank_tol,
):
    """Realize a desired super-layer change by editing a single boundary layer.

    side "above"
        Find the minimum-norm update ``Z`` to layer ``k`` such that the
        upper super layer changes by exactly ``target_change``:
        ``(M_k + Z) @ M_{k-1} ... M_{j+1} = above + target_change``.
        Requires ``M_{k-1} ... M_{j+1}`` to have full column rank.
    side "below"
        Symmetric: update layer 1 through ``M_j ... M_2`` (full row rank
        required), changing the lower super layer by ``target_change``.

    Returns ``(layer, update, amplification)`` where ``amplification`` is
    the reported norm ratio ``|update| / |target_change|``.
    """
    target = ensure_matrix(target_change, "target_change")
    if side == "above":
        expected = split.above.shape
        if target.shape != expected:
            raise ValueError(f"target_change must have shape {expected}, got {target.shape}")
        inner = partial_product(chain, split.index + 1, chain.k - 1)
        update, amplification = min_norm_right_solve(inner, target, rank_tol)
        return chain.k, update, amplification
    if side == "below":
        expected = split.below.shape
        if target.shape != expected:
            raise ValueError(f"target_change must have shape {expected}, got {target.shape}")
        inner = partial_product(chain, 2, split.index)
        update_t, amplification = min_norm_right_solve(inner.T, target.T, rank_tol)
        return 1, update_t.T, amplification
    raise ValueError(f"side must be 'above' or 'below', got {side!r}")


def _basis(n: int, index: int) -> np.ndarray:
    e = np.zeros(n)
    e[index] = 1.0
    return e
