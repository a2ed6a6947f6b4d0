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

A rank-deficient lower super layer is the transposed case.  One walk serves
both, from two passes: the prefix products of the chain's factors, bottom
up, and those of the views ``M_k^T, ..., M_2^T``, top down.  On the factors
(``escape_construction``) the first gives the walk's products and the
second its kernel products; on the views ``M_k^T, ..., M_1^T``
(``escape_construction_mirrored``), mapped back at the end, they swap.
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
    _finite_loss_state,
    partial_product,
    prefix_products,
    running_product,
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
    """``w v^T`` added to one layer; ``w`` lives in the layer's output space,
    ``v`` in its input space.  In a certificate with ``side == "below"``,
    ``w`` is the unit kernel direction and ``v`` the scaled selector; with
    ``side == "above"`` the roles swap."""

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
        membership.  For ``side == "above"`` it is a row of the transposed
        frame, a column of the perturbed upper product.
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


def _check_delta(delta: float | None) -> None:
    """Refuse a perturbation scale that is given but not positive and finite."""
    if delta is not None and not (delta > 0.0 and np.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


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
    top = prefix_products(_views(chain.factors[1:]))
    return _kernels([top[chain.k - 1 - i].T for i in range(1, split.index + 1)],
                    split.above, "upper", rank_tol)


def _views(mats) -> list[np.ndarray]:
    """The transposed chain of ``mats``: their transposes, in reverse order."""
    return [m.T for m in reversed(mats)]


def _kernels(products, super_layer, name: str, rank_tol: float) -> list[np.ndarray]:
    """Unit kernel vectors of ``products``, which all factor through the
    ``name`` super layer; :class:`FullRankAboveError` if that has full rank."""
    d = min(super_layer.shape)
    if numerical_rank(super_layer, rank_tol) >= d:
        raise FullRankAboveError(f"{name} super layer has full rank {d}; no kernel family exists")
    return [kernel_vector(p, rank_tol) for p in products]


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
    return float(np.linalg.norm(g.dot(v))) <= subspace_tol * float(
        np.linalg.norm(g)
    ) * float(np.linalg.norm(v))


def _row_scores(rows: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Relative null-space violation ``|G r| / |r|`` per row (0 for zero rows)."""
    norms = np.linalg.norm(rows, axis=1)
    image = np.linalg.norm(rows.dot(grad.T), axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return np.where(norms > 0.0, image / safe, 0.0)


def escape_construction(
    chain: FactorChain,
    loss: ConvexLoss,
    delta: float | None = None,
    tols: Tolerances = Tolerances(),
) -> EscapeCertificate:
    """Certify that a chain with a rank-deficient upper super layer is not a
    local minimum, by perturbing lower layers without changing the loss.

    Let ``V`` be the null space of the convex gradient ``G`` at the
    end-to-end product and ``i0`` (``containment_start``) the first layer
    whose partial product ``M_i0 ... M_1`` has all rows inside ``V``; when
    there is none (``i0 = 0``) the lower super layer already escapes and
    nothing is perturbed.  Otherwise one walk climbs from layer ``i0`` to
    the cut ``j``, carrying the perturbed product built so far.  At each
    layer it keeps the unperturbed factor's product if some row stays
    outside ``V``; if not, it injects ``w_i v_i^T`` with ``v_i`` the
    standard basis vector, scaled by ``delta``, that selects the most
    violating row of the product so far.  Layer ``i0`` takes that step by
    its definition, and higher layers generically do not, so their ``v_i``
    stays zero.  At ``i0 = 1`` there is no product below to select from:
    ``v_1`` is ``delta`` times the most violating row of ``G`` itself,
    normalised, and the walk goes on from layer 2.

    :func:`escape_construction_mirrored` runs the same walk in the
    transposed frame, for a rank-deficient lower super layer.

    Raises :class:`GradientVanishesError` (global minimum — nothing to do),
    :class:`FullRankAboveError` (no kernel family above the cut), or
    :class:`ConstructionFailedError` (also when a witness score,
    super-layer gradient or loss change is inf or NaN).  A bad ``delta``,
    then a loss or gradient norm that is not finite, raise ``ValueError``.
    """
    return _escape(chain, loss, delta, tols, "below")


def escape_construction_mirrored(
    chain: FactorChain,
    loss: ConvexLoss,
    delta: float | None = None,
    tols: Tolerances = Tolerances(),
) -> EscapeCertificate:
    """Escape certificate for a rank-deficient *lower* super layer.

    Transposing the end-to-end product swaps the roles of the two super
    layers while preserving convexity of the loss, so the walk of
    :func:`escape_construction`, run on the views ``M_k^T, ..., M_1^T``,
    perturbs layers ``j+1..k``; the certificate is expressed in the
    original frame (``side == "above"``).  Its kernel products are the
    chain's prefix products transposed.
    """
    return _escape(chain, loss, delta, tols, "above")


def _escape(chain, loss, delta, tols, side: str) -> EscapeCertificate:
    """Both escape entry points: refuse a bad ``delta``, make the chain's
    one checked first-order pass, and walk ``side``."""
    _check_delta(delta)
    below, _, value, grad = _finite_loss_state(chain.factors, loss)
    return _escape_walk(chain, loss, delta, tols, None, side, below, value, grad)


def reversed_chain(chain: FactorChain) -> FactorChain:
    """The chain computing the transposed product: reversed, transposed factors."""
    return FactorChain(tuple(_views(chain.factors)))


@np.errstate(over="ignore", invalid="ignore")
def _escape_walk(chain, loss, delta, tols, split, side: str,
                 below, original_loss, grad) -> EscapeCertificate:
    """The walk of :func:`escape_construction` from the chain's prefix
    products ``below`` and the loss and gradient at their end.  It builds
    one more pass, ``top``, the prefix products of the views ``M_k^T, ...,
    M_2^T``; on side ``"below"`` their transposes are the kernel products.
    On side ``"above"`` the two passes swap roles, and the walk runs, with
    the same steps, on the views ``M_k^T, ..., M_1^T`` and ``G^T``."""
    split = split_or_raise(chain, split)
    k, flip = chain.k, side == "above"
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm <= tols.grad_tol:
        raise GradientVanishesError(
            f"convex gradient norm {grad_norm:.3e} <= grad_tol "
            f"{tols.grad_tol:g}: point is a certified global minimum"
        )
    scale = default_delta(chain)
    delta = scale if delta is None else delta
    # The escaped super-layer gradient is linear in delta, so its floor is
    # grad_tol at the default scale and shrinks with a smaller delta.
    gradient_floor = tols.grad_tol * min(1.0, delta / scale)

    top = prefix_products(_views(chain.factors[1:]))
    mats, j, prefixes, others, grad, super_layer, name = (
        (_views(chain.factors), k - split.index, top, below, grad.T, split.below, "lower")
        if flip else (chain.factors, split.index, below, top, grad, split.above, "upper"))
    kernels = _kernels([others[k - 1 - i].T for i in range(1, j + 1)],
                       super_layer, name, tols.rank_tol)
    member_threshold = tols.subspace_tol * grad_norm

    # Find the first layer whose (unperturbed) partial product is fully
    # contained in the gradient null space.
    containment_start = 0
    for i in range(1, j + 1):
        scores = _row_scores(prefixes[i - 1], grad)
        if np.all(scores <= member_threshold):
            containment_start = i
            break

    vs: list[np.ndarray] = [np.zeros(m.shape[1]) for m in mats[:j]]
    first = j + 1  # containment_start 0: the lower super layer already escapes
    if containment_start == 1:
        # No escaped rows exist below layer 1; seed the escape with the
        # most violating row of the gradient itself, which can never lie
        # in its own null space.
        row = int(np.argmax(np.linalg.norm(grad, axis=1)))
        u = grad[row] / np.linalg.norm(grad[row])
        nonzero = np.nonzero(u)[0]
        if nonzero.size and u[nonzero[0]] < 0.0:
            u = -u
        vs[0] = delta * u
        current, first = mats[0] + np.outer(kernels[0], vs[0]), 2
    elif containment_start > 1:
        # Layer containment_start fails the escape test below by
        # definition, so the walk perturbs it first.
        current, first = prefixes[containment_start - 2], containment_start
    for i in range(first, j + 1):
        candidate = mats[i - 1].dot(current)
        if np.max(_row_scores(candidate, grad)) > member_threshold:
            current = candidate
        else:
            pick = int(np.argmax(_row_scores(current, grad)))
            vs[i - 1][pick] = delta
            current = candidate + np.outer(kernels[i - 1], delta * current[pick])

    family = tuple(
        RankOnePerturbation(layer=k + 1 - i, w=vs[i - 1], v=kernels[i - 1]) if flip
        else RankOnePerturbation(layer=i, w=kernels[i - 1], v=vs[i - 1])
        for i in (range(j, 0, -1) if flip else range(1, j + 1))
    )
    moved = list(mats)
    for i in range(1, j + 1):
        if np.any(vs[i - 1] != 0.0):
            moved[i - 1] = mats[i - 1] + np.outer(kernels[i - 1], vs[i - 1])
    lower = running_product(moved[:j])
    factors = _views(moved) if flip else moved
    # No layer below the cut moves on the above side: ``below`` holds the
    # perturbed chain's lower super layer there.
    product = running_product([below[split.index - 1] if flip else lower, *factors[split.index:]])
    scores = _row_scores(lower, grad)
    witness_row = int(np.argmax(scores))
    super_gradient_norm = float(np.linalg.norm(grad.dot(lower.T)))
    loss_delta = (loss.value(product) if np.all(np.isfinite(product)) else np.inf) - original_loss

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
        perturbed_chain=FactorChain(tuple(factors)),
        family=family,
        side=side,
        witness_row=witness_row,
        containment_start=containment_start,
        super_gradient_norm=super_gradient_norm,
        loss_delta=loss_delta,
        original_loss=original_loss,
        delta=float(delta),
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
    if side not in ("above", "below"):
        raise ValueError(f"side must be 'above' or 'below', got {side!r}")
    expected = (split.above if side == "above" else split.below).shape
    if target.shape != expected:
        raise ValueError(f"target_change must have shape {expected}, got {target.shape}")
    if side == "above":
        inner = partial_product(chain, split.index + 1, chain.k - 1)
        update, amplification = min_norm_right_solve(inner, target, rank_tol)
        return chain.k, update, amplification
    inner = partial_product(chain, 2, split.index)
    update_t, amplification = min_norm_right_solve(inner.T, target.T, rank_tol)
    return 1, update_t.T, amplification
