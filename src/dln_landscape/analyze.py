"""Classification of critical points of deep linear chains.

Every convex-differentiable composite ``loss(M_k ... M_1)`` falls into one
of a small number of first-order regimes, and each regime comes with a
constructive follow-up:

* ``GLOBAL_CERTIFIED`` — the convex gradient at the end-to-end product is
  numerically zero, so the point minimizes the loss over *all* matrices and
  in particular over the chain's image.
* ``NOT_CRITICAL`` — some layer gradient is nonzero; ordinary descent
  applies.
* ``ESCAPABLE_PLATEAU`` — critical, nonzero convex gradient, and one of the
  two super layers around an interior bottleneck is rank deficient.  A
  loss-preserving rank-one perturbation family exposes a nonzero
  super-layer gradient (see :mod:`.perturb`); the attached certificate plus
  :func:`descent_search` turn that into an actual loss decrease.
* ``REDUCIBLE_FULL_RANK`` — critical, nonzero convex gradient, both super
  layers of full rank ``d``.  Whether the point is a minimum is then exactly
  the corresponding question for the two-layer chain ``(above, below)``,
  which :func:`two_layer_reduction` hands back.
* ``NO_BOTTLENECK_SADDLE`` — critical with nonzero convex gradient on a
  chain with no interior bottleneck.  Such chains admit no spurious local
  minima at all, so the point is necessarily a saddle; the report carries a
  diagnostic and no escape is attempted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_GRAD_TOL, Tolerances, numerical_rank
from .network import (
    BottleneckSplit,
    ConvexLoss,
    FactorChain,
    QuadraticLoss,
    bottleneck_split,
    end_to_end,
    gradient_core,
    prefix_products,
    split_or_raise,
)
from .oracle import rrr_oracle
from .optim import STATUS_BUDGET, armijo_gd
from .perturb import (
    EscapeCertificate,
    _check_delta,
    escape_construction,
    escape_construction_mirrored,
)

__all__ = [
    "Classification",
    "CriticalPointReport",
    "WrongClassificationError",
    "DescentNotFoundError",
    "super_gradients",
    "global_certificate",
    "classify",
    "two_layer_reduction",
    "descent_search",
]


class Classification(enum.Enum):
    NOT_CRITICAL = "not_critical"
    GLOBAL_CERTIFIED = "global_certified"
    REDUCIBLE_FULL_RANK = "reducible_full_rank"
    ESCAPABLE_PLATEAU = "escapable_plateau"
    NO_BOTTLENECK_SADDLE = "no_bottleneck_saddle"


class WrongClassificationError(ValueError):
    """A follow-up action was requested for a report with the wrong label."""


class DescentNotFoundError(RuntimeError):
    """Bounded descent failed to beat the required decrease; never silent —
    carries the search diagnostics."""

    def __init__(self, message: str, diagnostics: dict) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class CriticalPointReport:
    label: Classification
    loss: float
    layer_gradient_norms: tuple[float, ...]
    convex_gradient_norm: float
    split_index: int | None
    rank_above: int | None
    rank_below: int | None
    super_gradient_above_norm: float | None
    super_gradient_below_norm: float | None
    escape: EscapeCertificate | None = field(default=None, repr=False)
    oracle_gap: float | None = None
    diagnostic: str | None = None


def super_gradients(
    chain: FactorChain,
    loss: ConvexLoss,
    split: BottleneckSplit | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the two-super-layer objective ``loss(above @ below)``.

    Returns ``(d/d_above, d/d_below) = (G @ below^T, above^T @ G)`` with
    ``G`` the convex gradient at ``above @ below``.  Requires an interior
    bottleneck.
    """
    split = split_or_raise(chain, split)
    grad = loss.gradient(split.above @ split.below)
    return grad @ split.below.T, split.above.T @ grad


def global_certificate(
    chain: FactorChain,
    loss: ConvexLoss,
    grad_tol: float = Tolerances().grad_tol,
) -> bool:
    """True iff the convex gradient vanishes at the end-to-end product,
    certifying an unconditional global minimum of the composite."""
    return float(np.linalg.norm(loss.gradient(end_to_end(chain)))) <= grad_tol


def classify(
    chain: FactorChain,
    loss: ConvexLoss,
    tols: Tolerances = Tolerances(),
    delta: float | None = None,
) -> CriticalPointReport:
    """Produce a full first-order report for a chain.

    Label decision order: a vanishing convex gradient certifies a global
    minimum outright; otherwise any layer gradient above ``grad_tol`` means
    not critical; remaining points are critical with nonzero convex
    gradient and are split by super-layer ranks (or flagged as saddles when
    the chain has no interior bottleneck).  For ``ESCAPABLE_PLATEAU`` the
    escape certificate is constructed on the rank-deficient side; for
    ``REDUCIBLE_FULL_RANK`` :func:`two_layer_reduction` hands back the two
    super layers.  Quadratic losses also get ``oracle_gap``, the loss above
    the closed-form rank-``d`` optimum, on any data.  A ``delta`` that is
    given but not positive and finite raises ``ValueError`` on every chain,
    before any work.
    """
    _check_delta(delta)
    below = prefix_products(chain.factors)
    value, grad = loss.value_and_gradient(below[-1])
    grads = gradient_core(chain.factors, below, grad, range(1, chain.k + 1))
    grad_norms = tuple(float(np.linalg.norm(g)) for g in grads.values())
    convex_norm = float(np.linalg.norm(grad))

    split = bottleneck_split(chain)
    rank_above = rank_below = None
    sg_above = sg_below = None
    if split is not None:
        rank_above = numerical_rank(split.above, tols.rank_tol)
        rank_below = numerical_rank(split.below, tols.rank_tol)
        above_grad, below_grad = super_gradients(chain, loss, split)
        sg_above = float(np.linalg.norm(above_grad))
        sg_below = float(np.linalg.norm(below_grad))

    oracle_gap = None
    if isinstance(loss, QuadraticLoss):
        fit = rrr_oracle(loss.inputs, loss.targets, min(chain.widths), tols.rank_tol)
        oracle_gap = value - fit.loss

    escape = None
    diagnostic = None
    if convex_norm <= tols.grad_tol:
        label = Classification.GLOBAL_CERTIFIED
    elif max(grad_norms) > tols.grad_tol:
        label = Classification.NOT_CRITICAL
    elif split is None:
        label = Classification.NO_BOTTLENECK_SADDLE
        diagnostic = (
            "first-order critical with nonzero convex gradient on a chain "
            "whose interior never narrows to the minimum width: chains of "
            "this shape admit no local minima that are not global, so this "
            "point is a saddle; no escape construction is attempted"
        )
    elif min(rank_above, rank_below) < split.width:
        label = Classification.ESCAPABLE_PLATEAU
        if rank_above < split.width:
            escape = escape_construction(chain, loss, delta=delta, tols=tols, split=split)
        else:
            escape = escape_construction_mirrored(
                chain, loss, delta=delta, tols=tols, split=split
            )
    else:
        label = Classification.REDUCIBLE_FULL_RANK

    return CriticalPointReport(
        label=label,
        loss=value,
        layer_gradient_norms=grad_norms,
        convex_gradient_norm=convex_norm,
        split_index=split.index if split is not None else None,
        rank_above=rank_above,
        rank_below=rank_below,
        super_gradient_above_norm=sg_above,
        super_gradient_below_norm=sg_below,
        escape=escape,
        oracle_gap=oracle_gap,
        diagnostic=diagnostic,
    )


def two_layer_reduction(
    chain: FactorChain, report: CriticalPointReport
) -> tuple[np.ndarray, np.ndarray]:
    """The two-layer chain ``(above, below)`` that decides minimality.

    Only meaningful for ``REDUCIBLE_FULL_RANK`` points: there, the original
    chain is a local minimum exactly when ``(above, below)`` is a local
    minimum of the two-layer composite.  Raises
    :class:`WrongClassificationError` for any other label.
    """
    if report.label is not Classification.REDUCIBLE_FULL_RANK:
        raise WrongClassificationError(
            f"two-layer reduction applies to REDUCIBLE_FULL_RANK points, "
            f"report says {report.label.value}"
        )
    split = bottleneck_split(chain)
    if split is None:
        raise WrongClassificationError(
            "report claims a reducible point but the chain has no interior bottleneck"
        )
    return split.above, split.below


def descent_search(
    chain: FactorChain,
    loss: ConvexLoss,
    report: CriticalPointReport,
    budget: int = 500,
) -> FactorChain:
    """Turn an escape certificate into an actual loss decrease.

    Starting from the certificate's perturbed chain, runs Armijo gradient
    descent on the layers of the super layer that saw the nonzero gradient
    (the side *opposite* the perturbation: those layers form a chain with no
    interior bottleneck, where a nonzero super-layer gradient guarantees
    descent), stopping once every active gradient is below the default
    ``grad_tol``.  The cut and the original loss are read from ``report``,
    which must be the report of ``chain`` under ``loss``.

    Returns a chain whose loss is at most
    ``original - max(1e-12, 1e-6 * |original|)``; otherwise raises
    :class:`DescentNotFoundError` with the search diagnostics.
    """
    if report.label is not Classification.ESCAPABLE_PLATEAU or report.escape is None:
        raise WrongClassificationError(
            f"descent search needs an ESCAPABLE_PLATEAU report with a "
            f"certificate, got {report.label.value}"
        )
    cert = report.escape
    cut = report.split_index
    if cut is None:
        raise WrongClassificationError(
            "report claims an escapable plateau but the chain has no interior bottleneck"
        )
    if cert.side == "below":
        active = list(range(cut + 1, chain.k + 1))
    else:
        active = list(range(1, cut + 1))

    original = report.loss
    required = original - max(1e-12, 1e-6 * abs(original))
    start = cert.perturbed_chain
    result = armijo_gd(
        factors=start.factors,
        loss=loss,
        active_layers=active,
        max_steps=budget,
        stop_grad_tol=DEFAULT_GRAD_TOL,
    )
    if result.loss <= required:
        return FactorChain(tuple(result.factors))
    raise DescentNotFoundError(
        f"descent exhausted ({result.status}) at loss {result.loss:.17g}, "
        f"needed <= {required:.17g}",
        diagnostics={
            "status": result.status,
            "steps": result.steps,
            "final_loss": result.loss,
            "final_max_grad": result.max_grad,
            "original_loss": original,
            "required_loss": required,
            "budget": budget,
            "active_layers": active,
            "budget_was_zero": budget == 0 and result.status == STATUS_BUDGET,
        },
    )
