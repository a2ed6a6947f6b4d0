"""Backtracking gradient descent on raw layer arrays.

The full-chain trainer (``harness.train_gd``), the post-escape descent
search (``analyze.descent_search``) and the oracle and restart runs of
``verify`` all run this loop: steepest descent on a chosen subset of layers
with Armijo backtracking, strictly monotone by construction,
single-threaded and deterministic.  The first trial of each line search is
the Barzilai–Borwein step ``sᵀs / sᵀy`` of the last accepted step (Barzilai
& Borwein 1988), and the loop stops as soon as an accepted step leaves the
loss bit-identical, since no later step can lower it.  It works on plain
arrays and takes its products and gradients from the ``network`` core, so a
step builds no chain objects.  The layers below the lowest active one never
change, so their product is built once per call and heads the chain the
loop works on: a line-search trial's forward products cover only the active
block and the layers above it, and the next gradient reuses the accepted
trial's.  Each trial also builds the loss's residual once (``W X - Y`` for
the quadratic loss), for its value; the next gradient takes the accepted
trial's residual, so an accepted step forms the end-to-end product and its
residual once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import ConvexLoss, gradient_core, prefix_products, running_product

__all__ = [
    "GDResult",
    "armijo_gd",
    "STATUS_CRITICAL",
    "STATUS_BUDGET",
    "STATUS_LINE_SEARCH",
    "STATUS_PRECISION",
]

STATUS_CRITICAL = "stalled-critical"
STATUS_BUDGET = "budget-exhausted"
STATUS_LINE_SEARCH = "line-search-stalled"
STATUS_PRECISION = "precision-limited"

# Armijo line search: sufficient-decrease factor, backtracking factor, first
# trial step, growth of the carried-over step when no Barzilai–Borwein step
# applies, smallest trial step.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
STEP_INIT = 1.0
STEP_GROW = 2.0
MIN_STEP = 1e-18


def _norm(g: np.ndarray) -> float:
    """``np.linalg.norm(g)`` without its dispatch: the square root of the
    same dot product over the same flattening."""
    flat = g.ravel(order="K")
    return math.sqrt(flat.dot(flat))


@dataclass
class GDResult:
    factors: list[np.ndarray]
    loss: float
    status: str
    steps: int
    max_grad: float


def armijo_gd(
    factors: Sequence[np.ndarray],
    loss: ConvexLoss,
    active_layers: Sequence[int],
    max_steps: int,
    stop_grad_tol: float,
    on_state: Callable[[int, list[np.ndarray], float, float], None] | None = None,
) -> GDResult:
    """Steepest descent with Armijo backtracking on selected layers.

    ``active_layers`` holds 1-based layer numbers; the rest stay frozen.
    A line-search trial costs one forward product of the layers from the
    lowest active one up, headed by the product of the frozen layers below;
    its intermediates are the prefix products that the next step's gradient
    reuses when the trial is accepted, so a gradient builds only the suffix
    products.  The loss's shape is checked once, at the start; the loop then
    builds one ``loss._residual`` per finite trial product, takes the
    trial's value from it with ``loss._value``, and the next gradient from
    the accepted trial's with ``loss._gradient``.
    The first trial of each line search is the Barzilai–Borwein step
    ``sᵀs / sᵀy`` of the last accepted step.  With ``s = -t·g_prev`` and
    ``y = g - g_prev`` that is ``t·‖g_prev‖² / (‖g_prev‖² - ⟨g_prev, g⟩)``,
    so it needs one inner product per active layer and no stored step.
    When that denominator is not positive (and before the first step) the
    last accepted step grown by ``STEP_GROW`` is tried instead; trials are
    capped at 1e12.  A trial whose product overflows counts as a failed
    Armijo test.  ``on_state`` is invoked with
    ``(step, factors, loss, max_grad)`` for the initial state (step 0) and
    after every accepted step that lowered the loss.

    Stops with status ``stalled-critical`` when the largest active-layer
    gradient norm drops to ``stop_grad_tol``, ``budget-exhausted`` after
    ``max_steps`` accepted steps, ``line-search-stalled`` when no step above
    ``MIN_STEP`` achieves the Armijo decrease, or ``precision-limited`` when
    an accepted trial's loss equals the current loss to the bit (the
    Armijo decrease is below rounding); the returned factors are then the
    current iterate, not that trial.  A negative ``max_steps`` or a
    negative or non-finite ``stop_grad_tol`` raises ``ValueError``.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if not (stop_grad_tol >= 0.0 and np.isfinite(stop_grad_tol)):
        raise ValueError(f"stop_grad_tol must be non-negative and finite, got {stop_grad_tol!r}")
    if not active_layers:
        raise ValueError("active_layers must be non-empty")
    active = sorted(set(int(i) for i in active_layers))
    if active[0] < 1 or active[-1] > len(factors):
        raise ValueError(f"active layers {active} out of range 1..{len(factors)}")

    current = [np.array(m, dtype=np.float64) for m in factors]
    # The frozen layers below the lowest active one, multiplied once.  As
    # products accumulate from the bottom, a trial product over this head is
    # bitwise the product over the whole chain.
    lo = active[0]
    head = [running_product(current[: lo - 1])] if lo > 1 else []
    shift = lo - 1 - len(head)
    positions = [i - shift for i in active]  # the active layers in the block
    below = prefix_products(head + current[lo - 1 :])
    residual = loss._residual(loss._check_shape(below[-1]))  # the one shape check
    value = loss._value(residual)
    t = STEP_INIT
    last = None  # the last accepted step's gradients and their squared norm
    steps = 0
    while True:
        # The forward products and the residual are the accepted trial's (or
        # the start's).
        grad = loss._gradient(residual)
        grads = gradient_core(head + current[lo - 1 :], below, grad, positions)
        max_grad = max(_norm(g) for g in grads.values())
        if on_state is not None:
            on_state(steps, current, value, max_grad)
        if max_grad <= stop_grad_tol:
            status = STATUS_CRITICAL
            break
        if steps >= max_steps:
            status = STATUS_BUDGET
            break
        squared = sum(float((g * g).sum()) for g in grads.values())
        first = t * STEP_GROW
        if last is not None:
            last_grads, last_squared = last
            curvature = last_squared - sum(float(np.vdot(last_grads[p], grads[p])) for p in grads)
            if curvature > 0:
                first = t * last_squared / curvature
        t = min(first, 1e12)
        # An overflowing trial counts as a failed Armijo test, silently.
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= MIN_STEP:
                trial = list(current)
                for i in active:
                    trial[i - 1] = current[i - 1] - t * grads[i - shift]
                trial_below = prefix_products(head + trial[lo - 1 :])
                product = trial_below[-1]
                if np.isfinite(product).all():
                    trial_residual = loss._residual(product)
                    trial_value = loss._value(trial_residual)
                else:
                    trial_value = np.inf
                if trial_value <= value - ARMIJO_C * t * squared:
                    break
                t *= BACKTRACK
            else:  # no step above MIN_STEP passed the Armijo test
                status = STATUS_LINE_SEARCH
                break
        if trial_value == value:
            status = STATUS_PRECISION
            break
        current, below, residual, value = trial, trial_below, trial_residual, trial_value
        last = grads, squared
        steps += 1
    return GDResult(
        factors=current, loss=value, status=status, steps=steps, max_grad=max_grad
    )
