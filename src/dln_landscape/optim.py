"""Backtracking gradient descent on raw layer arrays.

The full-chain trainer (``harness.train_gd``), the post-escape descent
search (``analyze.descent_search``) and the oracle and restart runs of
``verify`` all run this loop: steepest descent on a chosen subset of layers
with Armijo backtracking, single-threaded and deterministic.  The first
trial of each line search is the Barzilai–Borwein step ``sᵀs / sᵀy`` of the
last accepted step (Barzilai & Borwein 1988), and the Armijo test compares
a trial against the largest of the last ``window`` accepted losses (Grippo,
Lampariello & Lucidi 1986; Raydan 1997).  At the default ``window=1`` that
is the current loss, so the descent is strictly monotone by construction;
``verify``'s balanced descents pass a longer window, and there an accepted
step can raise the loss, though never above the start's.  The loop stops at
a critical point, at the first iterate at or below a caller's ``target``,
after its budget, when no trial passes, or once an accepted step leaves the
loss bit-identical.  It works on plain arrays and takes its products and
gradients from the ``network`` core, so a step builds no chain objects.
The start is taken through ``network._read_only``, so the layers a descent
does not move are shared with a chain's factors, never with a writable input.
The layers below the lowest active one never change, so their product is
built once per call and heads the chain the loop works on: a line-search
trial's forward products cover only the active block and the layers above
it, and the next gradient reuses the accepted trial's.  Each trial also
builds the loss's residual once (``W X - Y`` for the quadratic loss), for
its value; the next gradient takes the accepted trial's residual, so an
accepted step forms the end-to-end product and its residual once.  A step
takes its gradients from one backward sweep (``network.gradient_core``) and
each one's sum of squares once, ``network._sum_squares``, whose root is the
layer's norm, and the whole call runs under one ``np.errstate``; the chain
list is rebuilt from the block it works on only for ``on_state`` and for
the result.  Sums of floats add up left to right with ``+=``: builtin
``sum()`` is compensated from Python 3.12 on and would round differently.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import (
    ConvexLoss,
    _finite_loss_state,
    _read_only,
    _sum_squares,
    gradient_core,
    prefix_products,
    running_product,
)

__all__ = [
    "GDResult",
    "armijo_gd",
    "STATUS_CRITICAL",
    "STATUS_BUDGET",
    "STATUS_LINE_SEARCH",
    "STATUS_PRECISION",
    "STATUS_TARGET",
]

STATUS_CRITICAL = "stalled-critical"
STATUS_BUDGET = "budget-exhausted"
STATUS_LINE_SEARCH = "line-search-stalled"
STATUS_PRECISION = "precision-limited"
STATUS_TARGET = "target-reached"

# Armijo line search: sufficient-decrease factor, backtracking factor, first
# trial step, growth of the carried-over step when no Barzilai–Borwein step
# applies, smallest trial step.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
STEP_INIT = 1.0
STEP_GROW = 2.0
MIN_STEP = 1e-18


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
    window: int = 1,
    target: float = -math.inf,
) -> GDResult:
    """Steepest descent with Armijo backtracking on selected layers.

    ``active_layers`` holds 1-based layer numbers; the rest stay frozen.
    A line-search trial costs one forward product of the layers from the
    lowest active one up, headed by the product of the frozen layers below;
    its intermediates are the prefix products that the next step's gradient
    reuses when the trial is accepted, so a gradient builds only its backward
    sweep.  The loss's shape and the finiteness of the start are checked
    once, at the start (``network._finite_loss_state``); the loop then
    builds one ``loss._residual`` per trial product, takes the trial's
    value from it with ``loss._value``, and the next gradient from the
    accepted trial's with ``loss._gradient``.
    A trial passes the Armijo test when its value is at most the reference
    loss less ``ARMIJO_C·t·‖g‖²``; the reference is the largest of the last
    ``window`` accepted losses, the start's counting as the first (Grippo,
    Lampariello & Lucidi 1986).  At ``window=1`` it is the current loss, and
    every accepted step lowers the loss; with ``window > 1`` an accepted step
    can raise it, though never above the reference, so no iterate's loss
    exceeds the start's.
    The first trial of each line search is the Barzilai–Borwein step
    ``sᵀs / sᵀy`` of the last accepted step.  With ``s = -t·g_prev`` and
    ``y = g - g_prev`` that is ``t·‖g_prev‖² / (‖g_prev‖² - ⟨g_prev, g⟩)``,
    so it needs one inner product per active layer and no stored step.
    When that denominator is not positive (and before the first step) the
    last accepted step grown by ``STEP_GROW`` is tried instead; trials are
    capped at 1e12.  A trial whose product overflows counts as a failed
    Armijo test: the product's finiteness is tested only on a trial that
    passes the Armijo comparison, since a non-finite product gives the
    shipped losses an inf or NaN value that fails it, and the test on the
    passing trial keeps any loss from accepting one.  ``on_state`` is
    invoked with ``(step, factors, loss, max_grad)`` for the initial state
    (step 0) and after every accepted step.  The start's layers are taken
    through ``network._read_only``: read-only arrays that own their memory
    (a chain's factors) are shared, any other input is copied and frozen.
    So a layer the descent does not move is the start's own array in the
    result, the layers it moves are new arrays, and no array of the result
    or of an ``on_state`` call aliases one the caller can write.

    Stops with status ``stalled-critical`` when the largest active-layer
    gradient norm drops to ``stop_grad_tol``; else ``target-reached`` at the
    first iterate, the start included, whose loss is at most ``target``
    (never at the default ``-inf``, where the run is the run without one);
    ``budget-exhausted`` after ``max_steps`` accepted steps;
    ``line-search-stalled`` when no step above ``MIN_STEP`` achieves the
    Armijo decrease; or ``precision-limited`` when an accepted trial's loss
    equals the current loss to the bit (the Armijo decrease is below
    rounding), and the returned factors are then the current iterate, not
    that trial.  The returned ``max_grad`` and the last ``on_state`` call
    belong to the returned iterate.  A negative ``max_steps``, a negative
    or non-finite ``stop_grad_tol``, a ``window`` below 1, or a start whose
    end-to-end product, loss value or convex-gradient norm is not finite
    raises ``ValueError``.

    The squared gradient norm and the inner product are sums over the
    active layers in layer order, added left to right from 0.0 on every
    Python version; each layer's sum of squares is taken once, and its root
    is the layer's norm.  ``max_grad`` is the largest of those norms as
    builtin ``max`` takes it over that order (a NaN in first place stays).
    The whole call, ``on_state`` included, runs under one
    ``np.errstate(over="ignore", invalid="ignore")``, and the caller's state
    is back when it returns or raises.  So a gradient that overflows at an
    accepted, finite product passes without a warning.  The result still
    reports it: the step's squared gradient norm is then not finite, no
    finite trial value passes the Armijo test, and the run stops
    ``line-search-stalled`` with a ``max_grad`` that is not finite (unless
    the only non-finite norms are NaNs after a finite one, which ``max``
    skips).
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if not (stop_grad_tol >= 0.0 and np.isfinite(stop_grad_tol)):
        raise ValueError(f"stop_grad_tol must be non-negative and finite, got {stop_grad_tol!r}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if not active_layers:
        raise ValueError("active_layers must be non-empty")
    active = sorted(set(int(i) for i in active_layers))
    if active[0] < 1 or active[-1] > len(factors):
        raise ValueError(f"active layers {active} out of range 1..{len(factors)}")

    current = [_read_only(m) for m in factors]
    # The frozen layers below the lowest active one, multiplied once.  As
    # products accumulate from the bottom, a trial product over this head is
    # bitwise the product over the whole chain.  The loop works on ``block``,
    # the head and the layers from the lowest active one up.
    lo = active[0]
    frozen = current[: lo - 1]
    with np.errstate(over="ignore", invalid="ignore"):  # the one context of the call
        head = [running_product(frozen)] if frozen else []
        block = head + current[lo - 1 :]
        # The one shape check, and the one finiteness check, of the start.
        below, _, value, grad = _finite_loss_state(block, loss)
        skip = len(head)
        positions = [i - lo + 1 + skip for i in active]  # the active layers in the block
        recent = deque([value], maxlen=window)  # the last accepted losses
        t = STEP_INIT
        last = None  # the last accepted step's gradients and their squared norm
        steps = 0
        while True:
            # The forward products, the residual and the convex gradient are
            # the accepted trial's (or the start's).  One pass over the
            # gradients, in layer order, takes each sum of squares once, the
            # largest norm as builtin max would (a NaN first stays), and adds
            # the squares and the inner products up left to right.
            grads = gradient_core(block, below, grad, positions)
            max_grad = None
            squared = inner = 0.0
            for p, g in grads.items():
                sq = _sum_squares(g)
                norm = math.sqrt(sq)
                if max_grad is None or norm > max_grad:
                    max_grad = norm
                squared += sq
                if last is not None:
                    inner += float(np.vdot(last[0][p], g))
            if on_state is not None:
                on_state(steps, frozen + block[skip:], value, max_grad)
            if max_grad <= stop_grad_tol:
                status = STATUS_CRITICAL
                break
            if value <= target:
                status = STATUS_TARGET
                break
            if steps >= max_steps:
                status = STATUS_BUDGET
                break
            first = t * STEP_GROW
            if last is not None:
                last_squared = last[1]
                curvature = last_squared - inner
                if curvature > 0:
                    first = t * last_squared / curvature
            t = min(first, 1e12)
            reference = max(recent)
            # An overflowing trial counts as a failed Armijo test, silently.
            while t >= MIN_STEP:
                trial = list(block)
                for p in positions:
                    trial[p - 1] = block[p - 1] - t * grads[p]
                trial_below = prefix_products(trial)
                product = trial_below[-1]
                trial_residual = loss._residual(product)
                trial_value = loss._value(trial_residual)
                if (trial_value <= reference - ARMIJO_C * t * squared
                        and np.isfinite(product).all()):
                    break
                t *= BACKTRACK
            else:  # no step above MIN_STEP passed the Armijo test
                status = STATUS_LINE_SEARCH
                break
            if trial_value == value:
                status = STATUS_PRECISION
                break
            block, below, residual, value = trial, trial_below, trial_residual, trial_value
            recent.append(value)
            grad = loss._gradient(residual)
            last = grads, squared
            steps += 1
    return GDResult(
        factors=frozen + block[skip:], loss=value, status=status, steps=steps, max_grad=max_grad
    )
