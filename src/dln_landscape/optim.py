"""Backtracking gradient descent on raw layer arrays.

The full-chain trainer (``harness.train_gd``) and the post-escape descent
search (``analyze.descent_search``) both run this loop: steepest descent on
a chosen subset of layers with Armijo backtracking, strictly monotone by
construction, single-threaded and deterministic.  It works on plain arrays
and takes its products from the ``network`` product core, so a step builds
no chain objects.  The layers below the lowest active one never change, so
their product is built once per call and heads the chain the loop works on:
a step's products and a line-search trial's running product cover only the
active block and the layers above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .network import ConvexLoss, prefix_suffix_products, running_product

__all__ = ["GDResult", "armijo_gd"]

STATUS_CRITICAL = "stalled-critical"
STATUS_BUDGET = "budget-exhausted"
STATUS_LINE_SEARCH = "line-search-stalled"

# Armijo line search: sufficient-decrease factor, backtracking factor, first
# trial step, growth of the carried-over step, smallest trial step.
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
) -> GDResult:
    """Steepest descent with Armijo backtracking on selected layers.

    ``active_layers`` holds 1-based layer numbers; the rest stay frozen.
    A line-search trial costs one running product of the layers from the
    lowest active one up, headed by the product of the frozen layers below.
    The accepted step size carries over between iterations (grown by
    ``STEP_GROW`` before each line search) so the loop adapts to the local
    scale.  A trial whose product overflows counts as a failed Armijo test.
    ``on_state`` is invoked with ``(step, factors, loss, max_grad)`` for the
    initial state (step 0) and after every accepted step.

    Stops with status ``stalled-critical`` when the largest active-layer
    gradient norm drops to ``stop_grad_tol``, ``budget-exhausted`` after
    ``max_steps`` accepted steps, or ``line-search-stalled`` when no step
    above ``MIN_STEP`` achieves the Armijo decrease.
    """
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
    value = loss.value(running_product(head + current[lo - 1 :]))
    t = STEP_INIT
    steps = 0
    while True:
        below, above = prefix_suffix_products(head + current[lo - 1 :])
        grad = loss.gradient(below[-1])
        grads = {i: above[i - shift].T @ grad @ below[i - shift - 1].T for i in active}
        max_grad = max(float(np.linalg.norm(g)) for g in grads.values())
        if on_state is not None:
            on_state(steps, current, value, max_grad)
        if max_grad <= stop_grad_tol:
            status = STATUS_CRITICAL
            break
        if steps >= max_steps:
            status = STATUS_BUDGET
            break
        squared = sum(float(np.sum(g**2)) for g in grads.values())
        t = min(t * STEP_GROW, 1e12)
        # An overflowing trial counts as a failed Armijo test, silently.
        with np.errstate(over="ignore", invalid="ignore"):
            while t >= MIN_STEP:
                trial = list(current)
                for i in active:
                    trial[i - 1] = current[i - 1] - t * grads[i]
                product = running_product(head + trial[lo - 1 :])
                trial_value = loss.value(product) if np.all(np.isfinite(product)) else np.inf
                if trial_value <= value - ARMIJO_C * t * squared:
                    break
                t *= BACKTRACK
            else:  # no step above MIN_STEP passed the Armijo test
                status = STATUS_LINE_SEARCH
                break
        current, value = trial, trial_value
        steps += 1
    return GDResult(
        factors=current, loss=value, status=status, steps=steps, max_grad=max_grad
    )
