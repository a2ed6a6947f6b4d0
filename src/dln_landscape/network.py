"""Factor chains, convex losses, and exact layer gradients.

A *factor chain* is an ordered list of matrices ``M_1, ..., M_k`` (layers are
numbered 1..k throughout this package) whose product ``M_k @ ... @ M_1`` maps
width ``d_0`` to width ``d_k``.  The composite objective is
``loss.value(M_k @ ... @ M_1)`` for a convex, differentiable ``loss``.

This module owns the chain-product and gradient core used across the
package: :func:`running_product`, :func:`prefix_suffix_products` and
:func:`gradient_core` work on plain sequences of arrays, so the optimizer,
the analyzer and the perturbation engine share them without building chain
objects.

The split utilities cut a chain at an interior layer of minimum width into
the two "super layers" above and below the cut; most of the landscape
analysis in this package happens at that level.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .linalg import ensure_matrix

__all__ = [
    "ShapeMismatchError",
    "NoInteriorBottleneckError",
    "LossContractViolation",
    "DimensionSignature",
    "FactorChain",
    "ConvexLoss",
    "QuadraticLoss",
    "LogCoshLoss",
    "TransposedLoss",
    "BottleneckSplit",
    "running_product",
    "prefix_suffix_products",
    "gradient_core",
    "partial_product",
    "end_to_end",
    "chain_loss",
    "layer_gradients",
    "make_split",
    "bottleneck_split",
    "split_or_raise",
    "validate_loss_contract",
]


class ShapeMismatchError(ValueError):
    """Chain factors or loss data have incompatible shapes."""


class NoInteriorBottleneckError(ValueError):
    """An operation that needs an interior minimum-width layer was called on
    a chain that has none."""


class LossContractViolation(ValueError):
    """A loss failed its gradient-consistency or convexity spot checks."""


@dataclass(frozen=True)
class DimensionSignature:
    """Layer widths ``d_0, ..., d_k`` of a chain with ``k >= 2`` factors."""

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        object.__setattr__(self, "widths", widths)
        if len(widths) < 3:
            raise ValueError(f"need at least 2 layers (3 widths), got {widths}")
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")

    @property
    def k(self) -> int:
        return len(self.widths) - 1

    @property
    def min_width(self) -> int:
        return min(self.widths)

    def interior_bottleneck(self) -> int | None:
        """Smallest interior index ``0 < j < k`` attaining the minimum width."""
        d = self.min_width
        for j in range(1, self.k):
            if self.widths[j] == d:
                return j
        return None


def _read_only(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FactorChain:
    """An immutable chain of layer matrices.

    ``factors[i]`` holds layer ``i + 1``; layer ``i`` has shape
    ``(d_i, d_{i-1})``.  Arrays are defensively copied and frozen so chains
    are safe to share between analyses.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(_read_only(ensure_matrix(m, f"factor {i + 1}"))
                     for i, m in enumerate(self.factors))
        if len(mats) < 2:
            raise ValueError(f"need at least 2 factors, got {len(mats)}")
        for i in range(1, len(mats)):
            if mats[i].shape[1] != mats[i - 1].shape[0]:
                raise ShapeMismatchError(
                    f"factor {i + 1} has shape {mats[i].shape} but factor {i} "
                    f"has shape {mats[i - 1].shape}"
                )
        object.__setattr__(self, "factors", mats)

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def dims(self) -> DimensionSignature:
        widths = (self.factors[0].shape[1],) + tuple(m.shape[0] for m in self.factors)
        return DimensionSignature(widths)

    def factor(self, layer: int) -> np.ndarray:
        """Layer matrix by 1-based layer number."""
        if not 1 <= layer <= self.k:
            raise IndexError(f"layer must be in 1..{self.k}, got {layer}")
        return self.factors[layer - 1]

    def with_factor(self, layer: int, new: np.ndarray) -> "FactorChain":
        """Copy of the chain with one layer replaced (same shape required)."""
        old = self.factor(layer)
        new = ensure_matrix(new, f"replacement for layer {layer}")
        if new.shape != old.shape:
            raise ShapeMismatchError(
                f"layer {layer} has shape {old.shape}, replacement has {new.shape}"
            )
        mats = list(self.factors)
        mats[layer - 1] = new
        return FactorChain(tuple(mats))


class ConvexLoss(abc.ABC):
    """A convex, differentiable function of the end-to-end product matrix.

    Implementations expose the shape they accept (``out_rows`` x ``in_cols``)
    plus ``value`` and ``gradient``.  The contract — gradient consistent with
    central finite differences, midpoint convexity — is spot-checkable via
    :func:`validate_loss_contract`.
    """

    out_rows: int
    in_cols: int

    @abc.abstractmethod
    def value(self, w: np.ndarray) -> float:
        raise NotImplementedError

    @abc.abstractmethod
    def gradient(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_shape(self, w: np.ndarray) -> np.ndarray:
        w = ensure_matrix(w, "product matrix")
        if w.shape != (self.out_rows, self.in_cols):
            raise ShapeMismatchError(
                f"loss expects {(self.out_rows, self.in_cols)}, got {w.shape}"
            )
        return w


class QuadraticLoss(ConvexLoss):
    """Squared Frobenius data-fitting loss ``|W X - Y|_F^2``.

    ``inputs`` is ``d_0 x n`` and ``targets`` is ``d_k x n``.
    The gradient is ``2 (W X - Y) X^T``.
    """

    def __init__(self, inputs, targets) -> None:
        self.inputs = _read_only(ensure_matrix(inputs, "inputs"))
        self.targets = _read_only(ensure_matrix(targets, "targets"))
        if self.inputs.shape[1] != self.targets.shape[1]:
            raise ShapeMismatchError(
                f"inputs have {self.inputs.shape[1]} columns, targets have "
                f"{self.targets.shape[1]}"
            )
        self.out_rows = self.targets.shape[0]
        self.in_cols = self.inputs.shape[0]

    def value(self, w: np.ndarray) -> float:
        w = self._check_shape(w)
        r = w @ self.inputs - self.targets
        return float(np.sum(r * r))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self._check_shape(w)
        return 2.0 * (w @ self.inputs - self.targets) @ self.inputs.T


class LogCoshLoss(ConvexLoss):
    """Entrywise ``log cosh`` deviation from a fixed target matrix.

    ``value(W) = sum_ij log cosh(W_ij - T_ij)``; the gradient is
    ``tanh(W - T)``.  Smooth, convex, and non-quadratic, which makes it a
    useful second loss for exercising anything that should not depend on
    quadratic structure.
    """

    def __init__(self, target) -> None:
        self.target = _read_only(ensure_matrix(target, "target"))
        self.out_rows, self.in_cols = self.target.shape

    @staticmethod
    def _logcosh(x: np.ndarray) -> np.ndarray:
        # log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log(2), stable for large |x|
        ax = np.abs(x)
        return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)

    def value(self, w: np.ndarray) -> float:
        w = self._check_shape(w)
        return float(np.sum(self._logcosh(w - self.target)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self._check_shape(w)
        return np.tanh(w - self.target)


class TransposedLoss(ConvexLoss):
    """View of a loss acting on the transposed product, ``g(W) = f(W^T)``.

    Convexity and differentiability carry over; the gradient is
    ``f'(W^T)^T``.  Used to analyse the upper super layer of a chain with
    the machinery written for the lower one.
    """

    def __init__(self, base: ConvexLoss) -> None:
        self.base = base
        self.out_rows = base.in_cols
        self.in_cols = base.out_rows

    def value(self, w: np.ndarray) -> float:
        w = self._check_shape(w)
        return self.base.value(w.T)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        w = self._check_shape(w)
        return self.base.gradient(w.T).T


def running_product(mats) -> np.ndarray:
    """The product ``mats[n-1] @ ... @ mats[0]`` of a non-empty sequence,
    accumulated from the bottom (the first array is applied first)."""
    out = mats[0]
    for m in mats[1:]:
        out = m @ out
    return out


def prefix_suffix_products(mats) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """All prefix and suffix products of a chain given as raw arrays.

    Returns ``(below, above)`` with ``below[i] = M_i ... M_1`` and
    ``above[i] = M_k ... M_{i+1}`` for ``i = 0..k``; ``below[0]`` and
    ``above[k]`` are identities, so ``below[k]`` is the end-to-end product
    and layer ``i`` sits between ``above[i]`` and ``below[i - 1]``.  Costs
    O(k) matrix multiplies.
    """
    below = [np.eye(mats[0].shape[1])]
    for m in mats:
        below.append(m @ below[-1])
    above = [np.eye(mats[-1].shape[0])]
    for m in reversed(mats):
        above.append(above[-1] @ m)
    return below, above[::-1]


def gradient_core(
    mats, loss: ConvexLoss, layers
) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray]]:
    """End-to-end product, convex gradient and layer gradients of a chain
    given as raw arrays.

    Returns ``(W, f'(W), grads)`` with ``W`` the product of ``mats`` and
    ``grads[i] = (M_k ... M_{i+1})^T f'(W) (M_{i-1} ... M_1)^T``, the
    gradient of the composite objective w.r.t. layer ``i``, for each 1-based
    position ``i`` in ``layers`` (in that order).  Built on
    :func:`prefix_suffix_products`, so it costs O(k) matrix multiplies.
    """
    below, above = prefix_suffix_products(mats)
    grad = loss.gradient(below[-1])
    return below[-1], grad, {i: above[i].T @ grad @ below[i - 1].T for i in layers}


def partial_product(chain: FactorChain, lo: int, hi: int) -> np.ndarray:
    """Product of layers ``hi, hi-1, ..., lo`` (``M_hi @ ... @ M_lo``).

    An empty range (``hi < lo``) yields the identity on width ``d_hi``,
    which is the convention that makes gradient and super-layer formulas
    uniform at the chain boundaries.
    """
    k = chain.k
    if not (1 <= lo <= k + 1):
        raise IndexError(f"lo must be in 1..{k + 1}, got {lo}")
    if not (0 <= hi <= k):
        raise IndexError(f"hi must be in 0..{k}, got {hi}")
    if hi < lo:
        return np.eye(chain.dims.widths[hi])
    return running_product(chain.factors[lo - 1 : hi])


def end_to_end(chain: FactorChain) -> np.ndarray:
    """The full product ``M_k @ ... @ M_1``."""
    return running_product(chain.factors)


def chain_loss(chain: FactorChain, loss: ConvexLoss) -> float:
    """Composite objective value at the chain's end-to-end product."""
    _check_loss_shape(chain, loss)
    return loss.value(end_to_end(chain))


def _check_loss_shape(chain: FactorChain, loss: ConvexLoss) -> None:
    widths = chain.dims.widths
    if (loss.out_rows, loss.in_cols) != (widths[-1], widths[0]):
        raise ShapeMismatchError(
            f"loss expects product shape {(loss.out_rows, loss.in_cols)} but "
            f"chain produces {(widths[-1], widths[0])}"
        )


def _check_finite_loss(chain: FactorChain, loss: ConvexLoss) -> None:
    """Refuse a chain whose loss or convex gradient at the end-to-end product
    is not finite: every analysis of it would run on inf and NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = end_to_end(chain)
        finite = (
            np.all(np.isfinite(product))
            and np.isfinite(loss.value(product))
            and np.all(np.isfinite(loss.gradient(product)))
        )
    if not finite:
        raise ValueError("the loss or its gradient at the end-to-end product overflows")


def layer_gradients(chain: FactorChain, loss: ConvexLoss) -> list[np.ndarray]:
    """Exact gradient of the composite objective w.r.t. every layer.

    Entry ``i - 1`` holds the gradient for layer ``i``, as computed by
    :func:`gradient_core`.
    """
    _check_loss_shape(chain, loss)
    return list(gradient_core(chain.factors, loss, range(1, chain.k + 1))[2].values())


@dataclass(frozen=True)
class BottleneckSplit:
    """A chain cut at an interior minimum-width layer ``j``.

    above
        ``M_k ... M_{j+1}``, shape ``d_k x d``.
    below
        ``M_j ... M_1``, shape ``d x d_0``.
    """

    index: int
    above: np.ndarray = field(repr=False)
    below: np.ndarray = field(repr=False)

    @property
    def width(self) -> int:
        return self.above.shape[1]


def make_split(chain: FactorChain, j: int) -> BottleneckSplit:
    """Split ``chain`` at interior index ``j`` (must have minimum width)."""
    dims = chain.dims
    if not 0 < j < dims.k:
        raise ValueError(f"split index must be interior (1..{dims.k - 1}), got {j}")
    if dims.widths[j] != dims.min_width:
        raise ValueError(
            f"width at index {j} is {dims.widths[j]}, not the minimum "
            f"{dims.min_width}; refusing a non-bottleneck split"
        )
    return BottleneckSplit(
        index=j,
        above=partial_product(chain, j + 1, chain.k),
        below=partial_product(chain, 1, j),
    )


def bottleneck_split(chain: FactorChain) -> BottleneckSplit | None:
    """Split at the smallest interior index of minimum width, if one exists.

    ``None`` means no interior layer attains the minimum width — a
    legitimate outcome (such chains have no spurious local minima to hunt),
    not an error.
    """
    j = chain.dims.interior_bottleneck()
    if j is None:
        return None
    return make_split(chain, j)


def split_or_raise(chain: FactorChain, split: BottleneckSplit | None = None) -> BottleneckSplit:
    """``split`` if given, else :func:`bottleneck_split` of ``chain``; raises
    :class:`NoInteriorBottleneckError` when the chain has no interior
    bottleneck."""
    split = split if split is not None else bottleneck_split(chain)
    if split is None:
        raise NoInteriorBottleneckError(
            f"chain with widths {chain.dims.widths} has no interior bottleneck"
        )
    return split


# Loss-contract spot checks: number of probes, relative and absolute
# finite-difference tolerances, midpoint-convexity slack.
CONTRACT_PROBES = 8
CONTRACT_FD_RTOL = 1e-5
CONTRACT_FD_ATOL = 1e-8
CONTRACT_CONVEXITY_TOL = 1e-10


def validate_loss_contract(loss: ConvexLoss, rng: np.random.Generator) -> None:
    """Spot-check the convex-loss contract on standard-normal probe matrices.

    Verifies (a) ``gradient`` against central finite differences entrywise
    and (b) midpoint convexity ``f((u+v)/2) <= (f(u)+f(v))/2``, at the
    ``CONTRACT_*`` tolerances.  Raises :class:`LossContractViolation` on
    failure.
    """
    shape = (loss.out_rows, loss.in_cols)
    for trial in range(CONTRACT_PROBES):
        w = rng.standard_normal(shape)
        grad = loss.gradient(w)
        fd = np.empty(shape)
        for r in range(shape[0]):
            for c in range(shape[1]):
                h = 1e-5 * (1.0 + abs(w[r, c]))
                wp = w.copy(); wp[r, c] += h
                wm = w.copy(); wm[r, c] -= h
                fd[r, c] = (loss.value(wp) - loss.value(wm)) / (2.0 * h)
        err = np.abs(grad - fd)
        bound = CONTRACT_FD_ATOL + CONTRACT_FD_RTOL * np.abs(fd)
        if np.any(err > bound):
            worst = np.unravel_index(np.argmax(err - bound), shape)
            raise LossContractViolation(
                f"gradient mismatch at probe {trial}, entry {worst}: "
                f"analytic {grad[worst]:.6e} vs finite-difference {fd[worst]:.6e}"
            )
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        mid = loss.value(0.5 * (u + v))
        avg = 0.5 * (loss.value(u) + loss.value(v))
        if mid > avg + CONTRACT_CONVEXITY_TOL * (1.0 + abs(avg)):
            raise LossContractViolation(
                f"midpoint convexity violated at probe {trial}: "
                f"f(mid) = {mid:.17g} > averaged {avg:.17g}"
            )
