"""Factor chains, convex losses, and exact layer gradients.

A *factor chain* is an ordered list of matrices ``M_1, ..., M_k`` (layers are
numbered 1..k throughout this package) whose product ``M_k @ ... @ M_1`` maps
width ``d_0`` to width ``d_k``.  The composite objective is
``loss.value(M_k @ ... @ M_1)`` for a convex, differentiable ``loss``.

This module owns the chain-product and gradient core used across the
package: :func:`running_product`, :func:`prefix_products`,
:func:`suffix_products` and :func:`gradient_core` work on plain sequences of
arrays, so the optimizer, the analyzer and the perturbation engine share
them without building chain objects.  No product is padded with an
identity: the prefix products are the running product's own intermediates,
and the suffix products stop at the lowest layer that is asked for.

The split utilities cut a chain at an interior layer of minimum width into
the two "super layers" above and below the cut; most of the landscape
analysis in this package happens at that level.  :func:`balance_gauge`
moves a chain, at the same product, to the gauge at that cut where the two
super layers' Gram matrices are equal, where ``verify`` starts (and every
25 steps restarts) its oracle and restart descents.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_INVARIANCE_TOL, ensure_matrix, numerical_rank

__all__ = [
    "ShapeMismatchError",
    "NoInteriorBottleneckError",
    "LossContractViolation",
    "FactorChain",
    "interior_bottleneck",
    "ConvexLoss",
    "QuadraticLoss",
    "LogCoshLoss",
    "TransposedLoss",
    "BottleneckSplit",
    "running_product",
    "prefix_products",
    "suffix_products",
    "gradient_core",
    "partial_product",
    "end_to_end",
    "chain_loss",
    "layer_gradients",
    "make_split",
    "bottleneck_split",
    "split_or_raise",
    "balance_gauge",
    "validate_loss_contract",
]


class ShapeMismatchError(ValueError):
    """Chain factors or loss data have incompatible shapes."""


class NoInteriorBottleneckError(ValueError):
    """An operation that needs an interior minimum-width layer was called on
    a chain that has none."""


class LossContractViolation(ValueError):
    """A loss failed its gradient-consistency or convexity spot checks."""


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
        for i, m in enumerate(mats):
            if m.size == 0:
                raise ValueError(f"factor {i + 1} is empty, with shape {m.shape}")
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
    def widths(self) -> tuple[int, ...]:
        """Layer widths ``d_0, ..., d_k``."""
        return (self.factors[0].shape[1],) + tuple(m.shape[0] for m in self.factors)

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


def interior_bottleneck(widths) -> int | None:
    """Smallest interior index ``0 < j < k`` of ``widths = (d_0, ..., d_k)``
    attaining the minimum width, or ``None`` when only a boundary does."""
    d = min(widths)
    for j in range(1, len(widths) - 1):
        if widths[j] == d:
            return j
    return None


class ConvexLoss(abc.ABC):
    """A convex, differentiable function of the end-to-end product matrix.

    Implementations expose the shape they accept (``out_rows`` x ``in_cols``)
    plus ``value`` and ``gradient``.  These check the product (a finite 2-D
    array of that shape), map it to a residual with ``_residual`` and hand
    that to the unchecked cores ``_value`` and ``_gradient``.  A subclass
    implements the two cores, both functions of the residual; it may
    override ``_residual``, which defaults to the identity, with the part of
    the work the two share, so that a caller that needs both at one product
    (:meth:`value_and_gradient`, the descent loop of ``optim``) builds it
    once.  The descent loop calls ``_residual`` and the cores directly: it
    checks the shape once per call and the finiteness of every product it
    builds.  The contract — gradient consistent with central finite
    differences, midpoint convexity — is spot-checkable via
    :func:`validate_loss_contract`.
    """

    out_rows: int
    in_cols: int

    def value(self, w: np.ndarray) -> float:
        return self._value(self._residual(self._check_shape(w)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self._gradient(self._residual(self._check_shape(w)))

    def value_and_gradient(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """``(value(w), gradient(w))`` from one shape check and one residual."""
        r = self._residual(self._check_shape(w))
        return self._value(r), self._gradient(r)

    def _residual(self, w: np.ndarray) -> np.ndarray:
        return w

    @abc.abstractmethod
    def _value(self, r: np.ndarray) -> float:
        raise NotImplementedError

    @abc.abstractmethod
    def _gradient(self, r: np.ndarray) -> np.ndarray:
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

    ``inputs`` is ``d_0 x n`` and ``targets`` is ``d_k x n``.  The residual
    is ``R = W X - Y``; the value is ``|R|_F^2`` and the gradient
    ``2 R X^T``.
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

    def _residual(self, w: np.ndarray) -> np.ndarray:
        return w @ self.inputs - self.targets

    def _value(self, r: np.ndarray) -> float:
        return float((r * r).sum())

    def _gradient(self, r: np.ndarray) -> np.ndarray:
        return (2.0 * r) @ self.inputs.T


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

    def _value(self, w: np.ndarray) -> float:
        return float(self._logcosh(w - self.target).sum())

    def _gradient(self, w: np.ndarray) -> np.ndarray:
        return np.tanh(w - self.target)


class TransposedLoss(ConvexLoss):
    """View of a loss acting on the transposed product, ``g(W) = f(W^T)``.

    Convexity and differentiability carry over; the gradient is
    ``f'(W^T)^T``.  The residual is the base loss's residual at ``W^T``.
    Used to analyse the upper super layer of a chain with the machinery
    written for the lower one.
    """

    def __init__(self, base: ConvexLoss) -> None:
        self.base = base
        self.out_rows = base.in_cols
        self.in_cols = base.out_rows

    def _residual(self, w: np.ndarray) -> np.ndarray:
        return self.base._residual(w.T)

    def _value(self, r: np.ndarray) -> float:
        return self.base._value(r)

    def _gradient(self, r: np.ndarray) -> np.ndarray:
        return self.base._gradient(r).T


def running_product(mats) -> np.ndarray:
    """The product ``mats[n-1] @ ... @ mats[0]`` of a non-empty sequence,
    accumulated from the bottom (the first array is applied first)."""
    out = mats[0]
    for m in mats[1:]:
        out = m @ out
    return out


def prefix_products(mats) -> list[np.ndarray]:
    """The intermediates of :func:`running_product` over a non-empty
    sequence: entry ``i - 1`` is ``M_i ... M_1``, so the first entry is
    ``mats[0]`` itself and the last is bitwise the running product."""
    below = [mats[0]]
    for m in mats[1:]:
        below.append(m @ below[-1])
    return below


def suffix_products(mats, lowest: int) -> dict[int, np.ndarray]:
    """The products ``M_k ... M_{i+1}`` above layer ``i``, keyed by ``i``,
    for ``i`` from ``k - 1`` down to ``lowest``.

    They accumulate from the top: ``M_k`` itself, then each entry is the one
    above it times ``M_{i+1}``, so they cost ``k - 1 - lowest`` matrix
    multiplies.  Layer ``k`` has nothing above it and gets no entry.
    """
    k = len(mats)
    above = {k - 1: mats[-1]} if lowest < k else {}
    for i in range(k - 2, lowest - 1, -1):
        above[i] = above[i + 1] @ mats[i]
    return above


def gradient_core(mats, below, grad, layers) -> dict[int, np.ndarray]:
    """Layer gradients of a chain given as raw arrays.

    ``below`` is :func:`prefix_products` of ``mats`` and ``grad`` the convex
    gradient ``f'(W)`` at its last entry, the end-to-end product ``W``.
    Returns ``{i: (M_k ... M_{i+1})^T f'(W) (M_{i-1} ... M_1)^T}``, the
    gradient of the composite objective w.r.t. layer ``i``, for each 1-based
    position ``i`` in ``layers`` (in that order).  The suffix products are
    built down to the lowest of ``layers`` only, and the top and bottom
    layers skip the empty product on their side.
    """
    k = len(mats)
    above = suffix_products(mats, min(layers))
    grads = {}
    for i in layers:
        g = grad if i == k else above[i].T @ grad
        grads[i] = g if i == 1 else g @ below[i - 2].T
    return grads


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
        return np.eye(chain.widths[hi])
    return running_product(chain.factors[lo - 1 : hi])


def end_to_end(chain: FactorChain) -> np.ndarray:
    """The full product ``M_k @ ... @ M_1``."""
    return running_product(chain.factors)


def chain_loss(chain: FactorChain, loss: ConvexLoss) -> float:
    """Composite objective value at the chain's end-to-end product."""
    return loss.value(end_to_end(chain))


def _check_finite_loss(chain: FactorChain, loss: ConvexLoss) -> None:
    """Refuse a chain whose loss or convex gradient at the end-to-end product
    is not finite: every analysis of it would run on inf and NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = end_to_end(chain)
        finite = np.all(np.isfinite(product))
        if finite:
            value, grad = loss.value_and_gradient(product)
            finite = np.isfinite(value) and np.all(np.isfinite(grad))
    if not finite:
        raise ValueError("the loss or its gradient at the end-to-end product overflows")


def layer_gradients(chain: FactorChain, loss: ConvexLoss) -> list[np.ndarray]:
    """Exact gradient of the composite objective w.r.t. every layer.

    Entry ``i - 1`` holds the gradient for layer ``i``, as computed by
    :func:`gradient_core`.
    """
    below = prefix_products(chain.factors)
    grads = gradient_core(chain.factors, below, loss.gradient(below[-1]), range(1, chain.k + 1))
    return list(grads.values())


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
    widths = chain.widths
    if not 0 < j < chain.k:
        raise ValueError(f"split index must be interior (1..{chain.k - 1}), got {j}")
    if widths[j] != min(widths):
        raise ValueError(
            f"width at index {j} is {widths[j]}, not the minimum "
            f"{min(widths)}; refusing a non-bottleneck split"
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
    j = interior_bottleneck(chain.widths)
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
            f"chain with widths {chain.widths} has no interior bottleneck"
        )
    return split


def _sqrt_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``S^{1/2}`` and ``S^{-1/2}`` of a symmetric matrix from one ``eigh``,
    or ``None`` unless ``S`` is finite and every eigenvalue is positive."""
    if not np.isfinite(s).all():
        return None
    w, v = np.linalg.eigh(s)
    if not w[0] > 0.0:
        return None
    r = np.sqrt(w)
    return (v * r) @ v.T, (v / r) @ v.T


def balance_gauge(factors) -> list[np.ndarray]:
    """The chain ``factors`` moved to the balanced gauge at its bottleneck cut.

    With ``j`` the :func:`interior_bottleneck`, ``A = M_k ... M_{j+1}`` the
    upper and ``B = M_j ... M_1`` the lower super layer, the product does not
    change under ``M_j -> G M_j``, ``M_{j+1} -> M_{j+1} G^{-1}`` for any
    invertible d x d ``G``, but descent speed does: along a direction where
    one super layer is weak the gradient is tiny.  ``G = X^{1/2}``, with
    ``X`` the matrix geometric mean of ``(B B^T)^{-1}`` and ``A^T A``, makes
    the two Gram matrices equal, ``G B B^T G = G^{-1} A^T A G^{-1}``; it takes
    three ``eigh`` of d x d matrices.  Approximate balance is what gives
    descent on deep linear chains linear convergence (Arora, Cohen, Golowich
    & Hu 2019).  Gradient flow keeps the balance it starts with (Du, Hu &
    Lee 2018), but large discrete steps need not, so a long descent may
    return to this gauge more than once.

    Returns a list of the input arrays, unchanged, when the chain has no
    interior bottleneck, either super layer has numerical rank below ``d``,
    anything comes out non-finite, or the gauged product moves by more than
    ``DEFAULT_INVARIANCE_TOL * (1 + |W|_F)``.
    """
    mats = list(factors)
    j = interior_bottleneck((mats[0].shape[1],) + tuple(m.shape[0] for m in mats))
    if j is None:
        return mats
    with np.errstate(over="ignore", invalid="ignore"):
        upper, lower = running_product(mats[j:]), running_product(mats[:j])
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            return mats
        d = lower.shape[0]
        if numerical_rank(upper) < d or numerical_rank(lower) < d:
            return mats
        lower_gram = _sqrt_pair(lower @ lower.T)
        if lower_gram is None:
            return mats
        half, inv_half = lower_gram
        middle = _sqrt_pair(half @ (upper.T @ upper) @ half)
        if middle is None:
            return mats
        gauge = _sqrt_pair(inv_half @ middle[0] @ inv_half)
        if gauge is None:
            return mats
        gauged = list(mats)
        gauged[j - 1] = gauge[0] @ mats[j - 1]
        gauged[j] = mats[j] @ gauge[1]
        product = running_product(mats)
        drift = float(np.linalg.norm(running_product(gauged) - product))
        bound = DEFAULT_INVARIANCE_TOL * (1.0 + float(np.linalg.norm(product)))
    return gauged if drift <= bound else mats


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
