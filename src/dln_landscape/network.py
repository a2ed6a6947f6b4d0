"""Factor chains, convex losses, and exact layer gradients.

A *factor chain* is an ordered list of matrices ``M_1, ..., M_k`` (layers are
numbered 1..k throughout this package) whose product ``M_k @ ... @ M_1`` maps
width ``d_0`` to width ``d_k``.  The composite objective is
``loss.value(M_k @ ... @ M_1)`` for a convex, differentiable ``loss``.

This module owns the chain-product and gradient core used across the
package: :func:`running_product`, :func:`prefix_products` and
:func:`gradient_core` work on plain sequences of arrays, so the optimizer,
the analyzer and the perturbation engine share them without building chain
objects.  No product is padded with an identity: the prefix products are
the running product's own intermediates, and the layer gradients come from
one backward sweep that carries the convex gradient down the chain, one
product per layer, as backpropagation does.  A sum of squares is one
reduction per array, :func:`_sum_squares`, a BLAS dot product of the
flattening with itself: the quadratic loss's value, :func:`_norm` and the
descent's squared gradient norms take it.

Every matrix product in the package is written ``x.dot(y)``, and a chain
``a @ b @ c`` as ``a.dot(b).dot(c)``: the same cblas call as ``@`` (gemm,
gemv, or syrk for a Gram pair such as ``m.T`` with ``m``), bit for bit,
without the ``matmul`` ufunc's dispatch.  Up to about 32 wide, where
``verify`` and most analyses run, that saves 30–55% of a product (0.29
against 0.64 µs up to 6 wide, 0.94 against 1.34 µs at 32; OpenBLAS 0.3.31,
one thread, x86-64).  From about 64 wide ``dot`` is 1–5% slower instead,
as an extra pass that clears the output would be (192×128 times 128×128:
77.0 against 74.0 µs).  Bitwise equality holds for operands that are
contiguous or transposes of contiguous arrays, and the package's own
arrays stay so: chains and losses store contiguous copies, and the descent
copies its start.  A strided view handed to a public function falls outside
that condition, and its products may round differently from ``@``'s.  No
helper wraps the call, as it would put a Python call back on every product.

The split utilities cut a chain at an interior layer of minimum width into
the two "super layers" above and below the cut; most of the landscape
analysis in this package happens at that level.  :func:`balance_gauge`
moves a chain, at the same product, to the gauge at that cut where the two
super layers' Gram matrices are equal, where ``verify`` starts (and every
100 steps restarts) its oracle and restart descents.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_INVARIANCE_TOL,
    DEFAULT_RANK_TOL,
    _finite_rank,
    _rank_of_spectrum,
    ensure_matrix,
)

__all__ = [
    "ShapeMismatchError",
    "NoInteriorBottleneckError",
    "LossContractViolation",
    "FactorChain",
    "interior_bottleneck",
    "ConvexLoss",
    "QuadraticLoss",
    "LogCoshLoss",
    "BottleneckSplit",
    "running_product",
    "prefix_products",
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


def _sum_squares(a: np.ndarray) -> float:
    """The sum of squares of ``a``'s entries: one dot of its flattening."""
    flat = a.ravel(order="K")
    return float(flat.dot(flat))


def _norm(g: np.ndarray) -> float:
    """``np.linalg.norm(g)`` of a 2-D array, bitwise, without its dispatch."""
    return math.sqrt(_sum_squares(g))


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
    and two unchecked cores, ``_value`` and ``_gradient``, both functions of
    the residual that ``_residual`` (the identity unless overridden) makes
    of the product, so a caller that needs both at one product builds it
    once.  The public ``value`` and ``gradient`` check the product (a finite
    2-D array of that shape) first.  :func:`_finite_loss_state` is the one
    checked evaluation of both, from the factors, and also refuses a value
    or a gradient norm that is not finite: ``classify``, the escape entry
    points, ``storage``'s save and load and the start of ``optim``'s descent
    open with it.  The descent loop then calls the cores directly, testing
    each trial product it accepts for finiteness.  The contract — gradient consistent with central finite
    differences, midpoint convexity — is spot-checkable via
    :func:`validate_loss_contract`.
    """

    out_rows: int
    in_cols: int

    def value(self, w: np.ndarray) -> float:
        return self._value(self._residual(self._check_shape(w)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self._gradient(self._residual(self._check_shape(w)))

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
        return w.dot(self.inputs) - self.targets

    def _value(self, r: np.ndarray) -> float:
        return _sum_squares(r)

    def _gradient(self, r: np.ndarray) -> np.ndarray:
        return (2.0 * r).dot(self.inputs.T)


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
        return float(np.add.reduce(self._logcosh(w - self.target), None))

    def _gradient(self, w: np.ndarray) -> np.ndarray:
        return np.tanh(w - self.target)


def running_product(mats) -> np.ndarray:
    """The product ``mats[n-1] @ ... @ mats[0]`` of a non-empty sequence,
    accumulated from the bottom (the first array is applied first)."""
    out = mats[0]
    for m in mats[1:]:
        out = m.dot(out)
    return out


def prefix_products(mats) -> list[np.ndarray]:
    """The intermediates of :func:`running_product` over a non-empty
    sequence: entry ``i - 1`` is ``M_i ... M_1``, so the first entry is
    ``mats[0]`` itself and the last is bitwise the running product."""
    below = [mats[0]]
    for m in mats[1:]:
        below.append(m.dot(below[-1]))
    return below


def gradient_core(mats, below, grad, layers) -> dict[int, np.ndarray]:
    """Layer gradients of a chain given as raw arrays.

    ``below`` is :func:`prefix_products` of ``mats`` and ``grad`` the convex
    gradient ``f'(W)`` at its last entry, the end-to-end product ``W``.
    Returns ``{i: (M_k ... M_{i+1})^T f'(W) (M_{i-1} ... M_1)^T}``, the
    gradient of the composite objective w.r.t. layer ``i``, for each 1-based
    position ``i`` in ``layers`` (in that order).  One backward sweep builds
    them: ``back_k = f'(W)`` and ``back_{i-1} = M_i^T back_i`` down to the
    lowest of ``layers``, then ``back_i (M_{i-1} ... M_1)^T`` is layer
    ``i``'s gradient and ``back_1`` layer 1's.  That is ``k - lowest``
    products for the sweep and one per layer asked for other than layer 1.
    """
    back = {len(mats): grad}
    for i in range(len(mats), min(layers), -1):
        back[i - 1] = mats[i - 1].T.dot(back[i])
    return {i: back[i] if i == 1 else back[i].dot(below[i - 2].T) for i in layers}


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


@np.errstate(over="ignore", invalid="ignore")
def _finite_loss_state(
    mats, loss: ConvexLoss
) -> tuple[list[np.ndarray], np.ndarray, float, np.ndarray]:
    """The one checked first-order pass over the factors ``mats``:
    ``(below, residual, value, gradient)``, with ``below`` their
    :func:`prefix_products` and the rest ``loss`` at the last of them, the
    end-to-end product, all computed without floating-point warnings.
    Raises ``ValueError`` unless the product, the value and the gradient's
    norm (so every entry) are finite, and :class:`ShapeMismatchError` for a
    finite product of the wrong shape."""
    below = prefix_products(mats)
    if np.isfinite(below[-1]).all():
        residual = loss._residual(loss._check_shape(below[-1]))
        value = loss._value(residual)
        grad = loss._gradient(residual)
        if np.isfinite(value) and math.isfinite(_norm(grad)):
            return below, residual, value, grad
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


def balance_gauge(factors) -> list[np.ndarray]:
    """The chain ``factors`` moved to the balanced gauge at its bottleneck cut.

    With ``j`` the :func:`interior_bottleneck`, ``A = M_k ... M_{j+1}`` the
    upper and ``B = M_j ... M_1`` the lower super layer, the product does not
    change under ``M_j -> G M_j``, ``M_{j+1} -> M_{j+1} G^{-1}`` for any
    invertible d x d ``G``, but descent speed does: along a direction where
    one super layer is weak the gradient is tiny.  From two thin SVDs,
    ``B = U S V^T`` and ``A U S = P T R^T``, ``G = T^{1/2} R^T S^{-1} U^T``
    makes both Gram matrices ``T``: ``G B B^T G^T = G^{-T} A^T A G^{-1}``.
    ``G^T G`` is the geometric mean of ``(B B^T)^{-1}`` and ``A^T A``, so
    ``G`` is its square root up to an orthogonal factor at the cut, under
    which descent is equivariant.  Approximate balance gives descent on deep
    linear chains linear convergence (Arora, Cohen, Golowich & Hu 2019);
    gradient flow keeps it (Du, Hu & Lee 2018) but large discrete steps need
    not, so a long descent may return to this gauge more than once.

    Returns a list of the input arrays, unchanged, when the chain has no
    interior bottleneck, either super layer has numerical rank below ``d``
    (the lower one's counted from its SVD), ``A U S`` is not finite or
    singular, or the gauged product is not finite or moves by more than
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
        # Both are finite, so the upper rank test skips numerical_rank's
        # scan; the lower one counts the spectrum of the SVD the gauge needs.
        if _finite_rank(upper) < d:
            return mats
        u, s, _ = np.linalg.svd(lower, full_matrices=False)
        if _rank_of_spectrum(s, DEFAULT_RANK_TOL) < d:
            return mats
        scaled = u * s
        mixed = upper.dot(scaled)
        if not np.isfinite(mixed).all():
            return mats
        _, t, rt = np.linalg.svd(mixed, full_matrices=False)
        if not t[-1] > 0.0:
            return mats
        root = np.sqrt(t)
        gauged = list(mats)
        gauged[j - 1] = (root[:, None] * rt / s).dot(u.T).dot(mats[j - 1])
        gauged[j] = mats[j].dot(scaled.dot(rt.T) / root)
        product = running_product(mats)
        drift = _norm(running_product(gauged) - product)
        bound = DEFAULT_INVARIANCE_TOL * (1.0 + _norm(product))
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
    failure.  One public ``gradient`` call per probe checks the probe's
    shape; the finite-difference and midpoint values come from the cores
    the descent loop runs, ``loss._value(loss._residual(w))``, since every
    probe is finite and of that shape by construction.
    """
    shape = (loss.out_rows, loss.in_cols)

    def value(w: np.ndarray) -> float:
        return loss._value(loss._residual(w))

    for trial in range(CONTRACT_PROBES):
        w = rng.standard_normal(shape)
        grad = loss.gradient(w)
        fd = np.empty(shape)
        probe = w.copy()
        for r, c in np.ndindex(shape):
            h = 1e-5 * (1.0 + abs(w[r, c]))
            probe[r, c] = w[r, c] + h
            hi = value(probe)
            probe[r, c] = w[r, c] - h
            lo = value(probe)
            probe[r, c] = w[r, c]
            fd[r, c] = (hi - lo) / (2.0 * h)
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
        mid = value(0.5 * (u + v))
        avg = 0.5 * (value(u) + value(v))
        if mid > avg + CONTRACT_CONVEXITY_TOL * (1.0 + abs(avg)):
            raise LossContractViolation(
                f"midpoint convexity violated at probe {trial}: "
                f"f(mid) = {mid:.17g} > averaged {avg:.17g}"
            )
