"""Independent reference computations: closed-form reduced-rank fits and
finite-difference gradients.

These deliberately avoid the code paths they are used to check: the
reduced-rank fit goes through orthogonal whitening on the row space of the
inputs (never the normal equations), and the finite-difference routine
touches only the loss's public ``value`` at running products of the
perturbed chain, never a gradient.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import Tolerances, _rank_of_spectrum, best_rank_approx, ensure_matrix
from .network import ConvexLoss, FactorChain, _norm, _sum_squares, running_product

__all__ = [
    "ReducedRankFit",
    "rrr_oracle",
    "finite_diff_gradient",
]


class ReducedRankFit(NamedTuple):
    map: np.ndarray
    loss: float


def _row_space_whitening(
    inputs: np.ndarray, rank_tol: float = Tolerances().rank_tol
) -> tuple[np.ndarray, np.ndarray]:
    """``(basis, back)`` for the thin SVD ``X = U_r S_r V_r^T`` at numerical
    rank ``r``.

    ``basis = V_r`` (``n x r``, orthonormal columns) whitens targets: for any
    ``W``, ``|W X - Y|^2 = |Z - Y V_r|^2 + |Y (I - V_r V_r^T)|^2`` with
    ``Z = W U_r S_r``.  ``back = S_r^{-1} U_r^T`` (``r x d_0``) maps a
    whitened ``Z`` to the minimum-norm ``W = Z @ back`` that realises it.
    """
    u, s, vh = np.linalg.svd(inputs, full_matrices=False)
    r = _rank_of_spectrum(s, rank_tol)
    return vh[:r].T, u[:, :r].T / s[:r, None]


def rrr_oracle(
    inputs,
    targets,
    rank: int,
    rank_tol: float = Tolerances().rank_tol,
) -> ReducedRankFit:
    """Globally optimal rank-constrained least squares via whitening.

    Minimizes ``|W X - Y|_F^2`` over matrices ``W`` of rank at most
    ``rank``, for inputs of any shape and rank.  The problem is solved
    exactly on the row space of ``X`` (numerical rank at ``rank_tol``): the
    whitened targets ``Y V_r`` are truncated to ``rank`` singular
    directions and mapped back to the minimum-norm ``W``, whose rows lie in
    the column space of ``X``.  Only orthogonal factors are used; no normal
    equations are formed.
    """
    x = ensure_matrix(inputs, "inputs")
    y = ensure_matrix(targets, "targets")
    if y.shape[1] != x.shape[1]:
        raise ValueError(
            f"inputs have {x.shape[1]} samples, targets have {y.shape[1]}"
        )
    basis, back = _row_space_whitening(x, rank_tol)
    w = best_rank_approx(y.dot(basis), rank).dot(back)
    return ReducedRankFit(map=w, loss=_sum_squares(w.dot(x) - y))


def finite_diff_gradient(chain: FactorChain, loss: ConvexLoss, layer: int) -> np.ndarray:
    """Central-difference gradient of the composite loss w.r.t. one layer.

    The step is ``1e-5 * (1 + |M_layer|_F)``, held fixed for every entry of
    the layer.  Quadratic losses are differentiated exactly by the central
    formula; smooth non-quadratic ones to O(step^2).  Each probe is
    ``loss.value`` of the running product of the chain's arrays with one
    probe copy of the layer in place: bitwise the ``chain_loss`` of the chain
    with that layer replaced, without building a chain per probe.
    """
    m = chain.factor(layer)
    step = 1e-5 * (1.0 + _norm(m))
    probe = np.array(m)
    mats = list(chain.factors)
    mats[layer - 1] = probe
    out = np.empty_like(m)
    for r, c in np.ndindex(m.shape):
        probe[r, c] = m[r, c] + step
        hi = loss.value(running_product(mats))
        probe[r, c] = m[r, c] - step
        lo = loss.value(running_product(mats))
        probe[r, c] = m[r, c]
        out[r, c] = (hi - lo) / (2.0 * step)
    return out
