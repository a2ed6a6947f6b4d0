"""Independent reference computations: closed-form reduced-rank fits and
finite-difference gradients.

These deliberately avoid the code paths they are used to check: the
reduced-rank fit goes through orthogonal whitening (never the normal
equations), and the finite-difference routine touches only ``chain_loss``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import Tolerances, best_rank_approx, ensure_matrix, numerical_rank
from .network import ConvexLoss, FactorChain, chain_loss

__all__ = [
    "RankDeficientDataError",
    "ReducedRankFit",
    "rrr_oracle",
    "finite_diff_gradient",
]


class RankDeficientDataError(ValueError):
    """Input data matrix lacks full row rank, so the whitened reduced-rank
    problem is not well posed."""


class ReducedRankFit(NamedTuple):
    map: np.ndarray
    loss: float


def rrr_oracle(
    inputs,
    targets,
    rank: int,
    rank_tol: float = Tolerances().rank_tol,
) -> ReducedRankFit:
    """Globally optimal rank-constrained least squares via whitening.

    Minimizes ``|W X - Y|_F^2`` over matrices ``W`` of rank at most
    ``rank``.  The inputs are factored ``X = R Q`` with orthonormal rows
    ``Q`` (thin QR of ``X^T``), the problem is solved exactly in the
    whitened variable by singular value truncation of ``Y Q^T``, and the
    solution is mapped back through the triangular factor.  No normal
    equations are formed.

    ``X`` (``d_0 x n``, ``n >= d_0``) must have full row rank at
    ``rank_tol``; otherwise :class:`RankDeficientDataError` is raised.
    """
    x = ensure_matrix(inputs, "inputs")
    y = ensure_matrix(targets, "targets")
    if x.shape[1] < x.shape[0]:
        raise RankDeficientDataError(
            f"need at least as many samples as input rows, got {x.shape}"
        )
    if y.shape[1] != x.shape[1]:
        raise ValueError(
            f"inputs have {x.shape[1]} samples, targets have {y.shape[1]}"
        )
    if numerical_rank(x, rank_tol) < x.shape[0]:
        raise RankDeficientDataError(
            f"inputs of shape {x.shape} are numerically rank deficient"
        )
    q_thin, r_upper = np.linalg.qr(x.T)  # X^T = Q_thin R_upper
    whitened = y @ q_thin  # = Y Q^T for Q = Q_thin^T
    truncated = best_rank_approx(whitened, rank)
    w = np.linalg.solve(r_upper, truncated.T).T  # solves W R_upper^T = truncated
    residual = w @ x - y
    return ReducedRankFit(map=w, loss=float(np.sum(residual * residual)))


def finite_diff_gradient(chain: FactorChain, loss: ConvexLoss, layer: int) -> np.ndarray:
    """Central-difference gradient of the composite loss w.r.t. one layer.

    The step is ``1e-5 * (1 + |M_layer|_F)``, held fixed for every entry of
    the layer.  Quadratic losses are differentiated exactly by the central
    formula; smooth non-quadratic ones to O(step^2).
    """
    m = chain.factor(layer)
    step = 1e-5 * (1.0 + float(np.linalg.norm(m)))
    out = np.empty_like(m)
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            plus = np.array(m)
            plus[r, c] += step
            minus = np.array(m)
            minus[r, c] -= step
            hi = chain_loss(chain.with_factor(layer, plus), loss)
            lo = chain_loss(chain.with_factor(layer, minus), loss)
            out[r, c] = (hi - lo) / (2.0 * step)
    return out
