"""Rank-revealing linear algebra helpers.

Everything here works on plain 2-D float64 numpy arrays and uses a single
relative tolerance convention: a singular value counts as nonzero when it
exceeds ``rank_tol`` times the largest singular value of the same matrix.
All tolerances live in :class:`Tolerances` so callers can thread one object
through an entire analysis.

The SVD is the one definition of rank.  :func:`numerical_rank` first tries a
Cholesky factorisation of the shifted Gram matrix, which certifies full rank
far above the cutoff, and runs the SVD only when that certificate fails; the
integer it returns is the SVD's either way.  Its core ``_finite_rank`` runs
the same two steps without first scanning the input for non-finite entries,
for a caller that has checked them already (``network.balance_gauge``), and
``_rank_of_spectrum`` counts singular values that a caller already holds.

A sum of squares is one reduction per array, :func:`_sum_squares`, a BLAS
dot product of the flattening with itself, and a Frobenius or Euclidean norm
is its root, :func:`_norm`: bitwise ``np.linalg.norm`` without its dispatch.
Every whole-array norm in the package takes it; ``network`` re-exports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "DEFAULT_GRAD_TOL",
    "DEFAULT_INVARIANCE_TOL",
    "Tolerances",
    "FullColumnRankError",
    "RankDeficientLiftError",
    "ensure_matrix",
    "numerical_rank",
    "kernel_vector",
    "min_norm_right_solve",
    "best_rank_approx",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_GRAD_TOL = 1e-8
DEFAULT_INVARIANCE_TOL = 1e-9
DEFAULT_SUBSPACE_TOL = 1e-8

_EPS = np.finfo(np.float64).eps
# The full-rank certificate of ``numerical_rank``: its shift is
# ``max((_CERT_MARGIN * rank_tol)**2, _CERT_ROUNDING * n * eps) * trace(G)``,
# it trusts Gram traces in ``[_GRAM_FLOOR, _GRAM_CEIL]`` only, and it runs on
# matrices at least ``_CERT_MIN_WIDTH`` wide.
_CERT_MARGIN = 1e3
_CERT_ROUNDING = 100.0
_GRAM_FLOOR = np.finfo(np.float64).tiny / _EPS**2
_GRAM_CEIL = np.finfo(np.float64).max * _EPS**2
_CERT_MIN_WIDTH = 8


class FullColumnRankError(ValueError):
    """Requested a kernel vector of a matrix with no numerical kernel."""


class RankDeficientLiftError(ValueError):
    """A lift through a rank-deficient inner factor was requested."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the toolkit.

    rank_tol
        Relative singular-value cutoff for rank decisions (must be in (0, 1)).
    grad_tol
        Absolute Frobenius-norm threshold below which a gradient counts as zero.
    invariance_tol
        Relative threshold for "the product/loss did not change" checks.
    subspace_tol
        Relative threshold for membership of a vector in the null space of a
        gradient matrix.
    """

    rank_tol: float = DEFAULT_RANK_TOL
    grad_tol: float = DEFAULT_GRAD_TOL
    invariance_tol: float = DEFAULT_INVARIANCE_TOL
    subspace_tol: float = DEFAULT_SUBSPACE_TOL

    def __post_init__(self) -> None:
        for name in ("rank_tol", "grad_tol", "invariance_tol", "subspace_tol"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.rank_tol >= 1.0:
            raise ValueError(f"rank_tol must be < 1, got {self.rank_tol!r}")


def _sum_squares(a: np.ndarray) -> float:
    """The sum of squares of ``a``'s entries: one dot of its flattening."""
    flat = a.ravel(order="K")
    return float(flat.dot(flat))


def _norm(g: np.ndarray) -> float:
    """``np.linalg.norm(g)`` of an array of any shape or layout, bitwise,
    without its dispatch: both take the root of :func:`_sum_squares`."""
    return math.sqrt(_sum_squares(g))


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and reject non-finite entries.

    A float64 array comes back as itself, not a copy, and is scanned all the
    same."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def numerical_rank(m, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above ``rank_tol`` relative to the largest one.

    A matrix whose largest singular value is exactly zero has rank 0.

    The count is that of the SVD, but a matrix of full rank well above the
    cutoff skips the SVD.  For ``m`` of shape ``(r, c)`` with
    ``p = min(r, c) >= 8`` and ``n = max(r, c)``, the p x p Gram matrix ``G``
    (``m.T @ m`` or ``m @ m.T``) is shifted by
    ``tau = max((1e3 * rank_tol)**2, 100 * n * eps) * trace(G)`` and handed
    to Cholesky.  Rounding moves the computed ``G`` by at most about
    ``n * eps * trace(G)``, and a Cholesky that completes is exact for a
    matrix within ``(p + 1) * eps * trace(G)`` of its input (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 10): each about
    ``tau / 100``.  So success proves ``sigma_min**2 >= 0.98 * tau``, and
    since ``trace(G) >= sigma_max**2``, ``sigma_min >= 0.99 * max(1e3 *
    rank_tol, sqrt(100 * n * eps)) * sigma_max``: 990 times the cutoff, and
    at least ``3e-7 * sigma_max`` when ``rank_tol`` is tinier, eight orders
    above the SVD's own ``O(p * eps * sigma_max)`` error.  The SVD would
    count all ``p`` values, and ``p`` is returned.  Everything else falls
    through to the SVD: a failed factorisation, a shift not below
    ``trace(G)`` (``rank_tol >= 1e-3``, or not finite), a trace outside
    ``[tiny / eps**2, max * eps**2]`` where Gram entries may underflow or
    overflow, and every matrix narrower than 8: timed on one x86_64 core,
    the certificate there saved at most 2 us against an 11-16 us SVD on
    full-rank input and cost 11 us more on rank-deficient input.
    """
    return _finite_rank(ensure_matrix(m), rank_tol)


def _finite_rank(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """:func:`numerical_rank` of a 2-D float64 array that is known to be
    finite, without the scan of :func:`ensure_matrix`."""
    p = min(m.shape)
    if p >= _CERT_MIN_WIDTH and _full_rank_certified(m, rank_tol):
        return p
    return _rank_of_spectrum(np.linalg.svd(m, compute_uv=False), rank_tol)


def _full_rank_certified(m: np.ndarray, rank_tol: float) -> bool:
    """Cholesky of the shifted Gram matrix succeeds (see ``numerical_rank``)."""
    rows, cols = m.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.T.dot(m) if rows >= cols else m.dot(m.T)
        trace = gram.trace()
        margin = _CERT_MARGIN * rank_tol
        # A NaN rank_tol stays NaN through max() only as its first argument.
        shift = max(margin * margin, _CERT_ROUNDING * max(rows, cols) * _EPS) * trace
    if not (_GRAM_FLOOR <= trace <= _GRAM_CEIL and shift < trace):
        return False
    gram.flat[:: gram.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _rank_of_spectrum(s: np.ndarray, rank_tol: float) -> int:
    """Numerical rank from singular values sorted in descending order."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def kernel_vector(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Return a canonical unit vector in the numerical kernel of ``m``.

    The vector ``w`` satisfies ``|m @ w| <= rank_tol * sigma_max * |w|``.
    The choice is deterministic: the right singular vector belonging to the
    smallest singular value (the one at the largest index when several are
    equally small), with the sign fixed so that the first nonzero component
    is positive.  A matrix of rank 0 yields the first standard basis vector;
    one whose entries are all exactly zero (``-0.0`` included) has rank 0
    at every tolerance and skips the SVD, as does an empty one.

    Raises :class:`FullColumnRankError` when ``m`` has full column rank at
    the given tolerance, i.e. no kernel direction exists.
    """
    m = ensure_matrix(m)
    cols = m.shape[1]
    rank = 0
    if m.any():
        # full_matrices=True so trailing rows of vh span the kernel even for
        # wide matrices where the thin SVD would stop at min(rows, cols).
        _, s, vh = np.linalg.svd(m, full_matrices=True)
        rank = _rank_of_spectrum(s, rank_tol)
    if rank == cols:
        raise FullColumnRankError(
            f"matrix of shape {m.shape} has full column rank at rank_tol={rank_tol:g}"
        )
    if rank == 0:
        w = np.zeros(cols)
        w[0] = 1.0
        return w
    w = vh[-1, :].copy()
    nonzero = np.nonzero(w)[0]
    if nonzero.size and w[nonzero[0]] < 0.0:
        w = -w
    return w


def min_norm_right_solve(a, target, rank_tol: float = DEFAULT_RANK_TOL):
    """Solve ``z @ a = target`` for the minimum Frobenius norm ``z``.

    ``a`` must have full column rank at ``rank_tol`` so the system is
    consistent for every right-hand side; otherwise
    :class:`RankDeficientLiftError` is raised.

    Returns ``(z, amplification)`` where ``amplification`` is
    ``|z|_F / |target|_F`` (0 when the target is zero).  The factor is
    reported, not bounded: ill-conditioned ``a`` can make it large.  Raises
    ``ValueError`` when either norm overflows, since the factor would then
    be meaningless.
    """
    a = ensure_matrix(a, "a")
    target = ensure_matrix(target, "target")
    if target.shape[1] != a.shape[1]:
        raise ValueError(
            f"column mismatch: target is {target.shape}, a is {a.shape}"
        )
    rank = numerical_rank(a, rank_tol)
    if rank < a.shape[1]:
        raise RankDeficientLiftError(
            f"cannot lift through shape-{a.shape} factor of numerical rank "
            f"{rank} < {a.shape[1]}"
        )
    # z @ a = target transposes to a.T @ z.T = target.T, an underdetermined
    # full-rank system for which lstsq returns the minimum-norm solution.
    zt, _, _, _ = np.linalg.lstsq(a.T, target.T, rcond=None)
    z = zt.T
    with np.errstate(over="ignore", invalid="ignore"):
        target_norm = _norm(target)
        z_norm = _norm(z)
    if not (np.isfinite(target_norm) and np.isfinite(z_norm)):
        raise ValueError("the norm of the target or of its lift overflows")
    amplification = z_norm / target_norm if target_norm > 0.0 else 0.0
    return z, amplification


def best_rank_approx(m, rank: int) -> np.ndarray:
    """Best Frobenius-norm approximation of ``m`` with rank at most ``rank``.

    ``rank = 0`` yields the zero matrix; ``rank >= min(m.shape)`` returns an
    unmodified copy (no truncation happens, so the result is exact).
    """
    m = ensure_matrix(m)
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    if rank == 0:
        return np.zeros_like(m)
    if rank >= min(m.shape):
        return m.copy()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :rank] * s[:rank]).dot(vh[:rank, :])
