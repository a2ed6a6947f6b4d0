"""Rank-revealing linear algebra helpers.

Everything here works on plain 2-D float64 numpy arrays and uses a single
relative tolerance convention: a singular value counts as nonzero when it
exceeds ``rank_tol`` times the largest singular value of the same matrix.
All tolerances live in :class:`Tolerances` so callers can thread one object
through an entire analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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


def ensure_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def numerical_rank(m, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above ``rank_tol`` relative to the largest one.

    A matrix whose largest singular value is exactly zero has rank 0.
    """
    return _rank_of_spectrum(np.linalg.svd(ensure_matrix(m), compute_uv=False), rank_tol)


def _rank_of_spectrum(s: np.ndarray, rank_tol: float) -> int:
    """Numerical rank from singular values sorted in descending order."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def kernel_vector(m, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Return a canonical unit vector in the numerical kernel of ``m``.

    The vector ``w`` satisfies ``|m @ w| <= rank_tol * sigma_max * |w|``.
    The choice is deterministic: the right singular vector belonging to the
    smallest singular value (the one at the largest index when several are
    equally small), with the sign fixed so that the first nonzero component
    is positive.  A zero matrix yields the first standard basis vector.

    Raises :class:`FullColumnRankError` when ``m`` has full column rank at
    the given tolerance, i.e. no kernel direction exists.
    """
    m = ensure_matrix(m)
    cols = m.shape[1]
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
    if numerical_rank(a, rank_tol) < a.shape[1]:
        raise RankDeficientLiftError(
            f"cannot lift through shape-{a.shape} factor of numerical rank "
            f"{numerical_rank(a, rank_tol)} < {a.shape[1]}"
        )
    # z @ a = target transposes to a.T @ z.T = target.T, an underdetermined
    # full-rank system for which lstsq returns the minimum-norm solution.
    zt, _, _, _ = np.linalg.lstsq(a.T, target.T, rcond=None)
    z = zt.T
    with np.errstate(over="ignore", invalid="ignore"):
        target_norm = float(np.linalg.norm(target))
        z_norm = float(np.linalg.norm(z))
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
    return (u[:, :rank] * s[:rank]) @ vh[:rank, :]
