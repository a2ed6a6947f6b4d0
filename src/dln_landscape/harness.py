"""Seeded instance generation and full-chain training.

Reproducibility contract: every random draw comes from a PCG64 generator
derived from the instance seed through ``SeedSequence(seed, spawn_key=...)``
with a fixed spawn key per role (see :func:`stream`).  Two calls with the
same spec therefore produce bitwise-identical instances on the same
platform, independent of generation order.

Constructions
-------------
generic
    Dense Gaussian layers scaled by 1 / sqrt(fan-in); generic data.
rank_deficient_plateau
    An exactly critical chain with nonzero convex gradient: one layer below
    and one layer above the bottleneck cut are zeroed, which kills every
    layer gradient identically (the product of the layers above or of those
    below each layer contains a zero factor) while the convex gradient at
    the zero product stays generic.  Both super layers are rank deficient, so the plateau is
    escapable — and because exactly one zero sits on each side, the layers
    opposite the perturbed side regain a nonzero gradient after the escape,
    which is what lets plain descent exploit the certificate.
full_rank_critical
    Quadratic loss only: a stationary-but-not-optimal point of the
    rank-constrained regression, built in the oracle's whitened coordinates
    (the row space of the inputs, so any sample count works) by keeping a
    *shifted* window of singular directions (dropping the top one), then
    factored through the widths.  Both super layers have full rank ``d``;
    the analyzer reduces such points to the two-layer question.
factored_global
    Data planted so the unconstrained optimum has rank at most ``d``; the
    oracle optimum is factored through the widths.  The convex gradient
    vanishes there, so the analyzer certifies a global minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import DEFAULT_GRAD_TOL, Tolerances, numerical_rank
from .network import (
    ConvexLoss,
    FactorChain,
    LogCoshLoss,
    QuadraticLoss,
    interior_bottleneck,
    running_product,
)
from .optim import armijo_gd
from .oracle import _row_space_whitening, rrr_oracle

__all__ = [
    "InfeasibleConstructionError",
    "InstanceSpec",
    "Instance",
    "TRAIN_MAX_STEPS",
    "TrajectoryPoint",
    "Trajectory",
    "stream",
    "gen_instance",
    "train_gd",
    "CONSTRUCTIONS",
    "LOSS_KINDS",
]

CONSTRUCTIONS = (
    "generic",
    "rank_deficient_plateau",
    "full_rank_critical",
    "factored_global",
)
LOSS_KINDS = ("quadratic", "logcosh")

# Spawn-key roles for the per-instance RNG streams.
STREAM_FACTORS = 0  # (STREAM_FACTORS, layer) -> entries of that layer
STREAM_DATA = 1  # (STREAM_DATA, 0) inputs, (STREAM_DATA, 1) targets, (STREAM_DATA, 2) plant
STREAM_MIXERS = 2  # (STREAM_MIXERS, width_index) -> orthogonal mixers
STREAM_CHOICE = 3  # (STREAM_CHOICE, 0) -> discrete construction choices

# Step budget of a full-chain training run when the caller names none.
TRAIN_MAX_STEPS = 2000


class InfeasibleConstructionError(ValueError):
    """The requested construction cannot exist for these dimensions/loss."""


def stream(seed: int, *key: int) -> np.random.Generator:
    """The named generator for one role of one instance.

    ``stream(seed, a, b)`` is ``Generator(PCG64(SeedSequence(seed,
    spawn_key=(a, b))))`` — the single stream-splitting rule used everywhere
    in this package.
    """
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=key)))


@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to regenerate an instance bit-for-bit."""

    dims: tuple[int, ...]
    construction: str = "generic"
    loss_kind: str = "quadratic"
    seed: int = 0
    n_samples: int | None = None  # quadratic only; defaults to 2 * d_0
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        dims = tuple(int(w) for w in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 3:
            raise ValueError(f"need at least 2 layers (3 widths), got {dims}")
        if any(w < 1 for w in dims):
            raise ValueError(f"widths must be positive, got {dims}")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(
                f"unknown loss kind {self.loss_kind!r}; expected one of {LOSS_KINDS}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.n_samples is not None and self.loss_kind != "quadratic":
            raise ValueError(f"n_samples is for the quadratic loss only, not {self.loss_kind!r}")
        if not (self.data_scale > 0 and np.isfinite(self.data_scale)):
            raise ValueError(f"data_scale must be positive and finite, got {self.data_scale}")

    @property
    def effective_n(self) -> int:
        return self.n_samples if self.n_samples is not None else 2 * self.dims[0]


@dataclass(frozen=True)
class Instance:
    chain: FactorChain
    loss: ConvexLoss
    spec: InstanceSpec


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix the QR sign ambiguity so the draw is a well-defined function of the stream
    return q * np.sign(np.diag(r))


def _generic_factors(spec: InstanceSpec) -> list[np.ndarray]:
    widths = spec.dims
    out = []
    for layer in range(1, len(widths)):
        rng = stream(spec.seed, STREAM_FACTORS, layer)
        out.append(
            rng.standard_normal((widths[layer], widths[layer - 1]))
            / np.sqrt(widths[layer - 1])
        )
    return out


def _make_loss(spec: InstanceSpec) -> ConvexLoss:
    widths = spec.dims
    if spec.loss_kind == "quadratic":
        n = spec.effective_n
        x = stream(spec.seed, STREAM_DATA, 0).standard_normal((widths[0], n))
        y = spec.data_scale * stream(spec.seed, STREAM_DATA, 1).standard_normal(
            (widths[-1], n)
        )
        return QuadraticLoss(x, y)
    target = spec.data_scale * stream(spec.seed, STREAM_DATA, 1).standard_normal(
        (widths[-1], widths[0])
    )
    return LogCoshLoss(target)


def _planted_map(spec: InstanceSpec, rank: int) -> np.ndarray:
    """A generic map of rank at most ``rank`` between the boundary widths."""
    widths = spec.dims
    rng = stream(spec.seed, STREAM_DATA, 2)
    left = rng.standard_normal((widths[-1], rank)) / np.sqrt(max(rank, 1))
    right = rng.standard_normal((rank, widths[0]))
    return spec.data_scale * left.dot(right)


def _factor_through(
    spec: InstanceSpec, j: int, above: np.ndarray, below: np.ndarray
) -> list[np.ndarray]:
    """Layers whose partial products above/below the cut equal the given
    super layers: identity ladders dressed with seeded orthogonal mixers
    (the mixers telescope away in every partial product that matters)."""
    widths = spec.dims
    k = len(widths) - 1
    d = widths[j]
    factors: list[np.ndarray | None] = [None] * k

    if j + 1 == k:
        factors[k - 1] = above
    else:
        mix = {
            i: _orthogonal(stream(spec.seed, STREAM_MIXERS, i), widths[i])
            for i in range(j + 1, k)
        }
        factors[j] = mix[j + 1].dot(np.eye(widths[j + 1], d))
        for i in range(j + 2, k):
            factors[i - 1] = mix[i].dot(np.eye(widths[i], widths[i - 1])).dot(mix[i - 1].T)
        factors[k - 1] = above.dot(np.eye(d, widths[k - 1])).dot(mix[k - 1].T)

    if j == 1:
        factors[0] = below
    else:
        mix = {
            i: _orthogonal(stream(spec.seed, STREAM_MIXERS, i), widths[i])
            for i in range(1, j)
        }
        factors[j - 1] = np.eye(d, widths[j - 1]).dot(mix[j - 1].T)
        for i in range(2, j):
            factors[i - 1] = mix[i].dot(np.eye(widths[i], widths[i - 1])).dot(mix[i - 1].T)
        factors[0] = mix[1].dot(np.eye(widths[1], d)).dot(below)
    return factors  # type: ignore[return-value]


def _require_bottleneck(spec: InstanceSpec) -> int:
    j = interior_bottleneck(spec.dims)
    if j is None:
        raise InfeasibleConstructionError(
            f"construction {spec.construction!r} needs an interior "
            f"minimum-width layer, but widths {spec.dims} have none"
        )
    return j


def _rank_factorization(m: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """``m = left @ right`` with inner width exactly ``rank`` (zero-padded
    when the actual rank is smaller)."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = min(rank, s.size)
    half = np.sqrt(s[:r])
    left = np.zeros((m.shape[0], rank))
    right = np.zeros((rank, m.shape[1]))
    left[:, :r] = u[:, :r] * half
    right[:r, :] = half[:, None] * vh[:r, :]
    return left, right


@np.errstate(over="ignore", invalid="ignore")
def gen_instance(spec: InstanceSpec) -> Instance:
    """Build the chain and loss described by ``spec`` (bitwise reproducible).
    Data scaled past the float range overflows silently; ``storage`` refuses it."""
    widths = spec.dims
    k = len(widths) - 1
    loss = _make_loss(spec)

    if spec.construction == "generic":
        return Instance(FactorChain(tuple(_generic_factors(spec))), loss, spec)

    if spec.construction == "rank_deficient_plateau":
        j = _require_bottleneck(spec)
        chooser = stream(spec.seed, STREAM_CHOICE, 0)
        zero_below = int(chooser.integers(1, j + 1))
        zero_above = int(chooser.integers(j + 1, k + 1))
        factors = _generic_factors(spec)
        factors[zero_below - 1] = np.zeros_like(factors[zero_below - 1])
        factors[zero_above - 1] = np.zeros_like(factors[zero_above - 1])
        zero_product = np.zeros((widths[-1], widths[0]))
        if float(np.linalg.norm(loss.gradient(zero_product))) == 0.0:
            raise InfeasibleConstructionError(
                "convex gradient vanishes at the zero product; the plateau "
                "would be a global minimum, not a critical plateau"
            )
        return Instance(FactorChain(tuple(factors)), loss, spec)

    if spec.construction == "full_rank_critical":
        j = _require_bottleneck(spec)
        d = min(widths)
        if spec.loss_kind != "quadratic":
            raise InfeasibleConstructionError(
                "full_rank_critical relies on the closed-form stationary "
                "structure of rank-constrained least squares; use loss_kind="
                "'quadratic'"
            )
        if min(widths[0], widths[-1]) < d + 1:
            raise InfeasibleConstructionError(
                f"need boundary widths strictly above the bottleneck width "
                f"{d} to skip a singular direction, got {widths}"
            )
        assert isinstance(loss, QuadraticLoss)
        basis, back = _row_space_whitening(loss.inputs)
        u, s, vh = np.linalg.svd(loss.targets.dot(basis), full_matrices=False)
        if s.size < d + 1 or s[d] <= Tolerances().rank_tol * s[0]:
            raise InfeasibleConstructionError(
                "whitened targets do not carry d+1 usable singular directions"
            )
        window = slice(1, d + 1)  # drop the top direction: stationary, not optimal
        half = np.sqrt(s[window])
        above = u[:, window] * half
        below_white = half[:, None] * vh[window, :]
        below = below_white.dot(back)
        return Instance(
            FactorChain(tuple(_factor_through(spec, j, above, below))), loss, spec
        )

    # factored_global
    j = _require_bottleneck(spec)
    d = min(widths)
    planted = _planted_map(spec, d)
    if spec.loss_kind == "quadratic":
        assert isinstance(loss, QuadraticLoss)
        loss = QuadraticLoss(loss.inputs, planted.dot(loss.inputs))
        optimum = rrr_oracle(loss.inputs, loss.targets, d).map
    else:
        loss = LogCoshLoss(planted)
        optimum = planted
    above, below = _rank_factorization(optimum, d)
    return Instance(
        FactorChain(tuple(_factor_through(spec, j, above, below))), loss, spec
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    step: int
    loss: float
    max_grad: float
    rank_above: int
    rank_below: int


@dataclass(frozen=True)
class Trajectory:
    points: tuple[TrajectoryPoint, ...]
    status: str

    @property
    def final(self) -> TrajectoryPoint:
        return self.points[-1]


def train_gd(
    chain: FactorChain,
    loss: ConvexLoss,
    max_steps: int = TRAIN_MAX_STEPS,
    stop_grad_tol: float = DEFAULT_GRAD_TOL,
    rank_tol: float = Tolerances().rank_tol,
) -> tuple[FactorChain, Trajectory]:
    """Backtracking gradient descent on every layer, with a full trajectory.

    The trainer for callers that read the trajectory (``dln train`` and the
    round-trip section of ``verify``); callers that need only the final
    chain, loss and status call ``optim.armijo_gd`` directly, which skips
    the two ``numerical_rank`` calls that recording costs per step (each a
    Gram Cholesky for a super layer of full rank at least 8 wide, an SVD
    otherwise).

    ``train_gd(chain, loss, max_steps=TRAIN_MAX_STEPS, stop_grad_tol=
    DEFAULT_GRAD_TOL, rank_tol=DEFAULT_RANK_TOL)`` returns the trained chain
    and its trajectory.  Runs ``optim.armijo_gd``, which rejects a negative
    ``max_steps`` and a negative or non-finite ``stop_grad_tol``; each line
    search starts from the Barzilai–Borwein step of the last accepted step
    and halves it until the Armijo test passes.  Stops when the largest
    layer-gradient norm reaches ``stop_grad_tol`` (status
    ``stalled-critical`` — first-order criticality says nothing about
    optimality; hand the result to the analyzer), when an accepted step
    leaves the loss bit-identical (``precision-limited``), when the step
    budget runs out (``budget-exhausted``), or when the line search cannot
    find any decrease (``line-search-stalled``).  The recorded loss
    sequence is non-increasing by construction; a violation raises
    ``RuntimeError``.

    Ranks in the trajectory are those of the super-layer products at the
    canonical bottleneck cut; chains without an interior bottleneck record
    -1 for both.
    """
    split_index = interior_bottleneck(chain.widths)
    k = chain.k
    points: list[TrajectoryPoint] = []

    def record(step: int, factors: list[np.ndarray], value: float, max_grad: float) -> None:
        if split_index is None:
            ra = rb = -1
        else:
            ra = numerical_rank(running_product(factors[split_index:]), rank_tol)
            rb = numerical_rank(running_product(factors[:split_index]), rank_tol)
        points.append(TrajectoryPoint(step, value, max_grad, ra, rb))

    result = armijo_gd(
        factors=chain.factors,
        loss=loss,
        active_layers=list(range(1, k + 1)),
        max_steps=max_steps,
        stop_grad_tol=stop_grad_tol,
        on_state=record,
    )
    for a, b in zip(points, points[1:]):
        if b.loss > a.loss:
            raise RuntimeError(
                f"loss increased during GD at step {b.step}: {a.loss!r} -> {b.loss!r}"
            )
    return FactorChain(tuple(result.factors)), Trajectory(tuple(points), result.status)


def regenerate(spec: InstanceSpec, **overrides) -> Instance:
    """Convenience: ``gen_instance`` with some spec fields replaced."""
    return gen_instance(replace(spec, **overrides))
