"""Command-line interface.

Subcommands: ``gen`` (construct an instance to disk), ``analyze`` (classify
a stored instance), ``perturb`` (build and store an escape certificate),
``lift`` (realize a super-layer change through one boundary layer),
``train`` (full-chain gradient descent with a trajectory file), ``oracle``
(closed-form rank-constrained optimum), ``verify`` (self-check suite).

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 infeasible
construction or analysis (the request was well-formed but the mathematics
declines: no interior bottleneck, full-rank super layer, vanishing gradient,
a loss without a closed-form optimum, and so on).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analyze import (
    Classification,
    DescentNotFoundError,
    classify,
)
from .harness import (
    CONSTRUCTIONS,
    LOSS_KINDS,
    TRAIN_MAX_STEPS,
    InfeasibleConstructionError,
    InstanceSpec,
    gen_instance,
    train_gd,
)
from .linalg import DEFAULT_GRAD_TOL, RankDeficientLiftError, Tolerances
from .network import NoInteriorBottleneckError, QuadraticLoss, chain_loss, split_or_raise
from .oracle import rrr_oracle
from .perturb import (
    ConstructionFailedError,
    FullRankAboveError,
    GradientVanishesError,
    lift_perturbation,
)
from .storage import (
    certificate_to_dict,
    fmt_float,
    load_instance,
    load_matrix_csv,
    render_report_text,
    report_to_dict,
    save_certificate,
    save_instance,
    save_matrix_csv,
    save_trajectory_csv,
)
from .verify import render_verify_json, render_verify_text, verify_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_INFEASIBLE = 3

_INFEASIBLE = (
    InfeasibleConstructionError,
    FullRankAboveError,
    GradientVanishesError,
    NoInteriorBottleneckError,
    RankDeficientLiftError,
    ConstructionFailedError,
    DescentNotFoundError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; this interface reserves 2
    for verification failures and uses 1 for usage problems."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _dims(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        ) from None
    if len(widths) < 3:
        raise argparse.ArgumentTypeError(
            f"dims needs at least three widths (two layers), got {text!r}"
        )
    return widths


def _add_rank_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-rank", type=float, default=Tolerances().rank_tol,
                   help="relative singular-value cutoff for numerical rank")


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    defaults = Tolerances()
    _add_rank_flag(p)
    p.add_argument("--tol-grad", type=float, default=defaults.grad_tol,
                   help="absolute Frobenius cutoff for 'gradient vanishes'")
    p.add_argument("--tol-invariance", type=float, default=defaults.invariance_tol,
                   help="relative tolerance for loss preservation under perturbation")
    p.add_argument("--tol-subspace", type=float, default=defaults.subspace_tol,
                   help="relative tolerance for gradient null-space membership")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="rendering of the result on stdout")


def _tols(args: argparse.Namespace) -> Tolerances:
    return Tolerances(
        rank_tol=args.tol_rank,
        grad_tol=args.tol_grad,
        invariance_tol=args.tol_invariance,
        subspace_tol=args.tol_subspace,
    )


def _rank_tol(args: argparse.Namespace) -> float:
    """``--tol-rank``, checked by :class:`Tolerances` like the other flags."""
    return Tolerances(rank_tol=args.tol_rank).rank_tol


def _emit(args: argparse.Namespace, text: str) -> None:
    sys.stdout.write(text)
    out = getattr(args, "out_report", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_payload(args: argparse.Namespace, payload: dict, keys=None) -> int:
    """Emit ``payload`` as JSON, or as ``key: value`` lines in ``keys`` order
    (insertion order by default)."""
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        _emit(args, "".join(f"{key}: {payload[key]}\n" for key in keys or payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = InstanceSpec(
        dims=args.dims,
        construction=args.construction,
        loss_kind=args.loss,
        seed=args.seed,
        n_samples=args.n_samples,
        data_scale=args.data_scale,
    )
    inst = gen_instance(spec)
    provenance = {
        "construction": spec.construction,
        "seed": spec.seed,
        "n_samples": spec.effective_n if spec.loss_kind == "quadratic" else None,
        "data_scale": fmt_float(spec.data_scale),
    }
    save_instance(args.out, inst.chain, inst.loss, provenance=provenance)
    payload = {
        "out": str(args.out),
        "dims": list(spec.dims),
        "construction": spec.construction,
        "loss_kind": spec.loss_kind,
        "seed": spec.seed,
        "loss": fmt_float(chain_loss(inst.chain, inst.loss)),
    }
    return _emit_payload(args, payload)


def _cmd_analyze(args: argparse.Namespace) -> int:
    chain, loss, _ = load_instance(args.instance)
    report = classify(chain, loss, tols=_tols(args), delta=args.delta)
    if args.format == "json":
        _emit(args, _json_dump(report_to_dict(report)))
    else:
        _emit(args, render_report_text(report))
    return EXIT_OK


def _cmd_perturb(args: argparse.Namespace) -> int:
    chain, loss, _ = load_instance(args.instance)
    report = classify(chain, loss, tols=_tols(args), delta=args.delta)
    if report.label is not Classification.ESCAPABLE_PLATEAU or report.escape is None:
        raise ConstructionFailedError(
            f"no loss-preserving escape exists here: the point classifies as "
            f"{report.label.value}",
            {"label": report.label.value},
        )
    cert = report.escape
    if args.out:
        save_certificate(args.out, cert)
    payload = dict(certificate_to_dict(cert))
    payload["out"] = str(args.out) if args.out else None
    return _emit_payload(args, payload, sorted(payload))


def _cmd_lift(args: argparse.Namespace) -> int:
    rank_tol = _rank_tol(args)
    chain, _, _ = load_instance(args.instance)
    split = split_or_raise(chain)
    target = load_matrix_csv(args.target)
    layer, update, amplification = lift_perturbation(
        chain, split, target, side=args.side, rank_tol=rank_tol
    )
    if args.out:
        save_matrix_csv(args.out, update)
    payload = {
        "layer": layer,
        "side": args.side,
        "amplification": fmt_float(amplification),
        "update_norm": fmt_float(float(np.linalg.norm(update))),
        "out": str(args.out) if args.out else None,
    }
    if args.format == "json":
        payload["update"] = [[fmt_float(v) for v in row] for row in update]
    return _emit_payload(args, payload)


def _cmd_train(args: argparse.Namespace) -> int:
    rank_tol = _rank_tol(args)
    chain, loss, _ = load_instance(args.instance)
    trained, trajectory = train_gd(
        chain, loss, max_steps=args.max_steps, stop_grad_tol=args.stop_grad_tol, rank_tol=rank_tol
    )
    if args.out:
        save_trajectory_csv(args.out, trajectory)
    if args.final_dir:
        save_instance(args.final_dir, trained, loss,
                      provenance={"trained_from": str(args.instance)})
    final = trajectory.final
    payload = {
        "status": trajectory.status,
        "steps": final.step,
        "loss": fmt_float(final.loss),
        "max_grad": fmt_float(final.max_grad),
        "rank_above": final.rank_above,
        "rank_below": final.rank_below,
        "out": str(args.out) if args.out else None,
    }
    return _emit_payload(args, payload)


def _cmd_oracle(args: argparse.Namespace) -> int:
    rank_tol = _rank_tol(args)
    chain, loss, _ = load_instance(args.instance)
    if not isinstance(loss, QuadraticLoss):
        raise InfeasibleConstructionError(
            "the closed-form optimum is defined for the quadratic loss only"
        )
    rank = args.rank if args.rank is not None else chain.dims.min_width
    fit = rrr_oracle(loss.inputs, loss.targets, rank, rank_tol)
    current = chain_loss(chain, loss)
    payload = {
        "rank": rank,
        "oracle_loss": fmt_float(fit.loss),
        "chain_loss": fmt_float(current),
        "gap": fmt_float(current - fit.loss),
    }
    if args.out:
        save_matrix_csv(args.out, fit.map)
        payload["out"] = str(args.out)
    return _emit_payload(args, payload, sorted(payload))


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(seed=args.seed, trials=args.trials)
    text = render_verify_json(report) if args.format == "json" else render_verify_text(report)
    _emit(args, text)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="dln",
        description="Deep linear chains: loss landscape analysis, "
        "loss-preserving escapes, training, and closed-form oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="construct an instance and write it to a directory")
    p.add_argument("--dims", type=_dims, required=True,
                   help="comma-separated widths, e.g. 3,4,2,4,3")
    p.add_argument("--construction", choices=CONSTRUCTIONS, default="generic")
    p.add_argument("--loss", choices=LOSS_KINDS, default="quadratic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--data-scale", type=float, default=1.0)
    p.add_argument("--out", required=True, help="directory to write the instance into")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="classify a stored instance")
    p.add_argument("instance", help="instance directory")
    p.add_argument("--delta", type=float, default=None,
                   help="perturbation scale for the escape construction")
    _add_tol_flags(p)
    _add_format_flag(p)
    p.add_argument("--out", dest="out_report", default=None,
                   help="also write the report to this file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("perturb", help="build a loss-preserving escape certificate")
    p.add_argument("instance", help="instance directory")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out", default=None, help="directory for the certificate")
    _add_tol_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("lift", help="realize a super-layer change via one boundary layer")
    p.add_argument("instance", help="instance directory")
    p.add_argument("--target", required=True,
                   help="CSV file with the desired super-layer change")
    p.add_argument("--side", choices=("above", "below"), default="above")
    p.add_argument("--out", default=None, help="CSV file for the layer update")
    _add_rank_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("train", help="full-chain gradient descent with trajectory")
    p.add_argument("instance", help="instance directory")
    p.add_argument("--max-steps", type=int, default=TRAIN_MAX_STEPS)
    p.add_argument("--stop-grad-tol", type=float, default=DEFAULT_GRAD_TOL)
    p.add_argument("--out", default=None, help="CSV file for the trajectory")
    p.add_argument("--final-dir", default=None,
                   help="directory for the trained chain as a new instance")
    _add_rank_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("oracle", help="closed-form rank-constrained least squares")
    p.add_argument("instance", help="instance directory")
    p.add_argument("--rank", type=int, default=None,
                   help="rank budget (default: the chain's minimum width)")
    p.add_argument("--out", default=None, help="CSV file for the optimal map")
    _add_rank_flag(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the self-check suite at fixed tolerances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--out", dest="out_report", default=None,
                   help="also write the report to this file")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INFEASIBLE as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
