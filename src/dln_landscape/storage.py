"""On-disk formats: JSON manifests plus one CSV file per matrix.

Matrices are written in decimal with 17 significant digits, which
round-trips IEEE-754 doubles exactly — reading a file back yields bitwise
the entries that were written.  Manifests are JSON with sorted keys and a
fixed layout, so identical objects serialize to identical bytes.  Non-finite
values, and instances whose loss or convex-gradient norm is not finite, are
rejected on both paths, before anything is written.

Matrix files are read by ``numpy.loadtxt``, whose C parser converts each
field with ``PyOS_string_to_double``, the correctly rounded conversion
behind ``float()``, so an entry reads back as the same double.  It splits
lines at ``\\n``, ``\\r\\n`` and ``\\r`` only, skips empty lines, and strips
whitespace around a field, Unicode whitespace included.  A refusal is one
``ValueError`` line that names the file: a file with no rows (empty or blank
lines only), ragged rows, a line of whitespace only in a file with rows,
non-finite entries, any field that is not an ASCII decimal number (``1_0``,
non-ASCII digits, or a ``\\v`` or ``\\f`` that ``str.splitlines`` would
take for a line break), and a file that numpy parses but that holds a
non-ASCII character or one of the separators ``\\x1c``-``\\x1f``, which
the parser strips as whitespace (a no-break space before a digit, say).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .analyze import Classification, CriticalPointReport
from .harness import Trajectory, TrajectoryPoint
from .network import ConvexLoss, FactorChain, LogCoshLoss, QuadraticLoss, _finite_loss_state
from .perturb import EscapeCertificate

__all__ = [
    "fmt_float",
    "json_text",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_instance",
    "load_instance",
    "load_chain",
    "save_certificate",
    "save_trajectory_csv",
    "load_trajectory_csv",
    "report_to_dict",
    "render_report_text",
    "certificate_to_dict",
]

INSTANCE_FORMAT = "dln-instance/1"
CERTIFICATE_FORMAT = "dln-certificate/1"
TRAJECTORY_HEADER = "step,loss,max_grad,rank_A,rank_B"
# The ASCII characters that Python, and so numpy's parser, strips as
# whitespace but a matrix file never holds.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def fmt_float(x: float) -> str:
    """Decimal rendering that reconstructs the exact double on parse."""
    return format(float(x), ".17g")


def json_text(payload) -> str:
    """``payload`` as JSON with sorted keys, a two-space indent and a
    trailing newline: identical objects render to identical bytes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_matrix_csv(path, m) -> None:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"can only store 2-D matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"refusing to store non-finite entries in {path}")
    # One %-format per row over Python floats writes the bytes of
    # ``fmt_float`` on every entry (both render ".17g") without a call per
    # entry.
    row_format = ",".join(["%.17g"] * m.shape[1])
    lines = [row_format % tuple(row) for row in m.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_matrix_csv(path) -> np.ndarray:
    """The matrix stored at ``path``, parsed by numpy's C reader.

    A refusal is a ``ValueError`` whose one-line message names the file.
    """
    # An open file, not the path: numpy's path handling costs more than the
    # parse of a small matrix.
    with open(path, encoding="utf-8") as f, warnings.catch_warnings():
        # An empty or blank-only file parses to no rows, which numpy warns
        # about; the refusal below says so instead.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            m = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(_refusal(path, exc)) from None
    if m.size == 0:
        raise ValueError(f"{path} holds no matrix rows")
    if not np.isfinite(m).all():
        raise ValueError(f"{path} contains non-finite entries")
    # Checked on the raw bytes once the parse has passed, so numpy's own
    # refusals keep their messages; about 70 us on a 500 kB file (x86-64).
    data = Path(path).read_bytes()
    if not data.isascii() or any(c in data for c in _SEPARATORS):
        raise ValueError(f"{path} holds a non-ASCII character or one of \\x1c-\\x1f")
    return m


def _refusal(path, exc: ValueError) -> str:
    """Why numpy refused ``path``, on the lines it reads (split at ``\\n``,
    ``\\r\\n`` or ``\\r`` only): no rows, rows of different lengths, a line of
    whitespace only, or else numpy's own reason."""
    if isinstance(exc, UnicodeError):
        return f"{path} is not UTF-8 text: {exc}"
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    rows = [line.split(",") for line in lines if line.strip()]
    if not rows:
        return f"{path} holds no matrix rows"
    if any(len(r) != len(rows[0]) for r in rows):
        return f"{path} has ragged rows"
    blank = next((n for n, line in enumerate(lines, 1) if line and not line.strip()), None)
    if blank is not None:
        return f"{path} line {blank} holds only whitespace"
    return f"{path}: {exc}"


def _write_manifest(directory: Path, manifest: dict) -> None:
    (directory / "manifest.json").write_text(json_text(manifest), encoding="utf-8")


def _read_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    if not path.is_file():
        raise FileNotFoundError(f"no manifest.json under {directory}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return manifest


def _field(block, key: str, directory: Path):
    """``block[key]`` of a manifest, or a one-line ``ValueError``."""
    if not isinstance(block, dict) or key not in block:
        raise ValueError(f"manifest in {directory} lacks {key!r}")
    return block[key]


def _member(directory: Path, name) -> Path:
    """A file named by a manifest; names that leave ``directory`` are refused."""
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"manifest in {directory} names {name!r}, not a file in that directory")
    return directory / name


def _save_factors(directory: Path, chain: FactorChain) -> dict:
    """Write one CSV per factor into ``directory``; return the manifest
    fields that describe them (``k``, ``dims``, ``factors``)."""
    files = [f"M{i}.csv" for i in range(1, chain.k + 1)]
    for name, m in zip(files, chain.factors):
        save_matrix_csv(directory / name, m)
    return {"k": chain.k, "dims": list(chain.widths), "factors": files}


def save_instance(
    directory,
    chain: FactorChain,
    loss: ConvexLoss,
    provenance: dict | None = None,
) -> Path:
    """Write chain + loss data + manifest into ``directory`` (created)."""
    _finite_loss_state(chain.factors, loss)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    factors = _save_factors(directory, chain)
    if isinstance(loss, QuadraticLoss):
        save_matrix_csv(directory / "X.csv", loss.inputs)
        save_matrix_csv(directory / "Y.csv", loss.targets)
        loss_block = {
            "kind": "quadratic",
            "files": {"inputs": "X.csv", "targets": "Y.csv"},
        }
    elif isinstance(loss, LogCoshLoss):
        save_matrix_csv(directory / "T.csv", loss.target)
        loss_block = {"kind": "logcosh", "files": {"target": "T.csv"}}
    else:
        raise ValueError(
            f"cannot serialize loss of type {type(loss).__name__}; only the "
            "built-in quadratic and logcosh losses have a file format"
        )
    manifest = {"format": INSTANCE_FORMAT, **factors, "loss": loss_block}
    if provenance:
        manifest["provenance"] = provenance
    _write_manifest(directory, manifest)
    return directory


def load_chain(directory) -> FactorChain:
    """Read just the factor chain from any manifest that lists factors."""
    directory = Path(directory)
    return _load_factors(directory, _read_manifest(directory))


def _load_factors(directory: Path, manifest: dict) -> FactorChain:
    """The chain of the factor files that ``manifest`` lists, checked
    against its ``dims``."""
    names = _field(manifest, "factors", directory)
    dims = _field(manifest, "dims", directory)
    if not isinstance(names, list):
        raise ValueError(f"manifest in {directory} lists factors as {names!r}, not a list")
    chain = FactorChain(tuple(load_matrix_csv(_member(directory, n)) for n in names))
    if list(chain.widths) != dims:
        raise ValueError(
            f"manifest dims {dims} disagree with stored factors {list(chain.widths)}"
        )
    return chain


def load_instance(directory) -> tuple[FactorChain, ConvexLoss, dict]:
    """Read chain, loss, and the raw manifest back from ``directory``."""
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest.get("format") != INSTANCE_FORMAT:
        raise ValueError(
            f"{directory} holds {manifest.get('format')!r}, not an instance"
        )
    chain = _load_factors(directory, manifest)
    loss_block = _field(manifest, "loss", directory)
    kind = _field(loss_block, "kind", directory)
    files = _field(loss_block, "files", directory)

    def matrix(role: str) -> np.ndarray:
        return load_matrix_csv(_member(directory, _field(files, role, directory)))

    if kind == "quadratic":
        loss: ConvexLoss = QuadraticLoss(matrix("inputs"), matrix("targets"))
    elif kind == "logcosh":
        loss = LogCoshLoss(matrix("target"))
    else:
        raise ValueError(f"unknown loss kind {kind!r} in {directory}")
    _finite_loss_state(chain.factors, loss)
    return chain, loss, manifest


def certificate_to_dict(cert: EscapeCertificate) -> dict:
    """Metadata block of a certificate (everything except the matrices)."""
    return {
        "side": cert.side,
        "i_star": cert.containment_start,
        "witness_row": cert.witness_row,
        "delta": fmt_float(cert.delta),
        "super_gradient_norm": fmt_float(cert.super_gradient_norm),
        "loss_delta": fmt_float(cert.loss_delta),
        "original_loss": fmt_float(cert.original_loss),
    }


def save_certificate(directory, cert: EscapeCertificate) -> Path:
    """Write the perturbed chain plus the certificate metadata block."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": CERTIFICATE_FORMAT,
        **_save_factors(directory, cert.perturbed_chain),
        "metadata": certificate_to_dict(cert),
    }
    _write_manifest(directory, manifest)
    return directory


def save_trajectory_csv(path, trajectory: Trajectory) -> None:
    lines = [TRAJECTORY_HEADER]
    for p in trajectory.points:
        lines.append(
            f"{p.step},{fmt_float(p.loss)},{fmt_float(p.max_grad)},"
            f"{p.rank_above},{p.rank_below}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trajectory_csv(path) -> list[TrajectoryPoint]:
    """The points stored at ``path``.  A row that is not five fields, an
    integer step, two floats (``inf`` and ``nan`` among them, as a descent
    can record a ``max_grad`` that is not finite) and two integer ranks is
    refused with one ``ValueError`` line naming the file and the line, as is
    a digit separator (``1_0``) or a non-ASCII character, which
    :func:`load_matrix_csv` refuses and ``int()`` and ``float()`` read."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1] != TRAJECTORY_HEADER:
        raise ValueError(f"{path} does not start with {TRAJECTORY_HEADER!r}")
    points = []
    for n, line in lines[1:]:
        try:
            if not line.isascii() or "_" in line:
                raise ValueError(line)
            step, loss, max_grad, ra, rb = line.split(",")
            points.append(TrajectoryPoint(int(step), float(loss), float(max_grad), int(ra), int(rb)))
        except ValueError:
            raise ValueError(f"{path} line {n} is not a trajectory row: {line!r}") from None
    return points


def report_to_dict(report: CriticalPointReport) -> dict:
    """JSON-ready view of a report (floats as exact decimal strings), with
    keys in the order of the text rendering."""
    return {
        "label": report.label.value,
        "loss": fmt_float(report.loss),
        "convex_gradient_norm": fmt_float(report.convex_gradient_norm),
        "layer_gradient_norms": [fmt_float(g) for g in report.layer_gradient_norms],
        "split_index": report.split_index,
        "rank_above": report.rank_above,
        "rank_below": report.rank_below,
        "super_gradient_above_norm": _fmt_optional(report.super_gradient_above_norm),
        "super_gradient_below_norm": _fmt_optional(report.super_gradient_below_norm),
        "oracle_gap": _fmt_optional(report.oracle_gap),
        "has_reduction": report.label is Classification.REDUCIBLE_FULL_RANK,
        "diagnostic": report.diagnostic,
        "escape": None if report.escape is None else certificate_to_dict(report.escape),
    }


def _fmt_optional(x: float | None) -> str | None:
    return None if x is None else fmt_float(x)


def render_report_text(report: CriticalPointReport) -> str:
    """Deterministic plain-text rendering (key: value per line)."""
    d = report_to_dict(report)
    escape = d.pop("escape")
    d["layer_gradient_norms"] = ",".join(d["layer_gradient_norms"])
    lines = [f"{key}: {'none' if value is None else value}" for key, value in d.items()]
    if escape is None:
        lines.append("escape: none")
    else:
        lines.extend(f"escape.{key}: {value}" for key, value in escape.items())
    return "\n".join(lines) + "\n"
