import json
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dln_landscape.analyze import classify
from dln_landscape.cli import main
from dln_landscape.harness import InstanceSpec, gen_instance, train_gd
from dln_landscape.network import LogCoshLoss, QuadraticLoss
from dln_landscape.storage import (
    TRAJECTORY_HEADER,
    certificate_to_dict,
    fmt_float,
    load_chain,
    load_instance,
    load_matrix_csv,
    load_trajectory_csv,
    render_report_text,
    report_to_dict,
    save_certificate,
    save_instance,
    save_matrix_csv,
    save_trajectory_csv,
)
from dln_landscape.verify import canonical_plateau


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestFloatFormatting:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip_doubles(self, x):
        assert _bits(float(fmt_float(x))) == _bits(x)

    def test_negative_zero_preserved(self):
        assert _bits(float(fmt_float(-0.0))) == _bits(-0.0)

    def test_subnormal_round_trip(self):
        tiny = 5e-324
        assert float(fmt_float(tiny)) == tiny


class TestMatrixCSV:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-200, 200, (4, 3)))
        m[0, 0] = -0.0
        m[1, 1] = 5e-324
        p = tmp_path / "m.csv"
        save_matrix_csv(p, m)
        back = load_matrix_csv(p)
        assert back.tobytes() == m.tobytes()
        assert np.signbit(back[0, 0])

    @pytest.mark.parametrize("name", ("special", "random"))
    def test_bytes_equal_the_per_entry_rendering(self, tmp_path, name):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
        special = np.array([
            [tiny, -tiny, np.finfo(np.float64).smallest_normal - tiny],
            [0.0, -0.0, 0.1],
            [huge, -huge, 2.0**53 + 2],
            [1e22, 1e23, -1e23],
        ])
        rng = np.random.default_rng(3)
        random = rng.standard_normal((40, 17)) * np.exp(rng.uniform(-700, 700, (40, 17)))
        m = {"special": special, "random": random}[name]
        p = tmp_path / "m.csv"
        save_matrix_csv(p, m)
        expected = "".join(",".join(fmt_float(v) for v in row) + "\n" for row in m)
        assert p.read_bytes() == expected.encode()

    def test_rejects_non_finite_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix_csv(tmp_path / "bad.csv", np.array([[np.inf]]))

    def test_rejects_non_finite_on_load(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,inf\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_matrix_csv(p)

    def test_rejects_ragged(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_matrix_csv(p)

    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_matrix_csv(p)

    def test_rejects_text_that_is_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"1,\xff\n")
        with pytest.raises(ValueError, match="is not UTF-8 text") as exc:
            load_matrix_csv(p)
        assert str(p) in str(exc.value)

    def test_rejects_vector_on_save(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix_csv(tmp_path / "v.csv", np.ones(3))


def _per_entry_reading(text: str) -> np.ndarray:
    """The reference reader: ``float()`` on each comma-separated field of
    each non-blank line, as ``str.splitlines`` cuts them."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    return np.array([[float(v) for v in row] for row in rows], dtype=np.float64)


_MAX = float(np.finfo(np.float64).max)
# Any finite double: a random bit pattern (subnormals included) or one of
# the edges.
_DOUBLES = st.one_of(
    st.integers(0, 2**64 - 1)
    .map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    .filter(np.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _MAX, -_MAX]),
)
# Exact renderings, and ones with too many or too few digits, which the
# parser must round correctly (``%.3e`` rounds the largest doubles up to
# overflow, which both readers turn into inf).
_RENDERINGS = ("%.17g", "%r", "%.30e", "%.3e")


@st.composite
def _matrix_texts(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rows, cols = draw(st.sampled_from([(1, n), (n, 1), (m, n)]))
    rendering = draw(st.sampled_from(_RENDERINGS))
    entries = draw(st.lists(_DOUBLES, min_size=rows * cols, max_size=rows * cols))
    lines = (",".join(rendering % x for x in entries[r * cols:(r + 1) * cols]) for r in range(rows))
    return "".join(line + "\n" for line in lines)


@given(text=_matrix_texts())
def test_reader_matches_per_entry_float(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "property.csv"
    p.write_text(text, encoding="utf-8")
    want = _per_entry_reading(text)
    if not np.isfinite(want).all():
        with pytest.raises(ValueError, match="non-finite"):
            load_matrix_csv(p)
        return
    got = load_matrix_csv(p)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Inputs the reader refuses: name -> (file text, a fragment of the message,
# whether the per-entry reference reads it).  The last five the reference
# accepts and numpy's parser does not: ``float()`` takes digit separators and
# any Unicode digit, and ``str.splitlines`` breaks lines at ``\v`` and ``\f``
# and skips whitespace-only lines.
_REFUSED_CSV = {
    "empty file": ("", "holds no matrix rows", False),
    "blank lines only": ("\n  \n\t\n", "holds no matrix rows", False),
    "ragged rows": ("1,2\n3\n", "has ragged rows", False),
    "digit separator": ("1_0,2\n", "could not convert string '1_0'", True),
    "whitespace-only line": ("1,2\n  \n3,4\n", "line 2 holds only whitespace", True),
    "vertical tab line break": ("1,2\v3,4\n", "could not convert string", True),
    "form feed line break": ("1,2\f3,4\n", "could not convert string", True),
    "non-ASCII digits": ("\u0661,\uff12\n", "could not convert string", True),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _REFUSED_CSV)
def test_reader_refuses_with_one_line_naming_the_file(tmp_path, capsys, case):
    text, fragment, reference_reads = _REFUSED_CSV[case]
    if reference_reads:
        assert _per_entry_reading(text).size
    p = tmp_path / "m.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_matrix_csv(p)
    message = str(exc.value)
    assert len(message.splitlines()) == 1 and str(p) in message and fragment in message
    inst = tmp_path / "inst"
    assert main(["gen", "--out", str(inst), "--dims", "3,2,3"]) == 0
    (inst / "M1.csv").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", str(inst)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(inst / "M1.csv") in captured.err and fragment in captured.err


class TestInstanceRoundTrip:
    def test_quadratic_instance(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=1))
        save_instance(tmp_path / "inst", inst.chain, inst.loss, provenance={"seed": 1})
        chain, loss, manifest = load_instance(tmp_path / "inst")
        assert manifest["format"] == "dln-instance/1"
        assert manifest["k"] == 4
        assert manifest["dims"] == [3, 4, 2, 4, 3]
        assert manifest["factors"] == ["M1.csv", "M2.csv", "M3.csv", "M4.csv"]
        assert manifest["provenance"] == {"seed": 1}
        assert isinstance(loss, QuadraticLoss)
        for a, b in zip(chain.factors, inst.chain.factors):
            assert a.tobytes() == b.tobytes()
        assert loss.inputs.tobytes() == inst.loss.inputs.tobytes()
        assert loss.targets.tobytes() == inst.loss.targets.tobytes()

    def test_logcosh_instance(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 3), loss_kind="logcosh", seed=2))
        save_instance(tmp_path / "inst", inst.chain, inst.loss)
        chain, loss, manifest = load_instance(tmp_path / "inst")
        assert isinstance(loss, LogCoshLoss)
        assert manifest["loss"]["kind"] == "logcosh"
        assert loss.target.tobytes() == inst.loss.target.tobytes()
        assert "provenance" not in manifest

    def test_manifest_is_canonical_json(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 3), seed=3))
        save_instance(tmp_path / "inst", inst.chain, inst.loss)
        text = (tmp_path / "inst" / "manifest.json").read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_load_chain_checks_dims(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 3), seed=4))
        save_instance(tmp_path / "inst", inst.chain, inst.loss)
        manifest_path = tmp_path / "inst" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["dims"] = [3, 9, 3]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError):
            load_chain(tmp_path / "inst")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "nowhere")


class TestCertificate:
    def test_metadata_block_keys(self, tmp_path):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        cert = report.escape
        meta = certificate_to_dict(cert)
        assert set(meta) == {
            "side", "i_star", "witness_row", "delta",
            "super_gradient_norm", "loss_delta", "original_loss",
        }
        assert meta["i_star"] == cert.containment_start == 1
        assert meta["side"] == "below"
        assert float(meta["delta"]) == cert.delta

    def test_save_and_reload_chain(self, tmp_path):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        cert = report.escape
        save_certificate(tmp_path / "cert", cert)
        manifest = json.loads(
            (tmp_path / "cert" / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["format"] == "dln-certificate/1"
        assert manifest["metadata"]["i_star"] == 1
        reloaded = load_chain(tmp_path / "cert")
        for a, b in zip(reloaded.factors, cert.perturbed_chain.factors):
            assert a.tobytes() == b.tobytes()


class TestTrajectoryCSV:
    def test_exact_header(self):
        assert TRAJECTORY_HEADER == "step,loss,max_grad,rank_A,rank_B"

    def test_round_trip(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 4, 2, 4, 3), seed=5))
        _, trajectory = train_gd(inst.chain, inst.loss, max_steps=4)
        p = tmp_path / "traj.csv"
        save_trajectory_csv(p, trajectory)
        first_line = p.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == "step,loss,max_grad,rank_A,rank_B"
        points = load_trajectory_csv(p)
        assert len(points) == len(trajectory.points)
        for a, b in zip(points, trajectory.points):
            assert a.step == b.step
            assert _same_float(a.loss, b.loss)
            assert _same_float(a.max_grad, b.max_grad)
            assert (a.rank_above, a.rank_below) == (b.rank_above, b.rank_below)

    def test_header_enforced_on_load(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text("step,loss\n0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_trajectory_csv(p)

    @pytest.mark.parametrize("row", ("0,1.0,2.0,1", "0,1.0,2.0,1,1,1", "x,1.0,2.0,1,1",
                                     "0,1.0,2.0,1.5,1", "0,1.0,two,1,1",
                                     # int() and float() read it as 10, 20.0, 3.0, 1, 2
                                     "1_0, 2_0,\u0663,+1,\u0662",
                                     # one row per form that load_matrix_csv refuses
                                     "1_0,1.0,2.0,1,1", "0,1.0,2.0,\uff11,1"))
    def test_bad_row_refused_with_one_line_naming_the_file(self, tmp_path, row):
        p = tmp_path / "traj.csv"
        p.write_text(f"{TRAJECTORY_HEADER}\n0,1.0,2.0,1,1\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_trajectory_csv(p)
        assert str(info.value) == f"{p} line 4 is not a trajectory row: {row!r}"

    @pytest.mark.parametrize("field", ("1_0", "\u0663", "\uff11"))
    def test_a_field_the_matrix_reader_refuses_is_refused(self, tmp_path, field):
        m = tmp_path / "m.csv"
        m.write_text(f"{field},2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_matrix_csv(m)
        p = tmp_path / "traj.csv"
        for slot in range(5):
            fields = ["0", "1.0", "2.0", "1", "1"]
            fields[slot] = field
            p.write_text(f"{TRAJECTORY_HEADER}\n{','.join(fields)}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="is not a trajectory row"):
                load_trajectory_csv(p)

    def test_signs_and_surrounding_spaces_load(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text(f"{TRAJECTORY_HEADER}\n +1 , +2.5 ,nan, +1 ,\t2 \n", encoding="utf-8")
        [point] = load_trajectory_csv(p)
        assert (point.step, point.loss, point.rank_above, point.rank_below) == (1, 2.5, 1, 2)
        assert np.isnan(point.max_grad)

    def test_non_finite_floats_load(self, tmp_path):
        p = tmp_path / "traj.csv"
        p.write_text(f"{TRAJECTORY_HEADER}\n0,inf,nan,-1,-1\n", encoding="utf-8")
        [point] = load_trajectory_csv(p)
        assert point.loss == np.inf and np.isnan(point.max_grad)

    def test_sentinel_ranks_survive(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(2, 3, 2), seed=6))
        _, trajectory = train_gd(inst.chain, inst.loss, max_steps=2)
        p = tmp_path / "traj.csv"
        save_trajectory_csv(p, trajectory)
        points = load_trajectory_csv(p)
        assert all(q.rank_above == -1 and q.rank_below == -1 for q in points)


def _same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


class TestReportRendering:
    def test_text_and_dict_for_plateau(self):
        chain, loss = canonical_plateau()
        report = classify(chain, loss)
        d = report_to_dict(report)
        assert d["label"] == "escapable_plateau"
        assert d["loss"] == "2"
        assert d["split_index"] == 1
        assert d["escape"]["i_star"] == 1
        text = render_report_text(report)
        assert text.endswith("\n")
        assert "label: escapable_plateau" in text
        assert "escape.i_star: 1" in text

    def test_text_for_reducible_has_no_escape(self):
        inst = gen_instance(
            InstanceSpec(dims=(3, 4, 2, 4, 3), construction="full_rank_critical", seed=7)
        )
        report = classify(inst.chain, inst.loss)
        text = render_report_text(report)
        assert "escape: none" in text
        assert "has_reduction: True" in text

    def test_rendering_is_deterministic(self):
        chain, loss = canonical_plateau()
        a = render_report_text(classify(chain, loss))
        b = render_report_text(classify(chain, loss))
        assert a == b


def _edit_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestManifestChecks:
    @pytest.fixture
    def inst_dir(self, tmp_path):
        inst = gen_instance(InstanceSpec(dims=(3, 2, 3), seed=5))
        return save_instance(tmp_path / "inst", inst.chain, inst.loss)

    @pytest.mark.parametrize(
        "drop",
        [
            lambda m: m.pop("factors"),
            lambda m: m.pop("dims"),
            lambda m: m.pop("loss"),
            lambda m: m["loss"].pop("kind"),
            lambda m: m["loss"].pop("files"),
            lambda m: m["loss"]["files"].pop("targets"),
        ],
        ids=["factors", "dims", "loss", "kind", "files", "targets"],
    )
    def test_missing_key_is_a_value_error(self, inst_dir, drop):
        _edit_manifest(inst_dir, drop)
        with pytest.raises(ValueError, match="lacks"):
            load_instance(inst_dir)

    def test_manifest_that_is_not_an_object_rejected(self, inst_dir):
        (inst_dir / "manifest.json").write_text("[]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            load_instance(inst_dir)

    def test_factor_outside_the_directory_rejected(self, inst_dir):
        _edit_manifest(inst_dir, lambda m: m["factors"].__setitem__(0, "../inst/M1.csv"))
        with pytest.raises(ValueError, match="not a file in that directory"):
            load_chain(inst_dir)

    def test_loss_file_outside_the_directory_rejected(self, inst_dir):
        _edit_manifest(inst_dir, lambda m: m["loss"]["files"].__setitem__("inputs", "../inst/X.csv"))
        with pytest.raises(ValueError, match="not a file in that directory"):
            load_instance(inst_dir)

    def test_absolute_file_name_rejected(self, inst_dir):
        target = str((inst_dir / "M1.csv").resolve())
        _edit_manifest(inst_dir, lambda m: m["factors"].__setitem__(0, target))
        with pytest.raises(ValueError, match="not a file in that directory"):
            load_chain(inst_dir)
