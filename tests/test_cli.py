import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import dln_landscape.network
from dln_landscape.cli import main
from dln_landscape.harness import CONSTRUCTIONS
from dln_landscape.network import bottleneck_split, partial_product
from dln_landscape.storage import (
    load_chain,
    load_instance,
    load_matrix_csv,
    load_trajectory_csv,
    save_matrix_csv,
)


GOLDEN = Path(__file__).parent / "data" / "analyze_golden"


def _edit_manifest(directory, edit) -> None:
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    edit(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _cut_oracle_gap(report: str) -> tuple[str, float]:
    """``report`` with the oracle gap's digits removed, and the gap."""
    match = re.search(r'oracle_gap"?: "?([-+.e0-9]+)', report)
    return report[: match.start(1)] + report[match.end(1):], float(match.group(1))


def _gen(tmp_path, name, *extra):
    out = tmp_path / name
    args = ["gen", "--out", str(out), *extra]
    assert main(args) == 0
    return out


class TestGen:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "5")
        chain, loss, manifest = load_instance(out)
        assert chain.widths == (3, 4, 2, 4, 3)
        assert manifest["provenance"]["seed"] == 5
        assert "loss: " in capsys.readouterr().out

    def test_json_output_parses(self, tmp_path, capsys):
        _gen(tmp_path, "inst", "--dims", "2,1,1,2", "--construction",
             "rank_deficient_plateau", "--format", "json")
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [2, 1, 1, 2]
        assert payload["construction"] == "rank_deficient_plateau"

    def test_same_seed_same_bytes(self, tmp_path):
        a = _gen(tmp_path, "a", "--dims", "3,2,3", "--seed", "9")
        b = _gen(tmp_path, "b", "--dims", "3,2,3", "--seed", "9")
        for name in ("M1.csv", "M2.csv", "X.csv", "Y.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_construction_exits_3(self, tmp_path, capsys):
        code = main(["gen", "--dims", "1,1,2", "--construction",
                     "full_rank_critical", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_bad_dims_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--dims", "3", "--out", str(tmp_path / "x")])
        assert exc.value.code == 1

    def test_missing_out_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--dims", "3,2,3"])
        assert exc.value.code == 1

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1


class TestAnalyze:
    def test_plateau_report_text_and_file(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "2,1,1,2", "--construction",
                    "rank_deficient_plateau", "--seed", "3")
        capsys.readouterr()
        report_file = tmp_path / "report.txt"
        assert main(["analyze", str(inst), "--out", str(report_file)]) == 0
        stdout = capsys.readouterr().out
        assert "label: escapable_plateau" in stdout
        assert report_file.read_text(encoding="utf-8") == stdout

    def test_json_report(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--construction",
                    "full_rank_critical")
        capsys.readouterr()
        assert main(["analyze", str(inst), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "reducible_full_rank"
        assert payload["has_reduction"] is True

    @pytest.mark.parametrize("fmt, stored", [("text", "analyze.txt"), ("json", "analyze.json")])
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_stdout_matches_stored_report(self, construction, fmt, stored, capsys):
        # stored instances and reports were written together; only the last
        # digits of the oracle gap may move with the oracle's rounding
        directory = GOLDEN / construction
        assert main(["analyze", str(directory), "--format", fmt]) == 0
        out, gap = _cut_oracle_gap(capsys.readouterr().out)
        expected, expected_gap = _cut_oracle_gap((directory / stored).read_text(encoding="utf-8"))
        assert out == expected
        assert gap == pytest.approx(expected_gap, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("command", ["analyze", "perturb"])
    @pytest.mark.parametrize("delta", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_bad_delta_is_usage_error(self, construction, delta, command, capsys):
        # refused on every label, not only where an escape gets built
        assert main([command, str(GOLDEN / construction), f"--delta={delta}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta must be positive and finite, got {float(delta)!r}\n"

    def test_missing_instance_is_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nowhere")]) == 1
        assert "error" in capsys.readouterr().err


    def test_manifest_without_loss_exits_1(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        _edit_manifest(inst, lambda m: m.pop("loss"))
        capsys.readouterr()
        assert main(["analyze", str(inst)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lacks 'loss'" in err

    def test_factor_file_outside_instance_exits_1(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        _edit_manifest(inst, lambda m: m["factors"].__setitem__(0, "../inst/M1.csv"))
        capsys.readouterr()
        assert main(["analyze", str(inst)]) == 1
        assert capsys.readouterr().err.count("\n") == 1


class TestPerturb:
    def test_certificate_written_and_loadable(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "2,1,1,2", "--construction",
                    "rank_deficient_plateau", "--seed", "3")
        capsys.readouterr()
        cert_dir = tmp_path / "cert"
        code = main(["perturb", str(inst), "--out", str(cert_dir),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["side"] in ("below", "above")
        assert isinstance(payload["i_star"], int)
        perturbed = load_chain(cert_dir)
        original, loss, _ = load_instance(inst)
        from dln_landscape.network import chain_loss, end_to_end
        drift = np.linalg.norm(end_to_end(perturbed) - end_to_end(original))
        assert drift <= 1e-9 * (1.0 + np.linalg.norm(end_to_end(original)))
        assert abs(chain_loss(perturbed, loss) - chain_loss(original, loss)) <= 1e-9

    def test_non_plateau_exits_3(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "1")
        capsys.readouterr()
        assert main(["perturb", str(inst)]) == 3
        assert "infeasible" in capsys.readouterr().err


class TestLift:
    def test_above_lift_is_exact(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "2")
        chain, _, _ = load_instance(inst)
        split = bottleneck_split(chain)
        rng = np.random.default_rng(0)
        target = rng.standard_normal(split.above.shape)
        target_file = tmp_path / "target.csv"
        save_matrix_csv(target_file, target)
        update_file = tmp_path / "update.csv"
        capsys.readouterr()
        code = main(["lift", str(inst), "--target", str(target_file),
                     "--side", "above", "--out", str(update_file),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        layer = payload["layer"]
        assert layer == chain.k
        update = load_matrix_csv(update_file)
        lifted = chain.with_factor(layer, chain.factors[layer - 1] + update)
        achieved = partial_product(lifted, split.index + 1, chain.k)
        err = np.linalg.norm(achieved - (split.above + target))
        assert err <= 1e-9 * np.linalg.norm(target)

    def test_below_lift_is_exact(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "8")
        chain, _, _ = load_instance(inst)
        split = bottleneck_split(chain)
        rng = np.random.default_rng(1)
        target = rng.standard_normal(split.below.shape)
        target_file = tmp_path / "target.csv"
        save_matrix_csv(target_file, target)
        update_file = tmp_path / "update.csv"
        capsys.readouterr()
        code = main(["lift", str(inst), "--target", str(target_file),
                     "--side", "below", "--out", str(update_file)])
        assert code == 0
        update = load_matrix_csv(update_file)
        lifted = chain.with_factor(1, chain.factors[0] + update)
        achieved = partial_product(lifted, 1, split.index)
        err = np.linalg.norm(achieved - (split.below + target))
        assert err <= 1e-9 * np.linalg.norm(target)

    @pytest.mark.parametrize("side, shape", (("above", (3, 2)), ("below", (2, 3))))
    def test_overflowing_lift_norms_exit_1_and_write_nothing(self, tmp_path, capsys, side, shape):
        # Every entry is finite, but the target's norm and its lift's
        # overflow a float: the amplification would read nan.
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "7")
        target_file = tmp_path / "target.csv"
        save_matrix_csv(target_file, np.full(shape, 1e300))
        update_file = tmp_path / "update.csv"
        capsys.readouterr()
        code = main(["lift", str(inst), "--target", str(target_file),
                     "--side", side, "--out", str(update_file)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "overflows" in captured.err
        assert not update_file.exists()

    def test_no_bottleneck_exits_3(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "2,3,2")
        target_file = tmp_path / "target.csv"
        save_matrix_csv(target_file, np.eye(2))
        capsys.readouterr()
        assert main(["lift", str(inst), "--target", str(target_file)]) == 3


# sha256 over the stdout of ``dln gen`` and ``dln train --max-steps 50`` on
# a generic 10,12,8,12,10 chain, then the name, size and bytes of ``traj.csv``
# and of each ``--final-dir`` file in name order.  The super layers at the
# cut are 10x8 and 8x10, wide enough that ``numerical_rank`` settles every
# recorded rank with its full-rank certificate instead of an SVD.
PINNED_TRAIN_DIGEST = "271bceec1f928c8097816836b22313e4a0ef550fdaac6a4651855ef306671e5e"


class TestTrain:
    def test_trajectory_and_final_dir(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "4")
        traj_file = tmp_path / "traj.csv"
        final_dir = tmp_path / "final"
        capsys.readouterr()
        code = main(["train", str(inst), "--max-steps", "300",
                     "--out", str(traj_file), "--final-dir", str(final_dir),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] in (
            "stalled-critical", "budget-exhausted", "line-search-stalled",
            "precision-limited",
        )
        points = load_trajectory_csv(traj_file)
        assert points[0].step == 0
        assert points[-1].loss <= points[0].loss
        assert all(p.rank_above >= 0 for p in points)
        trained, loss, manifest = load_instance(final_dir)
        assert manifest["provenance"]["trained_from"] == str(inst)
        from dln_landscape.network import chain_loss
        reloaded_loss = chain_loss(trained, loss)
        assert abs(reloaded_loss - float(payload["loss"])) <= 1e-12 * (1.0 + reloaded_loss)


    def test_outputs_match_the_pinned_digest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--dims", "10,12,8,12,10", "--seed", "3", "--out", "inst"]) == 0
        assert main(["train", "inst", "--max-steps", "50", "--out", "traj.csv",
                     "--final-dir", "trained"]) == 0
        h = hashlib.sha256(capsys.readouterr().out.encode())
        for path in [Path("traj.csv"), *sorted(Path("trained").iterdir())]:
            h.update(f"{path.name}:{path.stat().st_size};".encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == PINNED_TRAIN_DIGEST

    def test_negative_max_steps_exits_1(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        capsys.readouterr()
        assert main(["train", str(inst), "--max-steps", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_steps" in err


    @pytest.mark.parametrize("value", ("nan", "inf", "-1"))
    def test_invalid_stop_grad_tol_exits_1(self, tmp_path, capsys, value):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        capsys.readouterr()
        assert main(["train", str(inst), f"--stop-grad-tol={value}"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stop_grad_tol" in err


class TestToleranceFlags:
    @pytest.mark.parametrize(
        "command", (["train"], ["oracle"], ["lift", "--target", "change.csv"]), ids=("train", "oracle", "lift")
    )
    @pytest.mark.parametrize("flag", ("--tol-grad", "--tol-invariance", "--tol-subspace"))
    def test_unread_tolerance_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(inst), *command[1:], flag, "1e-3"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dln ")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("flag", ("--tol-rank", "--tol-grad", "--tol-invariance", "--tol-subspace"))
    def test_verify_tolerance_flag_is_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "0", flag, "1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dln ")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "command", (["train"], ["oracle"], ["lift", "--target", "change.csv"]), ids=("train", "oracle", "lift")
    )
    @pytest.mark.parametrize("value", ("nan", "5", "-3", "0"))
    def test_invalid_rank_tolerance_exits_1(self, tmp_path, capsys, command, value):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3")
        capsys.readouterr()
        assert main([command[0], str(inst), *command[1:], f"--tol-rank={value}"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "rank_tol" in err


class TestOracle:
    def test_gap_nonnegative_and_map_saved(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "6")
        map_file = tmp_path / "map.csv"
        capsys.readouterr()
        code = main(["oracle", str(inst), "--out", str(map_file),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2
        assert float(payload["gap"]) >= -1e-12
        fitted = load_matrix_csv(map_file)
        assert fitted.shape == (3, 3)
        assert np.linalg.matrix_rank(fitted) <= 2

    def test_rank_flag_respected(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3", "--seed", "6")
        map_file = tmp_path / "map.csv"
        capsys.readouterr()
        assert main(["oracle", str(inst), "--rank", "1",
                     "--out", str(map_file)]) == 0
        assert np.linalg.matrix_rank(load_matrix_csv(map_file)) <= 1

    def test_logcosh_instance_exits_3(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "3,2,3", "--loss", "logcosh")
        capsys.readouterr()
        assert main(["oracle", str(inst)]) == 3
        assert capsys.readouterr().err == (
            "infeasible: the closed-form optimum is defined for the quadratic loss only\n"
        )

    def test_fewer_samples_than_inputs(self, tmp_path, capsys):
        inst = _gen(tmp_path, "inst", "--dims", "4,5,2,5,3", "--n-samples", "2")
        capsys.readouterr()
        assert main(["oracle", str(inst), "--format", "json"]) == 0
        assert float(json.loads(capsys.readouterr().out)["gap"]) >= 0.0
        assert main(["analyze", str(inst), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_gap"] is not None


# sha256 of the stdout of ``dln verify --seed 42``, the report whose bytes
# stay the same unless a change says why.
PINNED_VERIFY_SEED_42_DIGEST = "fc06b5ad767953efffa29a5908450a3e93312a5a2a1cdfe0d47685de7563f766"


class TestVerify:
    def test_seed_42_report_matches_the_pinned_digest(self, capsys):
        assert main(["verify", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_SEED_42_DIGEST

    def test_zero_trials_pass_with_warning(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    def test_small_suite_passes_and_json_parses(self, tmp_path, capsys):
        report_file = tmp_path / "verify.json"
        code = main(["verify", "--trials", "1", "--seed", "7",
                     "--format", "json", "--out", str(report_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["sections"]) == 9
        assert json.loads(report_file.read_text(encoding="utf-8")) == payload

    def test_broken_gradients_exit_2(self, monkeypatch, capsys):
        true_gradients = dln_landscape.network.layer_gradients

        def flipped(chain, loss):
            return [-g for g in true_gradients(chain, loss)]

        monkeypatch.setattr(dln_landscape.network, "layer_gradients", flipped)
        assert main(["verify", "--trials", "1", "--seed", "7"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_bad_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "not-a-number"])
        assert exc.value.code == 1


def _huge(tmp_path, name, index):
    """The seed-7 generic instance with ``index`` of matrix ``name`` set to 1e200."""
    inst = _gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "7")
    m = load_matrix_csv(inst / name)
    m[index] = 1e200
    save_matrix_csv(inst / name, m)
    return str(inst)


def _plateau(tmp_path, seed):
    return str(_gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", str(seed),
                    "--construction", "rank_deficient_plateau"))


def _plateau_with_huge_data(tmp_path):
    """The seed-3 plateau with ``X`` scaled by 1e200: its loss and every
    gradient entry are finite, but the gradient's norm overflows."""
    inst = _plateau(tmp_path, 3)
    x = Path(inst) / "X.csv"
    save_matrix_csv(x, 1e200 * load_matrix_csv(x))
    return inst


_GEN = ["gen", "--dims", "3,4,2,4,3"]

# case -> (exit code, argv builder); every builder names tmp_path / "out" as
# the output, which a refused request must leave unwritten.
_REFUSED = {
    "analyze with 1e200 in M1": (1, lambda t: ["analyze", _huge(t, "M1.csv", (0, 0))]),
    "train with 1e200 in M1": (
        1, lambda t: ["train", _huge(t, "M1.csv", (0, 0)), "--out", str(t / "out")]),
    "analyze with 1e200 in row 0 of X": (1, lambda t: ["analyze", _huge(t, "X.csv", 0)]),
    "gen factored_global at data scale 1e200": (
        1, lambda t: [*_GEN, "--construction", "factored_global", "--data-scale", "1e200",
                      "--out", str(t / "out")]),
    "gen at data scale 1e308": (
        1, lambda t: [*_GEN, "--data-scale", "1e308", "--out", str(t / "out")]),
    "gen logcosh with a sample count": (
        1, lambda t: [*_GEN, "--loss", "logcosh", "--n-samples", "5", "--out", str(t / "out")]),
    "analyze plateau at delta 1e300": (
        3, lambda t: ["analyze", _plateau(t, 7), "--delta", "1e300"]),
    "perturb plateau at delta 1e300": (
        3, lambda t: ["perturb", _plateau(t, 7), "--delta", "1e300", "--out", str(t / "out")]),
    "perturb plateau whose perturbed product overflows": (
        3, lambda t: ["perturb", _plateau(t, 3), "--delta", "1e300", "--out", str(t / "out")]),
    "analyze plateau whose gradient norm overflows": (
        1, lambda t: ["analyze", _plateau_with_huge_data(t)]),
    "perturb plateau whose gradient norm overflows": (
        1, lambda t: ["perturb", _plateau_with_huge_data(t), "--out", str(t / "out")]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _REFUSED)
def test_overflow_is_refused_with_one_line(tmp_path, capsys, case):
    code, argv = _REFUSED[case]
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ("analyze", "verify"))
def test_report_to_a_missing_directory_exits_1_before_stdout(tmp_path, capsys, command):
    if command == "analyze":
        argv = ["analyze", str(_gen(tmp_path, "inst", "--dims", "3,4,2,4,3", "--seed", "2"))]
    else:
        argv = ["verify", "--trials", "1"]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "missing" / "report.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "missing" in captured.err
