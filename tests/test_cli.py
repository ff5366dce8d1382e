"""Command-line interface: end-to-end pipeline runs and error handling."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trajsurrogate.cli import ConfigError, RunConfig, _check_system, main
from trajsurrogate.dataset import ON_FAILURE, ROLES, SampleSet, load_dataset, save_dataset
from trajsurrogate.dynsys import PluginResultError, circuit_system, default_domain
from trajsurrogate.integrator import TimeGrid, solve_trajectory
from trajsurrogate.neuralnet import TransferKind, load_model
from trajsurrogate.training import TrainConfig, TrainMethod


def write_config(tmp_path, run_dir, **overrides):
    doc = {
        "system": "circuit",
        "grid": {"m": 20},
        "samples": {"train": 6, "validation": 3, "test": 3},
        "seed_data": 77,
        "seed_weights": 78,
        "network": {"hidden": [8], "transfer": "purelin"},
        "training": {"method": "cg", "max_epochs": 15},
        "out": str(run_dir),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def assert_csv_rule(path):
    """Every line ends in LF alone, and every value cell reads as the program
    writes it: an integer with str, any other number with repr(float); the
    header and '#' footer lines are text."""
    raw = path.read_bytes()
    assert b"\r" not in raw, path
    for line in raw.decode().splitlines()[1:]:
        if not line.startswith("#"):
            for cell in line.split(","):
                written = str(int(cell)) if cell.lstrip("-").isdigit() else repr(float(cell))
                assert cell == written, (path, cell)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny generate+train run shared by the read-only CLI tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    out = tmp_path / "run"
    config = write_config(tmp_path, out)
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return config, out


def test_generate_writes_datasets_and_config(pipeline):
    _, out = pipeline
    for name in ("train.ds", "validation.ds", "test.ds", "run_config.json"):
        assert (out / name).exists()
    train_set = load_dataset(out / "train.ds")
    assert train_set.k == 6
    assert train_set.grid.m == 20
    assert train_set.role == "train"
    saved = json.loads((out / "run_config.json").read_text())
    assert saved["samples"]["train"] == 6


def test_generate_is_reproducible(pipeline, tmp_path):
    config, out = pipeline
    out2 = tmp_path / "again"
    config2 = tmp_path / "config2.json"
    doc = json.loads(config.read_text())
    doc["out"] = str(out2)
    config2.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(config2)]) == 0
    for name in ("train.ds", "validation.ds", "test.ds"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_csv_matches_the_datasets(tmp_path):
    out = tmp_path / "csv"
    config = write_config(tmp_path, out)
    assert main(["generate", "--config", str(config), "--csv"]) == 0
    header = ",".join([f"p{i}" for i in range(1, 5)] + [f"y{j}" for j in range(1, 21)])
    for role in ROLES:
        saved = load_dataset(out / f"{role}.ds")
        path = out / f"{role}.csv"
        assert path.read_text().splitlines()[0] == header
        assert_csv_rule(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back, np.hstack([saved.params, saved.targets]))


def test_train_writes_model_and_log(pipeline):
    _, out = pipeline
    net, norm, meta = load_model(out / "model.tjn")
    assert net.sizes == [4, 8, 20]
    assert meta["method"] == "cg"
    assert meta["seed_data"] == 77
    assert meta["seed_weights"] == 78
    assert "stop_reason" in meta
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,mse_train,mse_valid,mse_test"


def test_train_is_reproducible(pipeline, tmp_path):
    config, out = pipeline
    # same data, same weight seed: retraining into a fresh dir is bit-identical
    out2 = tmp_path / "retrain"
    config2 = tmp_path / "config2.json"
    doc = json.loads(config.read_text())
    doc["out"] = str(out2)
    config2.write_text(json.dumps(doc))
    out2.mkdir()
    assert main(["train", "--config", str(config2), "--data", str(out)]) == 0
    assert (out / "model.tjn").read_bytes() == (out2 / "model.tjn").read_bytes()


def test_evaluate_writes_report(pipeline, capsys):
    config, out = pipeline
    assert main(["evaluate", "--config", str(config)]) == 0
    report = (out / "report.txt").read_text()
    assert "train" in report and "test" in report
    for role in ("train", "validation", "test"):
        lines = (out / f"errors_{role}.csv").read_text().splitlines()
        assert lines[0] == "sample,error,min_abs_target"
    assert "MSE" in capsys.readouterr().out


def test_predict_writes_trajectory(pipeline, capsys):
    config, out = pipeline
    params = "2.5e-9,2.5e-9,1.5e6,1.5e8"
    assert main(["predict", "--config", str(config), "--params", params]) == 0
    lines = (out / "prediction.csv").read_text().splitlines()
    assert lines[0] == "t,y"
    assert len(lines) == 21
    assert "ms" in capsys.readouterr().out


def test_predict_compare_reports_speedup(pipeline, capsys):
    config, _ = pipeline
    params = "2.5e-9,2.5e-9,1.5e6,1.5e8"
    code = main(["predict", "--config", str(config), "--params", params, "--compare"])
    assert code == 0
    text = capsys.readouterr().out
    assert "speedup" in text
    assert "deviation" in text


def test_predict_notes_parameters_outside_training_range(pipeline, capsys):
    config, out = pipeline
    train_params = load_dataset(out / "train.ds").params
    inside = ",".join(repr(float(v)) for v in train_params.mean(axis=0))
    assert main(["predict", "--config", str(config), "--params", inside]) == 0
    assert "note:" not in capsys.readouterr().out
    outside = ",".join(repr(float(v)) for v in 2.0 * train_params.max(axis=0))
    assert main(["predict", "--config", str(config), "--params", outside]) == 0
    text = capsys.readouterr().out
    assert [line for line in text.splitlines() if line.startswith("note:")] == [
        "note: --params lies outside the range of the training inputs; the prediction extrapolates"
    ]
    assert len((out / "prediction.csv").read_text().splitlines()) == 21


def test_predict_rejects_wrong_parameter_count(pipeline, capsys):
    config, _ = pipeline
    assert main(["predict", "--config", str(config), "--params", "1,2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_plot_data_overlays_match_dataset(pipeline):
    config, out = pipeline
    assert main(["plot-data", "--config", str(config), "--indices", "0,2", "--role", "test"]) == 0
    test_set = load_dataset(out / "test.ds")
    for idx in (0, 2):
        lines = (out / f"sample_{idx}.csv").read_text().splitlines()
        assert lines[0] == "t,y_true,y_predicted"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], test_set.grid.points)
        assert np.array_equal(rows[:, 1], test_set.targets[idx])


def test_every_csv_has_lf_line_ends_and_shortest_round_trip_floats(pipeline):
    config, out = pipeline
    for command, *flags in (["evaluate"], ["predict", "--params", "2.5e-9,2.5e-9,1.5e6,1.5e8"],
                            ["plot-data", "--indices", "0"]):
        assert main([command, "--config", str(config), *flags]) == 0
    paths = sorted(out.glob("*.csv"))
    written = {"training_log.csv", "prediction.csv", "sample_0.csv"} | {f"errors_{r}.csv" for r in ROLES}
    assert written <= {path.name for path in paths}
    for path in paths:
        assert_csv_rule(path)


def test_plot_data_rejects_out_of_range_index(pipeline, capsys):
    config, _ = pipeline
    assert main(["plot-data", "--config", str(config), "--indices", "99"]) == 2
    assert capsys.readouterr().err.startswith("error: ConfigError: --indices: sample index 99 ")


@pytest.mark.parametrize("argv, named", [
    (["predict", "--params", "1,2,x"], "--params: '1,2,x' "),
    (["predict", "--params", "1,,3,4"], "--params: "),
    (["plot-data", "--indices", "a"], "--indices: 'a' "),
    (["plot-data", "--indices", "0,1.5"], "--indices: "),
    (["plot-data", "--indices", "0,-1"], "--indices: sample index -1 "),
    (["predict", "--params", "nan,2.5e-9,1.5e6,1.5e8"], "--params: 'nan,2.5e-9,1.5e6,1.5e8' holds "),
    (["predict", "--params", "2.5e-9,2.5e-9,inf,1.5e8"], "--params: '2.5e-9,2.5e-9,inf,1.5e8' holds "),
    (["plot-data", "--indices", "0", "--role", "holdout"], "role must be one of "),
])
def test_malformed_or_out_of_range_lists_are_config_errors(pipeline, capsys, argv, named):
    config, out = pipeline
    before = sorted(p.name for p in out.iterdir())
    assert main([*argv[:1], "--config", str(config), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {named}")
    assert sorted(p.name for p in out.iterdir()) == before


def test_model_and_data_widths_must_agree(pipeline, tmp_path, capsys):
    config, out = pipeline
    # data generated at m = 10 for a model trained at m = 20
    other = tmp_path / "m10"
    other_config = write_config(tmp_path, other, grid={"m": 10},
                                samples={"train": 2, "validation": 1, "test": 1})
    assert main(["generate", "--config", str(other_config)]) == 0
    capsys.readouterr()
    model = out / "model.tjn"
    assert main(["evaluate", "--config", str(config), "--model", str(model), "--data", str(other)]) == 2
    assert "error: DimensionMismatchError" in capsys.readouterr().err
    (other / "model.tjn").write_bytes(model.read_bytes())
    assert main(["plot-data", "--config", str(other_config), "--indices", "0"]) == 2
    assert "error: DimensionMismatchError" in capsys.readouterr().err
    assert not (other / "sample_0.csv").exists()


def test_evaluate_refuses_a_set_on_another_time_span(pipeline, tmp_path, capsys):
    config, out = pipeline
    # the pipeline's sets with test.ds re-saved on a span ten times as long
    other = tmp_path / "span"
    other.mkdir()
    for role in ROLES:
        s = load_dataset(out / f"{role}.ds")
        if role == "test":
            grid = TimeGrid(s.grid.t0, 10.0 * s.grid.tf, s.grid.m)
            s = SampleSet(role, s.params, s.targets, grid, s.seed)
        save_dataset(s, other / f"{role}.ds")
    argv = ["evaluate", "--config", str(config), "--model", str(out / "model.tjn"), "--data", str(other),
            "--out", str(other)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: DimensionMismatchError: test set spans")
    assert not list(other.glob("errors_*.csv")) and not (other / "report.txt").exists()


def test_evaluate_scores_every_set_before_writing(pipeline, tmp_path, capsys):
    config, out = pipeline
    # the pipeline's sets with one validation target set to exactly zero
    other = tmp_path / "zero"
    other.mkdir()
    for role in ROLES:
        s = load_dataset(out / f"{role}.ds")
        if role == "validation":
            targets = s.targets.copy()
            targets[1, 3] = 0.0
            s = SampleSet(role, s.params, targets, s.grid, s.seed)
        save_dataset(s, other / f"{role}.ds")
    argv = ["evaluate", "--config", str(config), "--model", str(out / "model.tjn"), "--data", str(other),
            "--out", str(other)]
    assert main(argv) == 2
    assert capsys.readouterr().err.strip() == (
        "error: ZeroDenominatorError: reference trajectory is zero at sample 1, grid index 3"
    )
    assert not list(other.glob("errors_*.csv")) and not (other / "report.txt").exists()


def test_plot_data_reads_only_its_own_role(pipeline, tmp_path):
    config, out = pipeline
    other = tmp_path / "test-only"
    other.mkdir()
    for name in ("model.tjn", "test.ds"):
        (other / name).write_bytes((out / name).read_bytes())
    assert main(["plot-data", "--config", str(config), "--out", str(other), "--indices", "0"]) == 0
    assert (other / "sample_0.csv").exists()


def test_a_dataset_file_of_another_role_is_refused(pipeline, tmp_path, capsys):
    config, out = pipeline
    # test.ds copied over train.ds
    other = tmp_path / "swapped"
    other.mkdir()
    for name in ("model.tjn", "validation.ds", "test.ds"):
        (other / name).write_bytes((out / name).read_bytes())
    (other / "train.ds").write_bytes((out / "test.ds").read_bytes())
    message = f"error: ConfigError: dataset file {other / 'train.ds'} holds the test set, not the train set"
    for argv in (["train", "--data", str(other)], ["plot-data", "--indices", "0", "--role", "train"]):
        assert main([*argv, "--config", str(config), "--out", str(other)]) == 2
        assert capsys.readouterr().err.strip() == message
    assert not (other / "sample_0.csv").exists()
    assert (other / "model.tjn").read_bytes() == (out / "model.tjn").read_bytes()


def test_missing_dataset_is_reported(tmp_path, capsys):
    config = write_config(tmp_path, tmp_path / "void")
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["evaluate"], ["predict", "--params", "1,2,3,4"], ["plot-data", "--indices", "0"],
])
def test_missing_model_is_reported(tmp_path, capsys, argv):
    out = tmp_path / "void"
    config = write_config(tmp_path, out)
    assert main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: ConfigError: missing model file {out / 'model.tjn'}; run 'train' first"
    )


def test_unknown_training_key_is_rejected(tmp_path, capsys):
    out = tmp_path / "run"
    config = write_config(
        tmp_path, out, training={"method": "cg", "max_epochs": 5, "warmup": 3}
    )
    for command in ("generate", "train"):
        assert main([command, "--config", str(config)]) == 2
        assert "warmup" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.ds"))


def test_invalid_json_config_is_reported(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["generate", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_zero_epoch_budget_round_trips(tmp_path):
    out = tmp_path / "zero"
    config = write_config(
        tmp_path, out, training={"method": "gdx", "max_epochs": 0}
    )
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    net, _, meta = load_model(out / "model.tjn")
    assert meta["elapsed_epochs"] == 0
    assert meta["stop_reason"] == "MaxEpochs"


def test_console_entry_point_smoke(tmp_path):
    config = write_config(tmp_path, tmp_path / "sub")
    done = subprocess.run(
        [sys.executable, "-m", "trajsurrogate.cli", "generate", "--config", str(config)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sub" / "train.ds").exists()
    helptext = subprocess.run(
        [sys.executable, "-m", "trajsurrogate.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert helptext.returncode == 0
    for command in ("generate", "train", "evaluate", "predict", "plot-data"):
        assert command in helptext.stdout


def test_experiment_script_smoke(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
    out = tmp_path / "exp"
    done = subprocess.run(
        [sys.executable, str(script), "--out", str(out), "--k", "5", "--m", "20", "--hidden", "8",
         "--max-epochs", "20", "--methods", "cg", "--transfers", "purelin"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("summary_training.txt", "summary_errors.txt"):
        assert (out / name).exists()
    for name in ("model.tjn", "training_log.csv", "report.txt"):
        assert (out / "purelin-cg" / name).exists()


@pytest.mark.slow
def test_experiment_script_quick_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "quick"
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_experiment.py"), "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.returncode == 0, done.stderr
    for name in ("summary_training.txt", "summary_errors.txt"):
        assert (out / name).exists()
    paths = sorted((out / "hardlim-gdx").glob("*.csv"))
    assert [path.name for path in paths] == [
        "errors_test.csv", "errors_train.csv", "errors_validation.csv", "training_log.csv"
    ]
    for path in paths:
        assert_csv_rule(path)


def test_method_override_beats_config(tmp_path):
    out = tmp_path / "ovr"
    config = write_config(tmp_path, out, training={"method": "cg", "max_epochs": 5})
    assert main(["generate", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--method", "gdx"]) == 0
    _, _, meta = load_model(out / "model.tjn")
    assert meta["method"] == "gdx"


def test_hardlim_training_notes_the_frozen_hidden_layers(pipeline, tmp_path, capsys):
    config, out = pipeline
    hardlim = tmp_path / "hardlim"
    argv = ["train", "--config", str(config), "--data", str(out), "--out", str(hardlim)]
    assert main([*argv, "--transfer", "hardlim"]) == 0
    assert capsys.readouterr().out.startswith(
        "note: hard-limit hidden layers have zero derivative; hidden weights stay "
        "at their random initialization and only the output layer is trained\n"
    )
    assert main([*argv, "--transfer", "purelin"]) == 0
    assert "note:" not in capsys.readouterr().out
    # a net without hidden layers is one affine layer: nothing stays frozen
    hidden_free = write_config(tmp_path, hardlim, network={"hidden": [], "transfer": "hardlim"},
                               training={"method": "cg", "max_epochs": 5})
    assert main(["train", "--config", str(hidden_free), "--data", str(out)]) == 0
    assert "note:" not in capsys.readouterr().out


def test_fit_flags_only_on_generate_and_train(tmp_path, capsys):
    config = str(write_config(tmp_path, tmp_path / "run"))
    commands = (["evaluate"], ["predict", "--params", "1,2,3,4"], ["plot-data", "--indices", "0"])
    flags = (["--seed-data", "1"], ["--seed-weights", "1"], ["--method", "cg"], ["--transfer", "purelin"])
    for command in commands:
        for flag in flags:
            assert main([*command, "--config", config, *flag]) == 2
            assert capsys.readouterr().err.startswith("error: ConfigError: unrecognized arguments")


def _blowup_config(tmp_path, on_failure):
    # x' = p0*x^2 from x(0) = 1 blows up at t = 1/p0, inside the span [0, 1] when p0 > 1
    return write_config(
        tmp_path,
        tmp_path / on_failure,
        system="test_dataset:blowup_system",
        domain={"lower": [0.2], "upper": [2.0]},
        grid={"m": 4},
        generation={"on_failure": on_failure},
    )


def _blowup_draws():
    from trajsurrogate.dataset import RngSeed, sample_parameters
    from trajsurrogate.dynsys import ParameterDomain

    domain = ParameterDomain(np.array([0.2]), np.array([2.0]))
    draws = sample_parameters(domain, 12, RngSeed(77, "sampling"))[:, 0]
    # clear of the boundary p0 = 1, so which rows fail follows from the closed form
    assert np.all(np.abs(draws - 1.0) > 0.05)
    return np.split(draws, [6, 9])


def test_plugin_failure_aborts_at_first_failed_row(tmp_path, capsys):
    config = _blowup_config(tmp_path, "abort")
    first = int(np.flatnonzero(_blowup_draws()[0] > 1.0)[0])
    assert main(["generate", "--config", str(config)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        f"error: TargetGenerationError: integration failed for sample row {first}: "
    )


def test_failed_generate_leaves_the_previous_run_whole(tmp_path, capsys):
    from trajsurrogate.dataset import RngSeed, sample_parameters
    from trajsurrogate.dynsys import ParameterDomain

    out = tmp_path / "run"
    names = ("train.ds", "validation.ds", "test.ds", "run_config.json")
    blowup = dict(system="test_dataset:blowup_system", grid={"m": 4})
    config = write_config(tmp_path, out, domain={"lower": [0.2], "upper": [0.9]}, seed_data=1, **blowup)
    assert main(["generate", "--config", str(config)]) == 0
    before = {name: (out / name).read_bytes() for name in names}
    # every train row of the second run solves (p0 < 1) and its first validation row fails
    draws = sample_parameters(ParameterDomain(np.array([0.2]), np.array([2.0])), 12, RngSeed(111))[:, 0]
    assert np.all(draws[:6] < 1.0) and draws[6] > 1.0
    config = write_config(tmp_path, out, domain={"lower": [0.2], "upper": [2.0]}, seed_data=111, **blowup)
    capsys.readouterr()
    assert main(["generate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: TargetGenerationError: integration failed for sample row 0: "
    )
    assert {name: (out / name).read_bytes() for name in names} == before


def test_plugin_failure_is_skipped_and_reported(tmp_path, capsys):
    config = _blowup_config(tmp_path, "skip")
    assert main(["generate", "--config", str(config)]) == 0
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    for role, draws in zip(("train", "validation", "test"), _blowup_draws()):
        good = draws[draws < 1.0]
        saved = load_dataset(tmp_path / "skip" / f"{role}.ds")
        assert saved.k == good.size
        assert np.array_equal(saved.params[:, 0], good)
        assert np.all(np.isfinite(saved.targets))
        assert lines[role].startswith(f"{role}: k={good.size} written to ")
        assert lines[role].endswith(f" s, {draws.size - good.size} failures)")
    # the plug-in's run_config.json, domain included, reads back unchanged
    saved = tmp_path / "skip" / "run_config.json"
    assert RunConfig.from_file(str(saved)).to_dict() == json.loads(saved.read_text())


def test_train_refuses_a_role_that_lost_every_row(tmp_path, capsys):
    out = tmp_path / "skip"
    config = write_config(
        tmp_path, out,
        system="test_dataset:blowup_system",
        domain={"lower": [0.1], "upper": [3.0]},
        grid={"m": 4},
        samples={"train": 2, "validation": 2, "test": 2},
        seed_data=3,
        generation={"on_failure": "skip"},
    )
    assert main(["generate", "--config", str(config)]) == 0
    assert "train: k=0 written to " in capsys.readouterr().out
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: ConfigError: dataset file {out / 'train.ds'} holds no rows: "
        "every train row failed in 'generate'"
    )
    assert not (out / "model.tjn").exists()


@pytest.mark.parametrize("on_failure", ON_FAILURE)
def test_singular_mass_plugin_fails_its_rows(tmp_path, capsys, on_failure):
    config = write_config(
        tmp_path, tmp_path / on_failure, system="test_dataset:singular_mass_ode",
        domain={"lower": [0.5], "upper": [2.0]}, grid={"m": 4},
        generation={"on_failure": on_failure},
    )
    code = main(["generate", "--config", str(config)])
    captured = capsys.readouterr()
    if on_failure == "abort":
        assert code == 2
        assert captured.err.startswith(
            "error: TargetGenerationError: integration failed for sample row 0: "
            "system is not semi-explicit index 1"
        )
        assert not list(tmp_path.rglob("*.ds"))
    else:
        assert code == 0
        for role, k in zip(ROLES, (6, 3, 3)):
            assert load_dataset(tmp_path / "skip" / f"{role}.ds").k == 0
            assert f"{role}: k=0 written to " in captured.out
            assert f" s, {k} failures)" in captured.out


@pytest.mark.parametrize("listed, twin", [
    ("listed_decay", "decay_without_jac"), ("listed_dae", "parametric_dae"),
])
def test_list_returning_plugin_writes_its_array_twins_bytes(tmp_path, listed, twin):
    for system in (listed, twin):
        config = write_config(
            tmp_path, tmp_path / system, system=f"test_dataset:{system}",
            domain={"lower": [0.5], "upper": [2.0]}, grid={"m": 4},
        )
        assert main(["generate", "--config", str(config)]) == 0
    for role in ROLES:
        name = f"{role}.ds"
        assert (tmp_path / listed / name).read_bytes() == (tmp_path / twin / name).read_bytes()


@pytest.mark.parametrize("on_failure", ON_FAILURE)
def test_misshaped_plugin_is_a_config_error_before_any_solve(tmp_path, capsys, on_failure):
    config = write_config(
        tmp_path,
        tmp_path / on_failure,
        system="test_dataset:misshaped_system",
        domain={"lower": [2e-9, 2e-9, 1e6, 1e8], "upper": [3e-9, 3e-9, 2e6, 2e8]},
        generation={"on_failure": on_failure},
    )
    assert main(["generate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: ConfigError: system rhs returned float64 of shape (2,), but dim = 3 needs "
        "real values of shape (3,)"
    )
    assert not list(tmp_path.glob("**/*.ds"))


@pytest.mark.parametrize("system, tf", [("unbounded_decay", "inf"), ("nan_end_decay", "nan")])
def test_non_finite_time_span_is_a_config_error_before_any_solve(tmp_path, capsys, system, tf):
    config = write_config(
        tmp_path, tmp_path / "run", system=f"test_dataset:{system}",
        domain={"lower": [0.5], "upper": [2.0]}, grid={"m": 4},
    )
    assert main(["generate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"error: ConfigError: system factory 'test_dataset:{system}': "
        f"t0 and tf must be finite with t0 < tf, not t0=0.0, tf={tf}"
    )
    assert not list(tmp_path.rglob("*.ds"))


@pytest.mark.parametrize("field, bad, name", [
    ("mass", lambda p: np.eye(2), "mass"),
    ("initial", lambda p: np.zeros(4), "initial"),
    ("jac", lambda t, x, p: np.zeros(3), "state_jacobian"),
    ("qoi", lambda x: x, "qoi"),
    ("qoi", lambda x: complex(x[1]), "qoi"),
    pytest.param("rhs", lambda t, x, p: np.zeros(3, dtype=complex), "rhs", id="rhs-complex-rhs"),
    pytest.param("jac", lambda t, x, p: np.zeros((3, 3), dtype=complex), "state_jacobian",
                 id="jac-complex-state_jacobian"),
    pytest.param("mass", lambda p: [[1, 0, 0], [0, 1], [0, 0, 0]], "mass", id="mass-ragged-mass"),
    pytest.param("rhs", lambda t, x, p: [0.0, [0.0, 0.0], 0.0], "rhs", id="rhs-ragged-rhs"),
    pytest.param("jac", lambda t, x, p: [[0, 0, 0], [0, 0], [0, 0, 0]], "state_jacobian",
                 id="jac-ragged-state_jacobian"),
])
def test_system_check_names_the_misshaped_callable(field, bad, name):
    _check_system(circuit_system(), default_domain())
    spec = dataclasses.replace(circuit_system(), **{field: bad})
    with pytest.raises(ConfigError, match=f"^system {name} returned "):
        _check_system(spec, default_domain())


# the circuit's callables, the shape each must return, and its accessor at the
# domain midpoint, where the circuit's initial state is zero
_RESULT_SHAPES = {"mass": (3, 3), "initial": (3,), "rhs": (3,), "jac": (3, 3), "qoi": ()}
_MIDPOINT = default_domain().midpoint()
_READ = {
    "mass": lambda spec: spec.mass_matrix(_MIDPOINT),
    "initial": lambda spec: spec.initial_state(_MIDPOINT),
    "rhs": lambda spec: spec.f(0.0, np.zeros(3), _MIDPOINT),
    "jac": lambda spec: spec.state_jacobian(0.0, np.zeros(3), _MIDPOINT),
    "qoi": lambda spec: spec.qoi_value(np.zeros(3)),
}
# values far inside the diode's overflow threshold, so that a drawn initial
# state leaves the circuit's own rhs and jac readable
_ELEMENTS = {
    "real": (np.float64, st.floats(-1e3, 1e3)),
    "bool": (np.bool_, st.booleans()),
    "int": (np.int64, st.integers(-1000, 1000)),
    "complex": (np.complex128, st.complex_numbers(max_magnitude=1e3)),
    "object": (object, st.one_of(st.none(), st.floats(-1e3, 1e3), st.text(max_size=2))),
}


@st.composite
def plugin_results(draw):
    """(callable, result): a real, bool, int, complex, object, ragged or
    wrong-shape result, as an array or as nested lists."""
    field = draw(st.sampled_from(sorted(_RESULT_SHAPES)))
    shape = _RESULT_SHAPES[field]
    kind = draw(st.sampled_from(sorted(_ELEMENTS) + ["ragged", "wrong-shape"]))
    if kind == "wrong-shape":
        other = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
        value = draw(hnp.arrays(np.float64, other.filter(lambda s: s != shape), elements=_ELEMENTS["real"][1]))
    elif kind == "ragged":
        rows = draw(hnp.arrays(np.float64, shape or (2,), elements=_ELEMENTS["real"][1])).tolist()
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if len(shape) == 2 else [rows[i], rows[i]]
        return field, rows
    else:
        dtype, elements = _ELEMENTS[kind]
        value = draw(hnp.arrays(dtype, shape, elements=elements))
    return field, value.tolist() if draw(st.booleans()) else value


@given(plugin_results())
@settings(max_examples=200, deadline=None)
def test_check_and_solver_read_plugin_results_alike(drawn):
    field, value = drawn
    spec = dataclasses.replace(circuit_system(), **{field: lambda *args: value})
    try:
        _check_system(spec, default_domain())
    except ConfigError as exc:
        with pytest.raises(PluginResultError) as read:
            _READ[field](spec)
        assert str(exc) == f"system {read.value}"
        with pytest.raises(PluginResultError) as solve:
            solve_trajectory(spec, _MIDPOINT, TimeGrid.for_system(spec, 5))
        assert str(solve.value) == str(read.value)
    else:
        got = np.asarray(_READ[field](spec))
        want = np.asarray(value).astype(np.float64)
        assert got.dtype == np.float64 and got.shape == _RESULT_SHAPES[field]
        assert got.tobytes() == want.tobytes()


_UNIT_DOMAIN = {"lower": [0.0], "upper": [1.0]}


@pytest.mark.parametrize(
    "system, domain, named",
    [
        ("nosuchmodule:factory", _UNIT_DOMAIN, "cannot load system factory 'nosuchmodule:factory'"),
        ("builtins:dict", _UNIT_DOMAIN, "'builtins:dict' did not return a SystemSpec"),
        ("math:pi", _UNIT_DOMAIN, "system factory 'math:pi' is not callable"),
        ("rc_ladder", _UNIT_DOMAIN, "unknown system 'rc_ladder'"),
        ("test_dataset:blowup_system", None, "plug-in systems require explicit domain bounds"),
    ],
    ids=["nosuchmodule:factory", "builtins:dict", "math:pi", "unknown-name", "plugin-without-domain"],
)
def test_bad_plugin_is_a_config_error(tmp_path, capsys, system, domain, named):
    overrides = {"domain": domain} if domain else {}
    config = write_config(tmp_path, tmp_path / "bad", system=system, **overrides)
    assert main(["generate", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: ConfigError: {named}")
    assert not list(tmp_path.rglob("*.ds"))


_CIRCUIT_LOWER, _CIRCUIT_UPPER = [2e-9, 2e-9, 1e6, 1e8], [3e-9, 3e-9, 2e6, 2e8]


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"seed": 5}, "'seed'"),
        ({"samples": {"trian": 5}}, "samples: ['trian']"),
        ({"training": {"method": "cg", "patience": 6}}, "training: ['patience']"),
        ({"grid": 50}, "grid must be a JSON object"),
        ({"samples": {"train": -1, "validation": 1, "test": 1}}, "samples.train: -1 "),
        ({"samples": {"train": 0}}, "samples.train: 0 "),
        ({"samples": {"test": 0}}, "samples.test: 0 "),
        ({"grid": {"m": "abc"}}, "grid.m: 'abc' "),
        ({"grid": {"m": 5.7}}, "grid.m: 5.7 "),
        ({"grid": {"m": True}}, "grid.m: True "),
        ({"network": {"hidden": 5}}, "network.hidden: 5 "),
        ({"network": {"hidden": [0]}}, "network.hidden: [0] "),
        ({"network": {"transfer": "relu"}}, "network.transfer: 'relu' "),
        ({"training": {"method": "adam"}}, "training.method: 'adam' "),
        ({"training": {"max_epochs": -1}}, "training.max_epochs: -1 "),
        ({"training": {"max_epochs": "2"}}, "training.max_epochs: '2' "),
        ({"generation": {"workers": 0}}, "generation.workers: 0 "),
        ({"generation": {"on_failure": "retry"}}, "generation.on_failure: 'retry' "),
        ({"tolerances": {"rtol": "1e-4"}}, "tolerances.rtol: '1e-4' "),
        ({"out": 5}, "out: 5 "),
        ({"system": 5}, "system: 5 "),
        ({"domain": {"lower": _CIRCUIT_UPPER, "upper": _CIRCUIT_LOWER}}, "domain: lower bound exceeds upper bound"),
        ({"domain": {"lower": [2e-9], "upper": [3e-9]}}, "domain: the circuit takes 4 parameters, not 1"),
        ({"tolerances": {"rtol": math.inf}}, "tolerances.rtol: inf "),
        ({"tolerances": {"atol": math.nan}}, "tolerances.atol: nan "),
        ({"domain": {"lower": [-math.inf] + _CIRCUIT_LOWER[1:], "upper": _CIRCUIT_UPPER}},
         "domain.lower: [-inf, "),
        ({"domain": {"lower": _CIRCUIT_LOWER, "upper": _CIRCUIT_UPPER[:3] + [math.inf]}},
         "domain.upper: [3e-09, 3e-09, 2000000.0, inf] is not a list of finite numbers"),
    ],
    ids=[
        "top-level", "samples.trian", "training.patience", "grid-not-object",
        "train-negative", "train-zero", "test-zero", "m-string", "m-float", "m-bool",
        "hidden-int", "hidden-zero", "transfer-relu", "method-adam", "max_epochs-negative",
        "max_epochs-string", "workers-zero", "on_failure-retry", "rtol-string", "out-int",
        "system-int", "domain-lower-above-upper", "domain-circuit-length-1", "rtol-infinity",
        "atol-nan", "lower-minus-infinity", "upper-infinity",
    ],
)
def test_config_errors_name_the_path_before_any_solve(tmp_path, capsys, overrides, named):
    config = write_config(tmp_path, tmp_path / "run", **overrides)
    assert main(["generate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ")
    assert named in err
    assert not list(tmp_path.rglob("*.ds"))


def test_run_config_lists_the_training_defaults():
    defaults = {"method": "cg", "max_epochs": 10000}
    assert RunConfig().to_dict()["training"] == defaults
    assert RunConfig.from_dict({"training": {}}).to_dict()["training"] == defaults
    assert RunConfig(method="gdx", max_epochs=0).train_config() == TrainConfig(TrainMethod.GDX, 0)


def test_flag_overrides_pass_the_same_checks(tmp_path, capsys):
    config = write_config(tmp_path, tmp_path / "run")
    cases = (
        (["generate", "--seed-data", "-1"], "error: ConfigError: seed_data: -1 "),
        (["generate", "--seed-data", "abc"], "error: ConfigError: argument --seed-data: invalid int value: 'abc'"),
        (["train", "--method", "bogus"], "error: ConfigError: training.method: 'bogus' is not one of"),
    )
    for argv, message in cases:
        assert main([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(message)
    assert not list(tmp_path.rglob("*.ds"))


def test_command_line_without_a_command(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err == "error: ConfigError: the following arguments are required: command\n"
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_counts = st.integers(1, 10**6)
_seeds = st.integers(0, 2**64 - 1)
_tolerances = st.floats(1e-15, 1.0) | st.integers(1, 10)
_bounds = st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)), max_size=5).map(
    lambda pairs: {"lower": [lo for lo, _ in pairs], "upper": [lo + width for lo, width in pairs]}
)
valid_configs = _optional(
    system=st.sampled_from(["circuit", "test_dataset:blowup_system"]),
    grid=_optional(m=_counts),
    tolerances=_optional(rtol=_tolerances, atol=_tolerances),
    samples=_optional(train=_counts, validation=_counts, test=_counts),
    seed_data=_seeds,
    seed_weights=_seeds,
    network=_optional(
        hidden=st.lists(_counts, max_size=3),
        transfer=st.sampled_from([k.value for k in TransferKind]),
    ),
    training=_optional(
        method=st.sampled_from([m.value for m in TrainMethod]), max_epochs=st.integers(0, 10**6)
    ),
    generation=_optional(on_failure=st.sampled_from(ON_FAILURE), workers=_counts),
    out=st.text(),
    domain=_bounds,
)


@settings(max_examples=200, deadline=None)
@given(valid_configs)
def test_valid_configs_round_trip(doc):
    cfg = RunConfig.from_dict(doc)
    saved = json.loads(json.dumps(cfg.to_dict()))
    for section, value in doc.items():
        if isinstance(value, dict):
            for key, entry in value.items():
                assert saved[section][key] == entry
        else:
            assert saved[section] == value
    assert RunConfig.from_dict(saved) == cfg
    assert RunConfig.from_dict(saved).to_dict() == saved
