"""Tests of the benchmark itself: metric names, and checks that fail on wrong inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import fixture  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
from reference import reference_trajectory  # noqa: E402
from trajsurrogate import (  # noqa: E402
    NetworkParams, RngSeed, SampleSet, TimeGrid, TrainConfig, TransferKind, circuit_system,
    default_domain, error_stats, forward, init_weights, load_model, save_model,
    solve_trajectory, train, write_training_log,
)
from trajsurrogate.neuralnet import Normalizer  # noqa: E402

FX = fixture.load_fixture()
SMALL = {role: (FX[role][0][:60], FX[role][1][:60]) for role in fixture.ROLES}


def _sets(arrays=SMALL):
    grid = TimeGrid(*FX["span"], 200)
    return {role: SampleSet(role, *arrays[role], grid) for role in fixture.ROLES}


def _perturbed_row(arrays, role="train", row=0, factor=1.5):
    params, targets = arrays[role]
    targets = targets.copy()
    targets[row] *= factor
    return {**arrays, role: (params, targets)}


def _initial(kind, hidden=(8, 8), seed=7):
    return init_weights([4, *hidden, 200], kind, RngSeed(seed, "weights"))


def _fit(kind, method, epochs, hidden=(8, 8), seed=7):
    sets = _sets()
    tr = sets["train"]
    norm = Normalizer.from_training(tr.params, tr.targets)
    net = _initial(kind, hidden, seed)
    model, record = train(net, norm, tr, sets["validation"], sets["test"],
                          TrainConfig(method=method, max_epochs=epochs))
    return model, norm, record


def _log(record, tmp_path):
    path = tmp_path / "training_log.csv"
    write_training_log(record, path)
    return checks.read_training_log(path)


def _train_mse(net, norm, arrays=SMALL):
    return float(np.mean((forward(net, norm, arrays["train"][0]) - arrays["train"][1]) ** 2))


def _lstsq_net(norm, arrays=SMALL):
    """A purelin net that realises the least-squares affine map exactly."""
    params, targets = arrays["train"]
    z = checks.normalize(params, norm.in_min, norm.in_max)
    coef, *_ = np.linalg.lstsq(np.column_stack([z, np.ones(len(z))]), targets, rcond=None)
    half_span = (norm.out_max - norm.out_min) / 2.0
    w_out = (coef[:-1] / half_span).T
    b_out = (coef[-1] - norm.out_min) / half_span - 1.0
    return NetworkParams([np.eye(4), w_out], [np.zeros(4), b_out], TransferKind.PURELIN)


# --- metric names ---------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory, monkeypatch_module):
    """Both kinds of run, cut down to seconds, through the real code paths."""
    monkeypatch_module.setattr(run, "FIXED_ROUNDS", {"generate": 1, "train": 1, "surrogate": 1})
    monkeypatch_module.setattr(pipeline, "REFERENCE_ROWS", 1)
    monkeypatch_module.setattr(pipeline, "HIDDEN", [8, 8])
    monkeypatch_module.setattr(pipeline, "FITS", tuple((f, m, t, 3) for f, m, t, _ in pipeline.FITS))
    monkeypatch_module.setattr(pipeline, "SINGLE_CALLS", 5)
    monkeypatch_module.setattr(pipeline, "BATCHES", 1)
    return {trace: run.measure("surrogate", 1, 0.0, trace, tmp_path_factory.mktemp(f"t{trace}"))
            for trace in (False, True)}


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def test_metric_names_match_benchmark_json(tiny_runs):
    declared = run.declared_metrics()
    assert set(tiny_runs[False]["values"]) == set(declared["end_to_end"])
    assert set(tiny_runs[True]["values"]) == set(declared["per_layer"])
    assert tiny_runs[False]["failed"] == tiny_runs[True]["failed"] == 0


def test_benchmark_json_is_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} == set(run.STAGES)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- checks fail on wrong inputs ----------------------------------------------------

def test_generated_rows_check_catches_bad_rows():
    d = default_domain()
    params, targets = SMALL["test"]
    assert checks.check_generated(params, targets, d.lower, d.upper, 200) == []
    bad = targets.copy()
    bad[3, 17] = np.nan
    assert checks.check_generated(params, bad, d.lower, d.upper, 200)
    assert checks.check_generated(params, targets[:, :199], d.lower, d.upper, 200)


def test_reference_check_catches_perturbed_target_row():
    spec = circuit_system()
    p = default_domain().midpoint()
    row = solve_trajectory(spec, p, TimeGrid.for_system(spec, 200))
    ref = reference_trajectory(p)
    assert checks.check_against_reference([row], [ref]) == []
    assert checks.check_against_reference([row * 1.002], [ref])


def test_fit_check_catches_perturbed_weight(tmp_path):
    model, norm, record = _fit(TransferKind.TANSIG, "oss", 6)
    log = _log(record, tmp_path)
    reported = _train_mse(model, norm)
    assert checks.check_fit("oss-tansig", model, norm, reported, log, SMALL) == []
    model.weights[0][0, 0] += 0.05
    assert checks.check_fit("oss-tansig", model, norm, reported, log, SMALL)


def test_fit_check_catches_rising_train_mse(tmp_path):
    model, norm, record = _fit(TransferKind.TANSIG, "oss", 6)
    log = _log(record, tmp_path)
    log["mse_train"][3] = log["mse_train"][2] * 1.01
    assert checks.check_fit("oss-tansig", model, norm, _train_mse(model, norm), log, SMALL)


def test_floor_checks_catch_perturbed_target_row():
    sets = _sets()
    tr = sets["train"]
    norm = Normalizer.from_training(tr.params, tr.targets)
    net = _lstsq_net(norm)
    log = {"mse_valid": np.array([float(np.mean((forward(net, norm, SMALL["validation"][0])
                                                 - SMALL["validation"][1]) ** 2))]),
           "mse_train": np.array([])}
    reported = _train_mse(net, norm)
    assert checks.check_fit("cg-purelin", net, norm, reported, log, SMALL) == []
    assert checks.check_fit("cg-purelin", net, norm, reported, log, _perturbed_row(SMALL))



def _hardlim_fit(seed):
    """A gdx/hardlim fit, its log and its train MSE, as the program reports them."""
    net, norm, record = _fit(TransferKind.HARDLIM, "gdx", 30, hidden=(30, 30), seed=seed)
    log = {"mse_valid": np.array(record.mse_valid), "mse_train": np.array(record.mse_train)}
    return net, norm, log, _train_mse(net, norm)


def test_hardlim_check_catches_moved_hidden_layers():
    initial = _initial(TransferKind.HARDLIM, (30, 30), seed=7)
    net, norm, log, reported = _hardlim_fit(seed=7)
    assert checks.check_fit("gdx-hardlim", net, norm, reported, log, SMALL, initial) == []
    assert checks.check_fit("gdx-hardlim", net, norm, reported, log,
                            _perturbed_row(SMALL, factor=50.0), initial)
    moved = net.copy()
    moved.weights[0][4, 2] += 1e-9
    moved.biases[1][7] -= 1e-9
    wrong = checks.check_fit("gdx-hardlim", moved, norm, reported, log, SMALL, initial)
    assert any("hidden layers differ" in p for p in wrong)
    # a fit that is consistent in itself but started from other hidden layers
    other, other_norm, other_log, other_reported = _hardlim_fit(seed=8)
    assert checks.check_fit("gdx-hardlim", other, other_norm, other_reported, other_log, SMALL,
                            _initial(TransferKind.HARDLIM, (30, 30), seed=8)) == []
    wrong = checks.check_fit("gdx-hardlim", other, other_norm, other_reported, other_log, SMALL,
                             initial)
    assert any("hidden layers differ" in p for p in wrong)


def test_error_report_check_catches_perturbed_target_row():
    model, norm, _ = _fit(TransferKind.PURELIN, "cg", 10)
    report = error_stats(model, norm, _sets()["test"])
    assert checks.check_error_report("cg-purelin", model, norm, report, SMALL["test"], FX["span"]) == []
    wrong = _perturbed_row(SMALL, role="test", factor=1.01)["test"]
    assert checks.check_error_report("cg-purelin", model, norm, report, wrong, FX["span"])


def test_forward_check_catches_perturbed_weight():
    model, norm, _ = _fit(TransferKind.TANSIG, "oss", 3)
    points = SMALL["test"][0]
    batch = forward(model, norm, points)
    singles = [forward(model, norm, p) for p in points]
    assert checks.check_forward(model, norm, points, batch, singles) == []
    model.weights[1][2, 3] += 1e-3
    assert checks.check_forward(model, norm, points, batch)
    assert checks.check_forward(model, norm, points, forward(model, norm, points), singles)


def test_round_trip_check_catches_short_file_and_perturbed_weight(tmp_path):
    model, norm, _ = _fit(TransferKind.PURELIN, "cg", 3)
    path = tmp_path / "model.tjn"
    save_model(model, norm, path, {"note": "test"})
    assert checks.check_round_trip(model, norm, path, load_model) == []
    short = tmp_path / "short.tjn"
    short.write_bytes(path.read_bytes()[:-9])
    assert checks.check_round_trip(model, norm, short, load_model)
    model.biases[0][0] += 1e-12
    assert checks.check_round_trip(model, norm, path, load_model)
