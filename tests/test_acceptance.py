"""Acceptance gate: one test per release criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  The heavy fixtures build the reference experiment once: the
full 500/500/500 dataset at m = 200 through the CLI, with one worker process
per CPU, then one trained network per (method, transfer) pair at the
10000-epoch cap.  That dataset must equal the benchmark's stored copy,
`perfbench/data/reference_dataset.npz`, byte for byte, so a change that
moves generation bits also has to rewrite that copy.

Two criteria check training against oracles computed in the test from the
same data.  Criterion 4 bounds the optimality gap: the linear net's train
MSE relative to the least-squares floor of the affine model class, which
that net spans.  Criterion 6 checks that the adaptive-descent stop is
justified: `early_stop_check` on the recorded validation history trips at
its last epoch and not before, and a rerun capped one epoch earlier ends
at that cap with the same validation history.
"""

import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from trajsurrogate.cli import main
from trajsurrogate.dataset import RngSeed, load_dataset
from trajsurrogate.dynsys import circuit_system, default_domain
from trajsurrogate.evaluation import error_stats, l1_relative_error, total_variation
from trajsurrogate.integrator import (
    TimeGrid,
    ToleranceSettings,
    integrate_fixed_step,
    solve_trajectory,
)
from trajsurrogate.neuralnet import (
    Normalizer,
    TransferKind,
    forward,
    gradient,
    init_weights,
    loss_mse,
)
from trajsurrogate.training import PATIENCE, StopReason, TrainConfig, early_stop_check, train

from tests.conftest import decay_system

# the whole gate builds the full reference experiment: `pytest -m "not slow"` skips it
pytestmark = pytest.mark.slow

_ROLES = ("train", "validation", "test")
_GENERATION_BUDGET_S = 600.0
_TRAINING_BUDGET_S = 900.0
_MAX_EPOCHS = 10000
_BENCHMARK_FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "reference_dataset.npz"


@pytest.fixture(scope="module")
def reference_data(tmp_path_factory):
    """Full-scale dataset generation through the CLI, timed for criterion 4."""
    out = tmp_path_factory.mktemp("acceptance") / "run"
    config = out.parent / "config.json"
    # defaults otherwise: 500/500/500, m=200; the pool is capped at the usable CPUs
    config.write_text(json.dumps({"out": str(out), "generation": {"workers": os.cpu_count() or 1}}))
    started = time.perf_counter()
    assert main(["generate", "--config", str(config)]) == 0
    seconds = time.perf_counter() - started
    sets = {role: load_dataset(out / f"{role}.ds") for role in _ROLES}
    return sets, seconds


def test_reference_data_matches_the_benchmark_fixture(reference_data):
    """The reference set equals the benchmark's stored copy, byte for byte."""
    sets, _ = reference_data
    with np.load(_BENCHMARK_FIXTURE) as stored:
        span = (float(stored["t0"]), float(stored["tf"]))
        for role in _ROLES:
            grid = sets[role].grid
            assert (grid.t0, grid.tf) == span, f"{role} grid spans ({grid.t0}, {grid.tf}), stored {span}"
            for name, got in (("params", sets[role].params), ("targets", sets[role].targets)):
                want = stored[f"{role}_{name}"]
                assert got.shape == want.shape, f"{role} {name}: shape {got.shape} != stored {want.shape}"
                assert got.tobytes() == want.tobytes(), f"{role} {name} differ from the stored fixture"


def _initial_net(train_set, kind):
    """The reference 400/400 net with the fixed weight seed."""
    sizes = [train_set.q, 400, 400, train_set.grid.m]
    return init_weights(sizes, kind, RngSeed(20250819, "weights"))


@pytest.fixture(scope="module")
def trained_models(reference_data):
    """One net per (method, transfer) pair on the reference data, timed."""
    sets, _ = reference_data
    tr = sets["train"]
    norm = Normalizer.from_training(tr.params, tr.targets)
    models = {}
    for method in ("cg", "gdx"):
        for kind in (TransferKind.PURELIN, TransferKind.HARDLIM):
            net = _initial_net(tr, kind)
            cfg = TrainConfig(method=method, max_epochs=_MAX_EPOCHS)
            started = time.perf_counter()
            model, record = train(net, norm, tr, sets["validation"], sets["test"], cfg)
            models[(method, kind)] = (model, record, time.perf_counter() - started)
    return models, norm


def test_loose_tolerance_trajectory_matches_tight_reference():
    """Criterion 1: working tolerances reproduce a tight self-reference."""
    spec = circuit_system()
    p = default_domain().midpoint()
    grid = TimeGrid.for_system(spec, m=200)
    working = solve_trajectory(spec, p, grid, ToleranceSettings(rtol=1e-4, atol=1e-6))
    reference = solve_trajectory(spec, p, grid, ToleranceSettings(rtol=1e-8, atol=1e-10))
    diff = l1_relative_error(working, reference, spec.t0, spec.tf)
    assert diff < 1e-3, f"discrete-L1 relative difference {diff:.3e} >= 1e-3"


def _fd_gradient(net, norm, params, targets, eps=1e-6):
    grads_w, grads_b = [], []
    for arrs, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr in arrs:
            g = np.zeros_like(arr)
            flat = arr.ravel()
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + eps
                hi = loss_mse(net, norm, params, targets)
                flat[idx] = keep - eps
                lo = loss_mse(net, norm, params, targets)
                flat[idx] = keep
                g.ravel()[idx] = (hi - lo) / (2.0 * eps)
            grads.append(g)
    return grads_w, grads_b


def _least_squares_floor(norm, train_set):
    """Lowest raw-unit train MSE of any affine map of the normalized inputs.

    A net with purelin hidden layers computes such a map, so no trainer can
    go below this value; hidden widths of at least q let it reach the value.
    """
    params = norm.normalize_in(train_set.params)
    design = np.column_stack([params, np.ones(params.shape[0])])
    coef, *_ = np.linalg.lstsq(design, train_set.targets, rcond=None)
    resid = design @ coef - train_set.targets
    return float(np.mean(resid * resid))


def test_backprop_gradient_matches_finite_differences():
    """Criterion 2: 20 random small nets per transfer kind vs central FD."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for kind in TransferKind:
        for _ in range(20):
            q = int(rng.integers(2, 5))
            h = int(rng.integers(3, 7))
            m = int(rng.integers(2, 6))
            net = init_weights([q, h, m], kind, RngSeed(int(rng.integers(2**31)), "weights"))
            params = rng.uniform(-2.0, 2.0, (4, q))
            targets = rng.standard_normal((4, m))
            norm = Normalizer(-np.ones(q), np.ones(q), targets.min(0) - 0.5, targets.max(0) + 0.5)
            got = gradient(net, norm, params, targets)
            want_w, want_b = _fd_gradient(net, norm, params, targets)
            if kind is TransferKind.HARDLIM:
                # step activations: only the output layer is differentiable
                pairs = [(got.weights[-1], want_w[-1]), (got.biases[-1], want_b[-1])]
            else:
                pairs = list(zip(got.weights + got.biases, want_w + want_b))
            diff = np.concatenate([np.ravel(g - w) for g, w in pairs])
            scale = max(float(np.max(np.abs(np.concatenate([np.ravel(w) for _, w in pairs])))), 1e-12)
            worst = max(worst, float(np.max(np.abs(diff))) / scale)
    assert worst < 1e-6, f"max relative gradient error {worst:.3e} >= 1e-6"


def test_linear_network_respects_convex_combinations():
    """Criterion 3: the purely linear end-to-end map is affine to 1e-10."""
    rng = np.random.default_rng(7)
    domain = default_domain()
    net = init_weights([4, 40, 40, 9], TransferKind.PURELIN, RngSeed(11, "weights"))
    norm = Normalizer(domain.lower, domain.upper, -50.0 * np.ones(9), 120.0 * np.ones(9))
    worst = 0.0
    for _ in range(100):
        p1 = rng.uniform(domain.lower, domain.upper)
        p2 = rng.uniform(domain.lower, domain.upper)
        lam = float(rng.uniform())
        mixed = forward(net, norm, lam * p1 + (1.0 - lam) * p2)
        split = lam * forward(net, norm, p1) + (1.0 - lam) * forward(net, norm, p2)
        rel = float(np.max(np.abs(mixed - split)) / max(np.max(np.abs(split)), 1e-30))
        worst = max(worst, rel)
    assert worst <= 1e-10, f"affinity violation {worst:.3e} > 1e-10"


def test_full_pipeline_error_band_and_budgets(reference_data, trained_models):
    """Criterion 4: full pipeline, linear transfer + conjugate gradients."""
    sets, generation_seconds = reference_data
    models, norm = trained_models
    model, record, training_seconds = models[("cg", TransferKind.PURELIN)]
    reports = {role: error_stats(model, norm, sets[role]) for role in _ROLES}
    mean_train = reports["train"].mean
    mean_test = reports["test"].mean
    train_set = sets["train"]
    floor = _least_squares_floor(norm, train_set)
    gap = (loss_mse(model, norm, train_set.params, train_set.targets) - floor) / floor
    print(
        f"mean relative errors: train {mean_train:.4f}, "
        f"validation {reports['validation'].mean:.4f}, test {mean_test:.4f}; "
        f"least-squares floor {floor:.5f}, optimality gap {gap:.2e}; "
        f"generation {generation_seconds:.0f} s, training {training_seconds:.0f} s, "
        f"{record.elapsed_epochs} epochs ({record.stop_reason.value})"
    )
    problems = []
    if not mean_test <= 0.20:
        problems.append(f"test-set mean relative error {mean_test:.4f} > 0.20")
    if not -1e-9 <= gap <= 1e-3:
        problems.append(
            f"train MSE lies {gap:.2e} relative to the least-squares floor {floor:.5f}, "
            f"outside [-1e-9, 1e-3]: below it the loss, the data split or the floor is "
            f"wrong; above it the trainer has not converged"
        )
    if not abs(mean_train - mean_test) < 0.05:
        problems.append(
            f"train/test means are unbalanced: |{mean_train:.4f} - {mean_test:.4f}| >= 0.05"
        )
    if generation_seconds > _GENERATION_BUDGET_S:
        problems.append(f"dataset generation took {generation_seconds:.0f} s > {_GENERATION_BUDGET_S:.0f} s")
    if training_seconds > _TRAINING_BUDGET_S:
        problems.append(f"training took {training_seconds:.0f} s > {_TRAINING_BUDGET_S:.0f} s")
    assert not problems, " | ".join(problems)


def test_step_activation_error_exceeds_linear(reference_data, trained_models):
    """Criterion 5: step-activation net is no more accurate than the linear one."""
    sets, _ = reference_data
    models, norm = trained_models
    test_set = sets["test"]
    e_hard = error_stats(models[("cg", TransferKind.HARDLIM)][0], norm, test_set).mean
    e_lin = error_stats(models[("cg", TransferKind.PURELIN)][0], norm, test_set).mean
    print(f"test-set mean relative error: hardlim {e_hard:.4f}, purelin {e_lin:.4f}")

    # soft companion: step activations should produce more oscillatory output
    pred_hard = forward(models[("cg", TransferKind.HARDLIM)][0], norm, test_set.params)
    pred_lin = forward(models[("cg", TransferKind.PURELIN)][0], norm, test_set.params)
    tv_hard = float(np.mean([total_variation(row) for row in pred_hard]))
    tv_lin = float(np.mean([total_variation(row) for row in pred_lin]))
    print(f"mean total variation: hardlim {tv_hard:.1f}, purelin {tv_lin:.1f}")
    if not tv_hard > tv_lin:
        warnings.warn(
            f"expected step-activation predictions to oscillate more: "
            f"total variation {tv_hard:.1f} vs {tv_lin:.1f}"
        )
    assert e_hard >= e_lin, f"hardlim mean error {e_hard:.4f} < purelin {e_lin:.4f}"


def test_conjugate_gradient_final_mse_beats_adaptive_descent(reference_data, trained_models):
    """Criterion 6: method ordering on final test MSE; epoch cap behaviour."""
    sets, _ = reference_data
    models, norm = trained_models
    test_set = sets["test"]
    problems = []
    for kind in (TransferKind.PURELIN, TransferKind.HARDLIM):
        mse = {}
        for method in ("cg", "gdx"):
            model, record, _ = models[(method, kind)]
            mse[method] = loss_mse(model, norm, test_set.params, test_set.targets)
            print(
                f"{method}/{kind.value}: final test MSE {mse[method]:.4f}, "
                f"{record.elapsed_epochs} epochs, stop {record.stop_reason.value}"
            )
        if not mse["cg"] <= mse["gdx"]:
            problems.append(
                f"{kind.value}: conjugate-gradient test MSE {mse['cg']:.4f} exceeds "
                f"adaptive-descent {mse['gdx']:.4f}"
            )

    # the stop must be justified: early_stop_check trips on the validation
    # history (epoch-0 value first) exactly at its last epoch
    train_set, valid_set = sets["train"], sets["validation"]
    kind = TransferKind.HARDLIM
    record = models[("gdx", kind)][1]
    patience = PATIENCE
    valid0 = loss_mse(_initial_net(train_set, kind), norm, valid_set.params, valid_set.targets)
    history = [valid0] + record.mse_valid
    justified = early_stop_check(history, patience) and not early_stop_check(history[:-1], patience)
    if not (
        record.stop_reason is StopReason.VALIDATION_STOP
        and record.elapsed_epochs < _MAX_EPOCHS
        and justified
    ):
        problems.append(
            f"adaptive descent with step activations stopped by {record.stop_reason.value} "
            f"at epoch {record.elapsed_epochs}; early_stop_check with patience {patience} "
            f"on its validation history does not place a validation stop there"
        )

    # the cap must be honoured: one epoch short of that stop, the same run
    # ends at the cap with the same validation history
    cap = record.elapsed_epochs - 1
    capped_cfg = TrainConfig(method="gdx", max_epochs=cap)
    _, capped = train(_initial_net(train_set, kind), norm, train_set, valid_set, test_set, capped_cfg)
    if not (
        capped.stop_reason is StopReason.MAX_EPOCHS
        and capped.elapsed_epochs == cap
        and capped.mse_valid == record.mse_valid[:cap]
    ):
        problems.append(
            f"adaptive descent capped at {cap} epochs stopped by {capped.stop_reason.value} "
            f"after {capped.elapsed_epochs} epochs, or its validation history departs from "
            f"the uncapped run's"
        )
    assert not problems, " | ".join(problems)


def test_relative_error_metric_closed_forms():
    """Criterion 7: the three closed-form metric values hold exactly."""
    truth = np.array([1.0, -2.0, 3.0])
    assert l1_relative_error(truth.copy(), truth, 0.0, 0.5) == 0.0
    # 1.1 x truth with every intermediate an exact double: each ratio is 0.1
    assert l1_relative_error(np.array([5.5, 11.0]), np.array([5.0, 10.0]), 0.0, 0.5) == 0.05
    assert l1_relative_error(np.array([3.0]), np.array([2.0]), 0.0, 0.5) == 0.25


def test_identical_seeds_reproduce_all_artifacts_bitwise(tmp_path):
    """Criterion 8: two end-to-end runs agree byte for byte."""
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        config = tmp_path / f"config_{tag}.json"
        config.write_text(
            json.dumps(
                {
                    "samples": {"train": 24, "validation": 12, "test": 12},
                    "network": {"hidden": [32], "transfer": "purelin"},
                    "training": {"method": "cg", "max_epochs": 300},
                    "out": str(out),
                }
            )
        )
        for command in ("generate", "train", "evaluate"):
            assert main([command, "--config", str(config)]) == 0
        outs.append(out)
    first, second = outs
    artifacts = [
        "train.ds",
        "validation.ds",
        "test.ds",
        "model.tjn",
        "training_log.csv",
        "report.txt",
        "errors_train.csv",
        "errors_validation.csv",
        "errors_test.csv",
    ]
    for name in artifacts:
        assert (first / name).read_bytes() == (second / name).read_bytes(), f"{name} differs"


def test_fixed_step_integrator_shows_second_order():
    """Criterion 9: halving h shrinks the endpoint error ~4x on x' = -x."""
    spec = decay_system(rate=1.0)
    exact = math.exp(-1.0)
    tol = ToleranceSettings(rtol=1e-12, atol=1e-14)
    e_coarse = abs(integrate_fixed_step(spec, None, 1.0 / 80, tol).states[-1, 0] - exact)
    e_fine = abs(integrate_fixed_step(spec, None, 1.0 / 160, tol).states[-1, 0] - exact)
    ratio = e_coarse / e_fine
    assert 3.4 <= ratio <= 4.6, f"error ratio {ratio:.3f} outside [3.4, 4.6]"
