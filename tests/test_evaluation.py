"""Relative-error metric, statistics reports, and oscillation diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsurrogate.dataset import RngSeed, SampleSet
from trajsurrogate.evaluation import (
    ErrorReport,
    ZeroDenominatorError,
    error_stats,
    format_error_table,
    l1_relative_error,
    total_variation,
    write_report_csv,
)
from trajsurrogate.integrator import TimeGrid
from trajsurrogate.neuralnet import Normalizer, TransferKind, forward, init_weights


def test_exact_prediction_gives_zero():
    truth = np.array([1.0, -2.0, 3.0])
    assert l1_relative_error(truth.copy(), truth, 0.0, 0.5) == 0.0


def test_uniform_ten_percent_offset():
    truth = np.array([2.0, -4.0, 8.0, 5.0])
    pred = 1.1 * truth
    got = l1_relative_error(pred, truth, 0.0, 0.5)
    assert math.isclose(got, 0.05, rel_tol=1e-12)


def test_single_point_value():
    assert l1_relative_error(np.array([3.0]), np.array([2.0]), 0.0, 0.5) == 0.25


def test_zero_denominator_reports_index():
    truth = np.array([1.0, 0.0, 2.0])
    pred = np.array([1.0, 1.0, 2.0])
    with pytest.raises(ZeroDenominatorError) as err:
        l1_relative_error(pred, truth, 0.0, 0.5)
    assert err.value.index == 1


def test_rows_reduce_along_the_last_axis():
    rng = np.random.default_rng(2)
    truth = rng.uniform(0.5, 2.0, (3, 7))
    pred = truth + rng.uniform(-0.1, 0.1, (3, 7))
    rows = l1_relative_error(pred, truth, 0.0, 0.5)
    assert rows.shape == (3,)
    assert rows.tobytes() == np.array([l1_relative_error(p, t, 0.0, 0.5) for p, t in zip(pred, truth)]).tobytes()
    # the first zero in row-major order names its row and grid index
    truth[1, 4] = truth[2, 0] = 0.0
    with pytest.raises(ZeroDenominatorError) as err:
        l1_relative_error(pred, truth, 0.0, 0.5)
    assert (err.value.sample, err.value.index) == (1, 4)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        l1_relative_error(np.ones(3), np.ones(4), 0.0, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    flip=st.booleans(),
)
def test_error_is_scale_invariant(scale, flip):
    rng = np.random.default_rng(0)
    truth = rng.uniform(0.5, 2.0, 7)
    pred = truth + rng.uniform(-0.1, 0.1, 7)
    c = -scale if flip else scale
    a = l1_relative_error(pred, truth, 0.0, 0.5)
    b = l1_relative_error(c * pred, c * truth, 0.0, 0.5)
    assert math.isclose(a, b, rel_tol=1e-9)


def test_total_variation_examples():
    assert total_variation(np.full(5, 3.7)) == 0.0
    assert total_variation(np.array([0.0, 1.0, 0.0, 1.0])) == 3.0
    mono = np.array([1.0, 2.0, 5.0, 9.0])
    assert total_variation(mono) == abs(mono[-1] - mono[0])
    with pytest.raises(ValueError):
        total_variation(np.array([1.0]))


def make_set_and_net(seed=0, k=6, q=2, m=5):
    rng = np.random.default_rng(seed)
    net = init_weights([q, 4, m], TransferKind.TANSIG, RngSeed(seed, "weights"))
    params = rng.uniform(-1.0, 1.0, (k, q))
    norm = Normalizer.identity(q, m)
    targets = forward(net, norm, params) + rng.uniform(0.5, 1.0, (k, m))
    grid = TimeGrid(0.0, 0.5, m)
    return net, norm, SampleSet("test", params, targets, grid)


def test_perfect_surrogate_has_zero_stats():
    net, norm, _ = make_set_and_net()
    rng = np.random.default_rng(1)
    params = rng.uniform(-1.0, 1.0, (4, 2))
    targets = forward(net, norm, params)
    sample_set = SampleSet("test", params, targets, TimeGrid(0.0, 0.5, 5))
    report = error_stats(net, norm, sample_set)
    assert report.mean == 0.0
    assert report.stdev == 0.0
    assert report.mse == 0.0
    assert report.role == "test"


def test_stats_match_recomputation():
    net, norm, sample_set = make_set_and_net(seed=3)
    report = error_stats(net, norm, sample_set)
    t0, tf = sample_set.grid.t0, sample_set.grid.tf
    preds = forward(net, norm, sample_set.params)
    errors = np.array(
        [l1_relative_error(preds[i], sample_set.targets[i], t0, tf) for i in range(sample_set.k)]
    )
    # the row-wise sum is the per-sample metric to the bit
    assert report.errors.tobytes() == errors.tobytes()
    # one-row forward passes differ from the batched one in the last bits only
    one_row = np.array(
        [
            l1_relative_error(forward(net, norm, sample_set.params[i]), sample_set.targets[i], t0, tf)
            for i in range(sample_set.k)
        ]
    )
    assert np.max(np.abs(report.errors - one_row)) < 1e-12
    assert math.isclose(report.mean, float(errors.mean()), rel_tol=1e-12)
    # population convention: divide by k, not k-1
    assert math.isclose(report.stdev, float(errors.std(ddof=0)), rel_tol=1e-12)
    # one minimum-magnitude diagnostic per sample row
    want_min = np.min(np.abs(sample_set.targets), axis=1)
    assert np.array_equal(np.asarray(report.min_abs_target), want_min)


def test_stats_zero_denominator_names_sample():
    net, norm, sample_set = make_set_and_net(seed=4)
    sample_set.targets[2, 3] = 0.0
    # first in column-major order, second in row-major order
    sample_set.targets[4, 0] = 0.0
    with pytest.raises(ZeroDenominatorError) as err:
        error_stats(net, norm, sample_set)
    assert err.value.sample == 2
    assert err.value.index == 3


def test_stats_reject_prediction_width_mismatch():
    net, norm, sample_set = make_set_and_net(seed=6, m=5)
    narrow = SampleSet("test", sample_set.params, sample_set.targets[:, :4], TimeGrid(0.0, 0.5, 4))
    with pytest.raises(ValueError, match="width"):
        error_stats(net, norm, narrow)


def test_report_mean_of_two_known_errors():
    # one-layer identity net: prediction equals the parameter vector
    net = init_weights([2, 2], TransferKind.PURELIN, RngSeed(0, "weights"))
    net.weights[0] = np.eye(2)
    net.biases[0] = np.zeros(2)
    norm = Normalizer.identity(2, 2)
    params = np.array([[1.1, 1.1], [1.3, 1.3]])
    targets = np.ones((2, 2))
    sample_set = SampleSet("train", params, targets, TimeGrid(0.0, 1.0, 2))
    report = error_stats(net, norm, sample_set)
    assert math.isclose(report.errors[0], 0.1, rel_tol=1e-12)
    assert math.isclose(report.errors[1], 0.3, rel_tol=1e-12)
    assert math.isclose(report.mean, 0.2, rel_tol=1e-12)


def test_report_csv_round_trip(tmp_path):
    net, norm, sample_set = make_set_and_net(seed=5)
    report = error_stats(net, norm, sample_set)
    path = tmp_path / "errors.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample,error,min_abs_target"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == sample_set.k
    back = np.array([float(r[1]) for r in rows])
    assert np.array_equal(back, np.asarray(report.errors))
    mean = back.mean()
    assert math.isclose(mean, report.mean, rel_tol=1e-12)


def test_error_table_layout():
    reports = {}
    for label, base in (("hardlim/cg", 0.1), ("purelin/cg", 0.05)):
        reports[label] = {
            role: ErrorReport(
                role=role,
                errors=[base, base + 0.02],
                mean=base + 0.01,
                stdev=0.01,
                mse=1.0,
                min_abs_target=0.5,
            )
            for role in ("train", "validation", "test")
        }
    table = format_error_table(reports)
    lines = table.splitlines()
    assert "mean" in lines[0]
    header = next(l for l in lines if "train" in l)
    assert header.index("train") < header.index("validation") < header.index("test")
    assert "st.dev." in table
    assert "hardlim/cg" in table and "purelin/cg" in table
