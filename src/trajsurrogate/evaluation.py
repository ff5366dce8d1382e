"""Error metric and statistics for surrogate quality reports.

The per-sample error is the discrete L1-in-time relative deviation between a
predicted and a reference trajectory; reports aggregate it over a sample set
together with the raw-unit MSE.  A total-variation diagnostic quantifies how
oscillatory predictions are.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from ._container import write_csv
from .dataset import ROLES, SampleSet
from .neuralnet import NetworkParams, Normalizer, check_sets, forward


class ZeroDenominatorError(ValueError):
    """A reference trajectory value is exactly zero at a grid point."""

    def __init__(self, index: int, sample: int = -1):
        where = f"sample {sample}, " if sample >= 0 else ""
        super().__init__(f"reference trajectory is zero at {where}grid index {index}")
        self.index = index
        self.sample = sample


@dataclasses.dataclass(frozen=True)
class ErrorReport:
    """Per-sample errors and their aggregates for one sample set."""

    role: str
    errors: np.ndarray            # (k,) per-sample relative errors
    mean: float
    stdev: float                  # population convention (divide by k)
    mse: float                    # raw-unit mean squared error
    min_abs_target: np.ndarray    # (k,) smallest |y| per sample, flags near-zeros


def l1_relative_error(pred: np.ndarray, truth: np.ndarray, t0: float, tf: float) -> Union[float, np.ndarray]:
    """Time-weighted sum of pointwise relative deviations along the last axis.

    E = (tf - t0)/m * sum |pred_l - truth_l| / |truth_l|; over [0, 0.5] this
    is half the average pointwise relative error.  An (m,) trajectory gives a
    float, k trajectories as (k, m) rows give the (k,) errors.  Exact zeros
    in the reference raise ZeroDenominatorError for the first one in
    row-major order rather than being regularized.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or truth.ndim not in (1, 2):
        raise ValueError(f"pred {pred.shape} and truth {truth.shape} must share an (m,) or (k, m) shape")
    if truth.size == 0:
        raise ValueError("empty trajectories")
    zeros = np.argwhere(truth == 0.0)
    if zeros.size:
        raise ZeroDenominatorError(int(zeros[0, -1]), sample=int(zeros[0, 0]) if truth.ndim == 2 else -1)
    errors = (tf - t0) / truth.shape[-1] * np.sum(np.abs(pred - truth) / np.abs(truth), axis=-1)
    return float(errors) if truth.ndim == 1 else errors


def total_variation(traj: np.ndarray) -> float:
    """Sum of absolute successive differences along the trajectory."""
    traj = np.asarray(traj, dtype=np.float64).ravel()
    if traj.shape[0] < 2:
        raise ValueError("total variation needs at least 2 points")
    return float(np.sum(np.abs(np.diff(traj))))


def error_stats(net: NetworkParams, norm: Normalizer, sample_set: SampleSet) -> ErrorReport:
    """Evaluate the surrogate on every sample and aggregate the errors.

    The set must pass `check_sets` against the net.  ``errors`` is
    l1_relative_error of the (k, m) predictions and targets, so row i is
    l1_relative_error of sample i, to the bit.
    """
    check_sets(net, sample_set)
    preds = forward(net, norm, sample_set.params)
    targets = sample_set.targets
    errors = l1_relative_error(preds, targets, sample_set.grid.t0, sample_set.grid.tf)
    diff = preds - targets
    return ErrorReport(
        role=sample_set.role,
        errors=errors,
        mean=float(np.mean(errors)),
        stdev=float(np.std(errors)),
        mse=float(np.mean(diff * diff)),
        min_abs_target=np.min(np.abs(targets), axis=1),
    )


def write_report_csv(report: ErrorReport, path: Union[str, Path]) -> None:
    """Per-sample errors, recomputable into the aggregates."""
    rows = zip(range(report.errors.size), report.errors, report.min_abs_target)
    write_csv(path, ["sample", "error", "min_abs_target"], rows)


def format_error_table(reports: Dict[str, Dict[str, ErrorReport]]) -> str:
    """Text table: one mean block and one st.dev. block, nets as rows and
    the three sample sets as columns."""
    label_width = max([len(label) for label in reports] + [8])
    header = "  ".join([" " * label_width] + [f"{r:>12}" for r in ROLES])
    lines: List[str] = []
    for block, attr in (("mean", "mean"), ("st.dev.", "stdev")):
        lines.append(block)
        lines.append(header)
        for label, by_role in reports.items():
            cells = [f"{getattr(by_role[r], attr):>12.3f}" for r in ROLES]
            lines.append("  ".join([f"{label:<{label_width}}"] + cells))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
