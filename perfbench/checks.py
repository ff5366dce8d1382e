"""Correctness checks made apart from the program.

Each check returns a list of failure messages (empty when the outputs are
correct).  The oracles here - the forward pass, the least-squares floors, the
relative L1 metric and the training-log reader - are written from the
definitions in the program's documentation and use NumPy only, so a fault
in the program's own versions shows as a disagreement.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CRITERION1 = 1e-3        # acceptance criterion 1's tolerance against a tight reference
MEAN_ERR_MAX = 0.20      # acceptance bound on a set's mean relative L1 error
FLOOR_GAP = (-1e-9, 1e-3)
SAME_RTOL = 1e-10        # "equal" for two float64 reductions of the same sum


def normalize(z, lo, hi):
    span = hi - lo
    return np.where(span > 0.0, 2.0 * (z - lo) / np.where(span > 0.0, span, 1.0) - 1.0, 0.0)


def denormalize(u, lo, hi):
    span = hi - lo
    return np.where(span > 0.0, lo + (u + 1.0) * span / 2.0, lo)


_TRANSFER = {
    "tansig": np.tanh,
    "hardlim": lambda s: (s >= 0.0).astype(np.float64),
    "purelin": lambda s: s,
}


def hidden_activations(net, norm, params):
    """Last hidden layer of the net on a (k, q) batch."""
    act = normalize(np.atleast_2d(params), norm.in_min, norm.in_max)
    f = _TRANSFER[net.hidden_transfer.value]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        act = f(act @ w.T + b)
    return act


def predict(net, norm, params):
    """The surrogate's output on a (k, q) batch, from the weights alone."""
    out = hidden_activations(net, norm, params) @ net.weights[-1].T + net.biases[-1]
    return denormalize(out, norm.out_min, norm.out_max)


def mse(pred, targets) -> float:
    diff = pred - targets
    return float(np.mean(diff * diff))


def l1_errors(pred, targets, t0: float, tf: float) -> np.ndarray:
    """Time-weighted relative L1 error per row: (tf - t0)/m * sum |p - y|/|y|."""
    m = targets.shape[1]
    return (tf - t0) / m * np.sum(np.abs(pred - targets) / np.abs(targets), axis=1)


def least_squares_floor(features, targets) -> float:
    """Lowest train MSE of any affine map of `features`."""
    design = np.column_stack([features, np.ones(features.shape[0])])
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return mse(design @ coef, targets)


def read_training_log(path: Path) -> dict:
    """The per-epoch MSE columns of a training_log.csv."""
    cols = {"mse_train": [], "mse_valid": [], "mse_test": []}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row[0] != "epoch" and not row[0].startswith("#"):
                for key, value in zip(cols, row[1:]):
                    cols[key].append(float(value))
    return {k: np.array(v) for k, v in cols.items()}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SAME_RTOL * max(abs(a), abs(b))


# --- generate ---------------------------------------------------------------

def check_generated(params, targets, lower, upper, m: int) -> list:
    """Every row has shape (k, m), finite values and parameters in the domain."""
    problems = []
    if targets.shape != (params.shape[0], m):
        problems.append(f"targets shape {targets.shape}, expected ({params.shape[0]}, {m})")
    if not np.all(np.isfinite(targets)):
        problems.append("non-finite target values")
    if not np.all((params >= lower) & (params <= upper)):
        problems.append("parameter rows outside the domain")
    return problems


def peak_deviations(rows, references) -> np.ndarray:
    """Largest deviation of each row from its reference, relative to the reference's peak."""
    rows, references = np.asarray(rows), np.asarray(references)
    return np.max(np.abs(rows - references), axis=1) / np.max(np.abs(references), axis=1)


def check_against_reference(rows, references) -> list:
    """The criterion-1 tolerance, applied to the deviation relative to each
    row's peak.  The pointwise-relative L1 of criterion 1 is not used here:
    where the QoI passes close to zero at a grid point it divides by almost
    nothing, and correct working-tolerance rows then exceed 1e-3."""
    return [f"row {i}: deviation {d:.3g} of the peak from the reference exceeds {CRITERION1:g}"
            for i, d in enumerate(peak_deviations(rows, references)) if not d < CRITERION1]


# --- train ------------------------------------------------------------------

def check_fit(fit: str, net, norm, reported_train_mse: float, log: dict, sets: dict,
              initial=None) -> list:
    """Checks every fit must pass, plus the one that fits its method.

    `reported_train_mse` is the program's own figure, stored with the model.
    `initial` is the net the fit started from; `gdx-hardlim` needs it, since
    its hidden layers must not move.
    """
    problems = []
    (tr_p, tr_y), (va_p, va_y) = sets["train"], sets["validation"]
    valid_mse = mse(predict(net, norm, va_p), va_y)
    best_logged = float(np.min(log["mse_valid"])) if log["mse_valid"].size else np.nan
    if not _close(valid_mse, best_logged):
        problems.append(f"{fit}: saved model has validation MSE {valid_mse!r}, "
                        f"the log's best is {best_logged!r}")
    train_mse = mse(predict(net, norm, tr_p), tr_y)
    if not _close(train_mse, reported_train_mse):
        problems.append(f"{fit}: saved model has train MSE {train_mse!r}, "
                        f"the program reports {reported_train_mse!r}")
    if fit == "cg-purelin":
        floor = least_squares_floor(normalize(tr_p, norm.in_min, norm.in_max), tr_y)
        gap = (reported_train_mse - floor) / floor
        if not FLOOR_GAP[0] <= gap <= FLOOR_GAP[1]:
            problems.append(f"{fit}: gap {gap:.3g} to the least-squares floor outside {FLOOR_GAP}")
    elif fit == "gdx-hardlim":
        # hard-limit layers have no gradient, so only the output layer trains
        hidden = zip(net.weights[:-1] + net.biases[:-1],
                     initial.weights[:-1] + initial.biases[:-1])
        if not all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in hidden):
            problems.append(f"{fit}: saved hidden layers differ from the initial ones")
        floor = least_squares_floor(hidden_activations(initial, norm, tr_p), tr_y)
        if reported_train_mse < floor * (1.0 - 1e-9):
            problems.append(f"{fit}: train MSE {reported_train_mse:.6g} below the floor "
                            f"{floor:.6g} on the initial hidden features")
    elif fit == "oss-tansig":
        rises = np.flatnonzero(np.diff(log["mse_train"]) > 0.0)
        if rises.size:
            problems.append(f"{fit}: train MSE rises after epoch {rises[0] + 1}")
    return problems


def check_error_report(fit: str, net, norm, report, test, span) -> list:
    """The program's error_stats against this module's L1 computation."""
    own = l1_errors(predict(net, norm, test[0]), test[1], *span)
    problems = []
    if report.errors.shape != own.shape or not np.allclose(report.errors, own, rtol=1e-9, atol=0.0):
        problems.append(f"{fit}: error_stats disagrees with the relative L1 recomputed here")
    if not report.mean <= MEAN_ERR_MAX:
        problems.append(f"{fit}: test mean error {report.mean:.4g} above {MEAN_ERR_MAX}")
    return problems


# --- surrogate --------------------------------------------------------------

def check_forward(net, norm, points, batch_out, single_out=None) -> list:
    """`forward` on a batch against this module's pass and, when given, the
    outputs of one-row calls against the batched call on the same rows."""
    problems = []
    scale = float(np.max(np.abs(norm.out_max - norm.out_min))) or 1.0
    own = predict(net, norm, points)
    if batch_out.shape != own.shape or np.max(np.abs(batch_out - own)) > 1e-12 * scale:
        problems.append("batched forward disagrees with the NumPy forward pass")
    if single_out is None:
        return problems
    single_out = np.asarray(single_out)
    if single_out.shape != own.shape or np.max(np.abs(single_out - batch_out)) > 1e-12 * scale:
        problems.append("one-row forward calls disagree with the batched call on the same rows")
    return problems


def check_round_trip(net, norm, path: Path, load) -> list:
    """The model read back with `load` equals the one written, bit for bit."""
    try:
        net2, norm2, _ = load(path)
    except (RuntimeError, ValueError) as exc:
        return [f"saved model does not load: {exc}"]
    same = (net.hidden_transfer == net2.hidden_transfer
            and len(net.weights) == len(net2.weights)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(net.weights + net.biases, net2.weights + net2.biases))
            and all(getattr(norm, k).tobytes() == getattr(norm2, k).tobytes()
                    for k in ("in_min", "in_max", "out_min", "out_max")))
    return [] if same else ["model changed in a save/load round trip"]
