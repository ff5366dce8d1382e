"""Full-batch training: conjugate gradient, one-step secant, adaptive gradient
descent with momentum; validation-based early stopping with best-snapshot
return; per-epoch MSE recording.

All methods minimize the raw-unit MSE on the training set.  The validation
set only steers stopping and snapshot selection; the test set is recorded for
reporting and never influences any decision.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import math
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .dataset import SampleSet
from .neuralnet import (
    NetworkGradient,
    NetworkParams,
    Normalizer,
    OutputFactors,
    TransferKind,
    check_sets,
    gradient,
    hidden_features,
    loss_mse,
)


class TrainMethod(enum.Enum):
    CG = "cg"
    OSS = "oss"
    GDX = "gdx"


class StopReason(enum.Enum):
    VALIDATION_STOP = "ValidationStop"
    MIN_STEP = "MinStep"
    MIN_GRADIENT = "MinGradient"
    MAX_EPOCHS = "MaxEpochs"


class NonFiniteLossError(RuntimeError):
    """Training diverged to a non-finite loss."""


class MinStepError(RuntimeError):
    """Line search collapsed below the step floor."""


# Fixed constants of the methods and the stopping rules.
PATIENCE = 6  # epochs above the best validation MSE before a validation stop
MIN_GRADIENT = 1e-7  # max-abs gradient below which training stops
MIN_STEP = 1e-12  # line-search step floor (CG, OSS)
MOMENTUM = 0.9  # GDX momentum
LR_INITIAL = 0.01  # GDX initial learning rate
LR_UP = 1.05  # GDX rate factor after a decrease
LR_DOWN = 0.7  # GDX rate factor after a rejected step
ERR_RATIO = 1.04  # GDX rejects a step whose loss exceeds this ratio


@dataclasses.dataclass
class TrainConfig:
    method: TrainMethod = TrainMethod.CG
    max_epochs: int = 10000

    def __post_init__(self):
        self.method = TrainMethod(self.method)
        # max_epochs = 0 is the documented zero-budget case
        epochs = self.max_epochs
        if not isinstance(epochs, int) or isinstance(epochs, bool) or epochs < 0:
            raise ValueError(f"max_epochs must be a non-negative integer, not {epochs!r}")


@dataclasses.dataclass
class TrainRecord:
    mse_train: List[float]
    mse_valid: List[float]
    mse_test: List[float]
    stop_reason: StopReason
    best_epoch: int

    @property
    def elapsed_epochs(self) -> int:
        return len(self.mse_train)


def pack(net: Union[NetworkParams, NetworkGradient]) -> np.ndarray:
    """Flatten all layer weights and biases into one vector."""
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def _view(template: NetworkParams, vec: np.ndarray) -> NetworkParams:
    """A network shaped like `template` whose arrays are views into `vec`,
    in pack order; nothing is copied."""
    need = sum(w.size + b.size for w, b in zip(template.weights, template.biases))
    if vec.size != need:
        raise ValueError(f"vector has {vec.size} entries, network needs {need}")
    weights, biases, pos = [], [], 0
    for w, b in zip(template.weights, template.biases):
        weights.append(vec[pos : pos + w.size].reshape(w.shape))
        pos += w.size
        biases.append(vec[pos : pos + b.size])
        pos += b.size
    return NetworkParams(weights, biases, template.hidden_transfer)


Objective = Callable[[np.ndarray], Tuple[float, Callable[[], np.ndarray]]]


@dataclasses.dataclass
class OptState:
    """Mutable state threaded through step_cg / step_oss / step_gdx.

    `objective(w)` returns the loss at w and a function that gives the
    gradient there from the pass of that same evaluation; w must not be
    overwritten before that function runs."""

    objective: Objective
    w: np.ndarray
    loss: float
    grad: np.ndarray
    direction: Optional[np.ndarray] = None
    grad_prev: Optional[np.ndarray] = None
    slope_prev: float = 0.0
    alpha_prev: float = 0.0
    lr: float = 0.0
    velocity: Optional[np.ndarray] = None
    iters: int = 0


def make_state(objective: Objective, w0: np.ndarray) -> OptState:
    """Initial optimizer state; raises NonFiniteLossError before any gradient
    is taken when the loss at w0 is not finite."""
    w0 = np.asarray(w0, dtype=np.float64).copy()
    loss, grad_at = objective(w0)
    if not math.isfinite(loss):
        raise NonFiniteLossError("initial loss is not finite")
    return OptState(
        objective=objective,
        w=w0,
        loss=loss,
        grad=grad_at(),
        lr=LR_INITIAL,
        velocity=np.zeros_like(w0),
    )


def _line_search(
    objective: Objective,
    w: np.ndarray,
    d: np.ndarray,
    loss0: float,
    slope0: float,
    alpha0: float,
) -> Tuple[float, float, np.ndarray, Callable[[], np.ndarray]]:
    """Backtracking with quadratic interpolation under the Armijo condition.

    Returns (alpha, loss at alpha, the array w + alpha * d that the
    objective was given, its gradient function) of the accepted point.
    Raises MinStepError when the step collapses below MIN_STEP.  On an
    accepted trial one interpolation step refines toward the 1-D minimum,
    which is exact for quadratic objectives.
    """
    c1 = 1e-4
    alpha = max(alpha0, MIN_STEP)
    for _ in range(60):
        w1 = w + alpha * d
        f1, grad1 = objective(w1)
        # the minimizer of the parabola through loss0, slope0 and f1
        denom = 2.0 * (f1 - loss0 - slope0 * alpha)
        aq = -slope0 * alpha * alpha / denom if math.isfinite(denom) and denom > 0.0 else math.nan
        if math.isfinite(f1) and f1 <= loss0 + c1 * alpha * slope0:
            if math.isfinite(aq) and 0.1 * alpha <= aq <= 10.0 * alpha and aq != alpha:
                wq = w + aq * d
                fq, grad_q = objective(wq)
                if math.isfinite(fq) and fq < f1 and fq <= loss0 + c1 * aq * slope0:
                    return aq, fq, wq, grad_q
            return alpha, f1, w1, grad1
        alpha = float(np.clip(aq if math.isfinite(aq) else 0.5 * alpha, 0.1 * alpha, 0.5 * alpha))
        if alpha < MIN_STEP:
            raise MinStepError(f"line-search step {alpha:.3e} below floor {MIN_STEP:.3e}")
    raise MinStepError("line search exhausted its evaluation budget")


def _descend(state: OptState, d: np.ndarray) -> None:
    """Shared line-search descent used by CG and OSS."""
    g = state.grad
    slope = float(d @ g)
    if slope >= 0.0:
        d = -g
        slope = float(d @ g)
    if slope == 0.0:
        raise MinStepError("zero gradient: no descent direction")
    if state.alpha_prev > 0.0 and state.slope_prev < 0.0:
        # warm start scaled so the first trial matches the previous decrease
        alpha0 = state.alpha_prev * min(10.0, max(0.1, state.slope_prev / slope))
    else:
        alpha0 = 1.0 / max(1.0, float(np.max(np.abs(g))))
    alpha, state.loss, state.w, grad_at = _line_search(state.objective, state.w, d, state.loss, slope, alpha0)
    state.grad_prev = g
    state.direction = d
    state.slope_prev = slope
    state.alpha_prev = alpha
    state.grad = grad_at()
    state.iters += 1


def step_cg(state: OptState) -> OptState:
    """Polak-Ribiere conjugate gradient step with periodic restarts."""
    g = state.grad
    restart = state.direction is None or state.iters % g.size == 0
    if restart:
        d = -g
    else:
        gp = state.grad_prev
        beta = max(0.0, float(g @ (g - gp)) / float(gp @ gp))
        d = -g + beta * state.direction
    _descend(state, d)
    return state


def step_oss(state: OptState) -> OptState:
    """One-step secant step: memoryless quasi-Newton from the last step."""
    g = state.grad
    if state.direction is None:
        d = -g
    else:
        s = state.alpha_prev * state.direction  # the last step
        y = g - state.grad_prev
        sy = float(s @ y)
        if abs(sy) < 1e-300:
            d = -g
        else:
            b_c = float(s @ g) / sy
            a_c = -(1.0 + float(y @ y) / sy) * b_c + float(y @ g) / sy
            d = -g + a_c * s + b_c * y
    _descend(state, d)
    return state


def step_gdx(state: OptState) -> OptState:
    """Gradient descent with momentum and adaptive learning rate.

    A candidate whose loss exceeds ERR_RATIO times the current loss is
    rejected: weights stay, the rate shrinks, momentum resets.  Accepted
    candidates that decrease the loss grow the rate.
    """
    dw = MOMENTUM * state.velocity - (1.0 - MOMENTUM) * state.lr * state.grad
    w_try = state.w + dw
    f_new, grad_at = state.objective(w_try)
    if not math.isfinite(f_new) or f_new > ERR_RATIO * state.loss:
        state.lr *= LR_DOWN
        state.velocity = np.zeros_like(state.w)
    else:
        state.w = w_try
        state.velocity = dw
        if f_new < state.loss:
            state.lr *= LR_UP
        state.loss = f_new
        state.grad = grad_at()
    state.iters += 1
    return state


_STEPPERS = {
    TrainMethod.CG: step_cg,
    TrainMethod.OSS: step_oss,
    TrainMethod.GDX: step_gdx,
}


@dataclasses.dataclass
class _Streak:
    """Running best validation MSE and the streak of epochs above it."""

    best: float = math.inf
    streak: int = 0

    def update(self, v: float) -> bool:
        """Feed the next validation MSE; True when it is a new best.  A new
        best or a tie resets the streak."""
        if v < self.best:
            self.best = v
            self.streak = 0
            return True
        self.streak = self.streak + 1 if v > self.best else 0
        return False


def train(
    net: NetworkParams,
    norm: Normalizer,
    train_set: SampleSet,
    valid_set: SampleSet,
    test_set: SampleSet,
    cfg: TrainConfig,
) -> Tuple[NetworkParams, TrainRecord]:
    """Run the configured method full-batch and return the weights of the
    epoch with the lowest validation MSE (the initial weights count as epoch 0).
    All three sets are required; the test MSE is recorded and steers nothing.

    The sets must pass `check_sets` against the net (non-empty, the net's
    widths, the training set's time span) and be finite (NonFiniteLossError
    naming its role); both are checked before anything is evaluated.

    Trained layers that are affine on a fixed input are evaluated on the QR
    factors of [H, 1] (`OutputFactors`), computed once per set: the squared
    loss depends on the set only through them, and a loss or gradient costs
    m min(k, N+1) (N+1) multiply-adds past the chain prefixes, never more
    than the k m (N+1) of a pass over the rows.  H is the normalized input
    for a purelin net of any depth or a net without hidden layers.  With
    hard-limit hidden layers every hidden gradient is identically zero, so
    only the output layer is optimized, and H is the fixed hidden
    activations; the iterates match full-space optimization exactly in real
    arithmetic and to rounding in floats.  QR and not the normal equations:
    [H, 1] is often rank-deficient, and a Gram form would lose the accuracy
    of a small loss.

    A tansig net with hidden layers is evaluated on the rows, through the
    pass that `forward` takes on them.  Losses and gradients run on views
    into the optimizer's flat weight vector.  Each train-set loss evaluation
    returns the function that gives the gradient there from the same
    forward pass, so a gradient runs no forward pass of its own.
    """
    check_sets(net, train_set, valid_set, test_set)

    sets = {"train": train_set, "valid": valid_set, "test": test_set}
    for s in sets.values():
        if not (np.isfinite(s.params).all() and np.isfinite(s.targets).all()):
            raise NonFiniteLossError(f"{s.role} set has non-finite values")
    frozen = net.n_layers - 1 if net.hidden_transfer is TransferKind.HARDLIM else 0  # untrained hidden layers
    # `work` only lends its shapes to the views; the caller's arrays stay as they are
    work = NetworkParams(net.weights[frozen:], net.biases[frozen:], net.hidden_transfer)
    inputs = {
        key: OutputFactors.of(hidden_features(net, norm, s.params) if frozen else norm.normalize_in(s.params),
                              norm, s.targets) if work.affine else s.params
        for key, s in sets.items()
    }

    def mse_at(w: np.ndarray, key: str, keep: Optional[list] = None) -> float:
        return loss_mse(_view(work, w), norm, inputs[key], sets[key].targets, keep=keep)

    def objective(w: np.ndarray) -> Tuple[float, Callable[[], np.ndarray]]:
        kept: list = []
        loss = mse_at(w, "train", kept)
        return loss, lambda: pack(gradient(_view(work, w), norm, inputs["train"], train_set.targets, fp=kept[0]))

    state = make_state(objective, pack(work))
    valid0 = mse_at(state.w, "valid")
    if not math.isfinite(valid0):
        raise NonFiniteLossError("initial validation loss is not finite")

    rule = _Streak()
    rule.update(valid0)
    best_w = state.w.copy()
    best_epoch = 0
    stop = StopReason.MAX_EPOCHS
    mse_train: List[float] = []
    mse_valid: List[float] = []
    mse_test: List[float] = []
    stepper = _STEPPERS[cfg.method]

    for epoch in range(1, cfg.max_epochs + 1):
        if float(np.max(np.abs(state.grad))) < MIN_GRADIENT:
            stop = StopReason.MIN_GRADIENT
            break
        try:
            stepper(state)
        except MinStepError:
            stop = StopReason.MIN_STEP
            break
        v = mse_at(state.w, "valid")
        te = mse_at(state.w, "test")
        if not math.isfinite(v):  # the steppers keep the training loss finite
            raise NonFiniteLossError(f"non-finite validation loss at epoch {epoch}")
        mse_train.append(state.loss)
        mse_valid.append(v)
        mse_test.append(te)
        if rule.update(v):
            best_w = state.w.copy()
            best_epoch = epoch
        if rule.streak >= PATIENCE:
            stop = StopReason.VALIDATION_STOP
            break

    record = TrainRecord(mse_train, mse_valid, mse_test, stop, best_epoch)
    best = _view(work, best_w)
    result = NetworkParams(
        net.weights[:frozen] + best.weights, net.biases[:frozen] + best.biases, net.hidden_transfer
    )
    return result.copy(), record


def write_training_log(record: TrainRecord, path: Union[str, Path]) -> None:
    """CSV log: one row per epoch, stop reason and best epoch as a footer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mse_train", "mse_valid", "mse_test"])
        for i in range(record.elapsed_epochs):
            writer.writerow(
                [i + 1, repr(record.mse_train[i]), repr(record.mse_valid[i]), repr(record.mse_test[i])]
            )
        fh.write(f"# stop_reason,{record.stop_reason.value}\n")
        fh.write(f"# best_epoch,{record.best_epoch}\n")
