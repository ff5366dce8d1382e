"""Feedforward network: affine layers, transfer functions, exact gradients.

The surrogate maps a parameter vector through min-max input normalization,
J-1 hidden affine layers each followed by a componentwise transfer, a final
affine output layer, and target denormalization.  Loss and gradients are
computed in original target units so reported MSE magnitudes are comparable
across normalization choices.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import struct
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._container import Reader, pack_str
from .dataset import RngSeed
from .dynsys import DimensionMismatchError

_MAGIC = b"TJNN"
_VERSION = 1


class ModelFormatError(RuntimeError):
    """Raised on malformed model files or version mismatch."""


class TransferKind(enum.Enum):
    TANSIG = "tansig"
    HARDLIM = "hardlim"
    PURELIN = "purelin"


def transfer(kind: TransferKind, x):
    """Componentwise transfer: works on scalars and arrays alike."""
    x = np.asarray(x, dtype=np.float64)
    if kind is TransferKind.TANSIG:
        # 2/(1+e^(-2x)) - 1, evaluated overflow-free on both half-lines
        z = np.exp(-2.0 * np.abs(x))
        return np.sign(x) * (1.0 - z) / (1.0 + z)
    if kind is TransferKind.HARDLIM:
        return np.where(x >= 0.0, 1.0, 0.0)
    return x


def transfer_derivative(kind: TransferKind, activation):
    """Derivative expressed through the activation value a = transfer(x)."""
    a = np.asarray(activation, dtype=np.float64)
    if kind is TransferKind.TANSIG:
        return 1.0 - a * a
    if kind is TransferKind.HARDLIM:
        # piecewise constant: zero everywhere, so hidden layers never learn
        return np.zeros_like(a)
    return np.ones_like(a)


@dataclasses.dataclass
class NetworkParams:
    """Affine layer chain A_j, b_j with one transfer kind on hidden layers."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    hidden_transfer: TransferKind

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must be non-empty and aligned")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64).ravel() for b in self.biases]
        for j, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape[0] != w.shape[0]:
                raise ValueError(f"layer {j}: weight {w.shape} and bias {b.shape} disagree")
            if j > 0 and w.shape[1] != self.weights[j - 1].shape[0]:
                raise ValueError(f"layer {j}: input width {w.shape[1]} breaks the chain")

    @property
    def sizes(self) -> List[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.hidden_transfer
        )


@dataclasses.dataclass
class NetworkGradient:
    """Gradient of the loss, aligned entry-for-entry with NetworkParams."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]


@dataclasses.dataclass(frozen=True)
class Normalizer:
    """Componentwise min-max maps onto [-1, 1] from training-set statistics.

    Components with zero range normalize to 0 and invert to the constant.
    """

    in_min: np.ndarray
    in_max: np.ndarray
    out_min: np.ndarray
    out_max: np.ndarray

    def __post_init__(self):
        for name in ("in_min", "in_max", "out_min", "out_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
        if self.in_min.shape != self.in_max.shape or self.out_min.shape != self.out_max.shape:
            raise ValueError("min/max shapes disagree")
        if np.any(self.in_max < self.in_min) or np.any(self.out_max < self.out_min):
            raise ValueError("max must not fall below min")

    @classmethod
    def from_training(cls, params: np.ndarray, targets: np.ndarray) -> "Normalizer":
        params = np.atleast_2d(params)
        targets = np.atleast_2d(targets)
        return cls(params.min(0), params.max(0), targets.min(0), targets.max(0))

    @classmethod
    def identity(cls, q: int, m: int) -> "Normalizer":
        ones = np.ones(q)
        ones_m = np.ones(m)
        return cls(-ones, ones, -ones_m, ones_m)

    @staticmethod
    def _fwd(z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        span = hi - lo
        safe = np.where(span > 0.0, span, 1.0)
        return np.where(span > 0.0, 2.0 * (z - lo) / safe - 1.0, 0.0)

    @staticmethod
    def _inv(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        span = hi - lo
        return np.where(span > 0.0, lo + (u + 1.0) * span / 2.0, lo)

    def normalize_in(self, p: np.ndarray) -> np.ndarray:
        return self._fwd(np.asarray(p, dtype=np.float64), self.in_min, self.in_max)

    def normalize_out(self, y: np.ndarray) -> np.ndarray:
        return self._fwd(np.asarray(y, dtype=np.float64), self.out_min, self.out_max)

    def denormalize_out(self, u: np.ndarray) -> np.ndarray:
        return self._inv(np.asarray(u, dtype=np.float64), self.out_min, self.out_max)

    def output_scale(self) -> np.ndarray:
        """d denormalize / d u per component: (max - min)/2, 0 when constant."""
        span = self.out_max - self.out_min
        return np.where(span > 0.0, span / 2.0, 0.0)


def _check_input(net: NetworkParams, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != net.sizes[0]:
        raise DimensionMismatchError(
            f"input has {p.shape[-1]} components, network expects {net.sizes[0]}"
        )
    return p


def _forward_stack(net: NetworkParams, z: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
    """Run the layer chain on normalized input; returns hidden activations and
    the raw affine output (before denormalization)."""
    acts = [z]
    for j in range(net.n_layers - 1):
        s = acts[-1] @ net.weights[j].T + net.biases[j]
        acts.append(transfer(net.hidden_transfer, s))
    out = acts[-1] @ net.weights[-1].T + net.biases[-1]
    return acts, out


def forward(net: NetworkParams, norm: Normalizer, p: np.ndarray) -> np.ndarray:
    """Surrogate evaluation: normalize, layer chain, denormalize.

    Accepts a single q-vector or a batch of shape (k, q).
    """
    p = _check_input(net, p)
    single = p.ndim == 1
    z = norm.normalize_in(np.atleast_2d(p))
    _, out = _forward_stack(net, z)
    y = norm.denormalize_out(out)
    return y[0] if single else y


def hidden_features(net: NetworkParams, norm: Normalizer, p: np.ndarray) -> np.ndarray:
    """Activations of the last hidden layer for a batch, shape (k, N_{J-1})."""
    p = _check_input(net, p)
    z = norm.normalize_in(np.atleast_2d(p))
    acts, _ = _forward_stack(net, z)
    return acts[-1]


class ForwardPass(NamedTuple):
    """One batch through the net: the input of every layer (the normalized
    input first) and the denormalized prediction."""

    acts: List[np.ndarray]
    pred: np.ndarray


def _forward_pass(net: NetworkParams, norm: Normalizer, params: np.ndarray, normalized: bool) -> ForwardPass:
    p = np.atleast_2d(_check_input(net, params))
    if p.shape[0] == 0:
        raise ValueError("empty sample set")
    acts, out = _forward_stack(net, p if normalized else norm.normalize_in(p))
    return ForwardPass(acts, norm.denormalize_out(out))


def loss_mse(
    net: NetworkParams,
    norm: Normalizer,
    params: np.ndarray,
    targets: np.ndarray,
    normalized: bool = False,
    keep: Optional[list] = None,
) -> float:
    """Mean over all k*m entries of squared error, in original target units.

    With `normalized`, `params` already holds `norm.normalize_in` of the
    inputs, so a training loop normalizes each set once.  The forward pass is
    appended to a `keep` list, for a `gradient` call at the same weights.
    """
    fp = _forward_pass(net, norm, params, normalized)
    if keep is not None:
        keep.append(fp)
    diff = fp.pred - np.atleast_2d(targets)
    return float(np.mean(diff * diff))


def gradient(
    net: NetworkParams,
    norm: Normalizer,
    params: np.ndarray,
    targets: np.ndarray,
    normalized: bool = False,
    fp: Optional[ForwardPass] = None,
) -> NetworkGradient:
    """Exact reverse-mode gradient of loss_mse w.r.t. every A_j and b_j.

    `normalized` is as in `loss_mse`.  Given `fp`, the forward pass that
    `loss_mse` kept for these weights and inputs, no forward pass is rerun.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    acts, pred = fp if fp is not None else _forward_pass(net, norm, params, normalized)
    k, m = pred.shape[0], targets.shape[1]

    # dL/d(out) includes the denormalization scaling of each target component
    delta = (2.0 / (k * m)) * (pred - targets) * norm.output_scale()

    grad_w: List[Optional[np.ndarray]] = [None] * net.n_layers
    grad_b: List[Optional[np.ndarray]] = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        grad_w[j] = delta.T @ acts[j]
        grad_b[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ net.weights[j]) * transfer_derivative(net.hidden_transfer, acts[j])
    return NetworkGradient(grad_w, grad_b)


def init_weights(sizes: Sequence[int], kind: TransferKind, seed: RngSeed) -> NetworkParams:
    """Seeded layer-wise initialization.

    Saturating hidden transfers get Nguyen-Widrow-style scaling (rows of unit
    direction scaled to 0.7 * N_j^(1/N_{j-1}), biases uniform in that range);
    linear layers and the output layer get variance-preserving uniform draws.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError("sizes must list at least input and output widths, all positive")
    rng = seed.generator()
    saturating = kind in (TransferKind.TANSIG, TransferKind.HARDLIM)
    weights = []
    biases = []
    n_layers = len(sizes) - 1
    for j in range(n_layers):
        n_in, n_out = sizes[j], sizes[j + 1]
        hidden = j < n_layers - 1
        if hidden and saturating:
            beta = 0.7 * n_out ** (1.0 / n_in)
            w = rng.uniform(-1.0, 1.0, size=(n_out, n_in))
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            w = beta * w / np.where(norms > 0.0, norms, 1.0)
            b = rng.uniform(-beta, beta, size=n_out)
        else:
            bound = np.sqrt(3.0 / n_in)
            w = rng.uniform(-bound, bound, size=(n_out, n_in))
            b = rng.uniform(-bound, bound, size=n_out)
        weights.append(w)
        biases.append(b)
    return NetworkParams(weights, biases, kind)


def save_model(
    net: NetworkParams,
    norm: Normalizer,
    path: Union[str, Path],
    metadata: Optional[Dict] = None,
) -> None:
    """Write the self-describing binary model container."""
    for w in net.weights + net.biases:
        if not np.all(np.isfinite(w)):
            raise ValueError("refusing to save non-finite weights")
    sizes = net.sizes
    parts = [
        _MAGIC,
        struct.pack("<H", _VERSION),
        pack_str(net.hidden_transfer.value),
        struct.pack("<H", net.n_layers),
        struct.pack(f"<{len(sizes)}I", *sizes),
    ]
    for arr in (norm.in_min, norm.in_max, norm.out_min, norm.out_max):
        parts.append(arr.astype("<f8").tobytes())
    for w, b in zip(net.weights, net.biases):
        parts.append(w.astype("<f8").tobytes(order="C"))
        parts.append(b.astype("<f8").tobytes())
    meta = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(meta)))
    parts.append(meta)
    Path(path).write_bytes(b"".join(parts))


def load_model(path: Union[str, Path]) -> Tuple[NetworkParams, Normalizer, Dict]:
    """Read a container written by save_model; lossless round-trip."""
    reader = Reader(Path(path).read_bytes(), ModelFormatError)
    if reader.take(4) != _MAGIC:
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    (version,) = reader.unpack("<H")
    if version != _VERSION:
        raise ModelFormatError(f"{path}: unsupported version {version}")
    kind_value = reader.take_str()
    try:
        kind = TransferKind(kind_value)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: unknown transfer kind {kind_value!r}") from exc
    (n_layers,) = reader.unpack("<H")
    sizes = list(reader.unpack(f"<{n_layers + 1}I"))
    q, m = sizes[0], sizes[-1]

    def take_f64(n: int) -> np.ndarray:
        return np.frombuffer(reader.take(8 * n), dtype="<f8").copy()

    norm = Normalizer(take_f64(q), take_f64(q), take_f64(m), take_f64(m))
    weights = []
    biases = []
    for j in range(n_layers):
        weights.append(take_f64(sizes[j + 1] * sizes[j]).reshape(sizes[j + 1], sizes[j]))
        biases.append(take_f64(sizes[j + 1]))
    (meta_len,) = reader.unpack("<I")
    metadata = json.loads(reader.take(meta_len).decode("utf-8"))
    reader.expect_end(str(path))
    return NetworkParams(weights, biases, kind), norm, metadata


def export_model_json(
    net: NetworkParams,
    norm: Normalizer,
    path: Union[str, Path],
    metadata: Optional[Dict] = None,
) -> None:
    """Inspection-friendly JSON dump of the full model."""
    doc = {
        "sizes": net.sizes,
        "hidden_transfer": net.hidden_transfer.value,
        "normalizer": {
            "in_min": norm.in_min.tolist(),
            "in_max": norm.in_max.tolist(),
            "out_min": norm.out_min.tolist(),
            "out_max": norm.out_max.tolist(),
        },
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
        "metadata": metadata or {},
    }
    Path(path).write_text(json.dumps(doc, indent=2))
