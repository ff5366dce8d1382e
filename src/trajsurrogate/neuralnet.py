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
from .dataset import RngSeed, SampleSet
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
        return np.tanh(x)  # tansig, 2/(1+e^(-2x)) - 1, is tanh
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

    @property
    def affine(self) -> bool:
        """Whether the net is an affine map of its input: no hidden layer, or purelin ones."""
        return self.n_layers == 1 or self.hidden_transfer is TransferKind.PURELIN

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases], self.hidden_transfer
        )


@dataclasses.dataclass
class NetworkGradient:
    """Gradient of the loss, aligned entry-for-entry with NetworkParams."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]


class _Range(NamedTuple):
    """One side of a min-max map and the arrays derived from it once."""

    lo: np.ndarray
    span: np.ndarray  # hi - lo
    varies: np.ndarray  # span > 0
    constant: np.ndarray  # not varies
    safe: np.ndarray  # span where it varies, else 1: a divisor

    @classmethod
    def of(cls, lo: np.ndarray, hi: np.ndarray) -> "_Range":
        span = hi - lo
        varies = span > 0.0
        return cls(lo, span, varies, ~varies, np.where(varies, span, 1.0))


@dataclasses.dataclass(frozen=True)
class Normalizer:
    """Componentwise min-max maps onto [-1, 1] from training-set statistics.

    Components with zero range normalize to 0 and invert to the constant.
    """

    in_min: np.ndarray
    in_max: np.ndarray
    out_min: np.ndarray
    out_max: np.ndarray
    _in: _Range = dataclasses.field(init=False, repr=False, compare=False)
    _out: _Range = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("in_min", "in_max", "out_min", "out_max"):
            bound = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if not np.all(np.isfinite(bound)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, bound)
        if self.in_min.shape != self.in_max.shape or self.out_min.shape != self.out_max.shape:
            raise ValueError("min/max shapes disagree")
        if np.any(self.in_max < self.in_min) or np.any(self.out_max < self.out_min):
            raise ValueError("max must not fall below min")
        object.__setattr__(self, "_in", _Range.of(self.in_min, self.in_max))
        object.__setattr__(self, "_out", _Range.of(self.out_min, self.out_max))

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
    def _fwd(z: np.ndarray, r: _Range) -> np.ndarray:
        return np.where(r.varies, 2.0 * (z - r.lo) / r.safe - 1.0, 0.0)

    @staticmethod
    def _inv(u: np.ndarray, r: _Range) -> np.ndarray:
        # lo + (u + 1) * span / 2 in that order, in one array; lo where the span is zero
        out = u + 1.0
        out *= r.span
        out /= 2.0
        out += r.lo
        np.copyto(out, r.lo, where=r.constant)
        return out

    def normalize_in(self, p: np.ndarray) -> np.ndarray:
        return self._fwd(np.asarray(p, dtype=np.float64), self._in)

    def normalize_out(self, y: np.ndarray) -> np.ndarray:
        return self._fwd(np.asarray(y, dtype=np.float64), self._out)

    def denormalize_out(self, u: np.ndarray) -> np.ndarray:
        return self._inv(np.asarray(u, dtype=np.float64), self._out)

    def output_scale(self) -> np.ndarray:
        """d denormalize / d u per component: (max - min)/2, 0 when constant."""
        return np.where(self._out.varies, self._out.span / 2.0, 0.0)


def _check_input(net: NetworkParams, p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    q = net.weights[0].shape[1]
    if p.shape[-1] != q:
        raise DimensionMismatchError(f"input has {p.shape[-1]} components, network expects {q}")
    return p


def check_sets(net: NetworkParams, *sets: SampleSet) -> None:
    """The rule that binds a net to the sample sets it is fit or scored on,
    checked in this order for each set: it is non-empty (ValueError), it has
    the net's widths q and m, and it spans the first set's (t0, tf)
    (DimensionMismatchError)."""
    q, m = net.sizes[0], net.sizes[-1]
    t0, tf = sets[0].grid.t0, sets[0].grid.tf
    for s in sets:
        if s.k == 0:
            raise ValueError(f"empty sample set ({s.role})")
        if (s.q, s.grid.m) != (q, m):
            raise DimensionMismatchError(f"{s.role} set has widths {s.q} -> {s.grid.m}, the net {q} -> {m}")
        if (s.grid.t0, s.grid.tf) != (t0, tf):
            raise DimensionMismatchError(f"{s.role} set spans [{s.grid.t0}, {s.grid.tf}], not [{t0}, {tf}]")


def _forward_stack(net: NetworkParams, z: np.ndarray) -> List[np.ndarray]:
    """Run the hidden layers on normalized input; returns the input of every
    layer, z first and the last hidden activations last."""
    acts = [z]
    for j in range(net.n_layers - 1):
        s = acts[-1] @ net.weights[j].T + net.biases[j]
        acts.append(transfer(net.hidden_transfer, s))
    return acts


def _chain_is_cheaper(sizes: Sequence[int], k: int) -> bool:
    """Whether k rows cost fewer multiply-adds through the layer chain,
    (q+1)(L + k m), than layer by layer, k L, where L = sum N_j N_{j+1}: the
    matrix-chain order of the two products (Cormen et al., section 15.2)."""
    L = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return k * L > (sizes[0] + 1) * (L + k * sizes[-1])


def forward(net: NetworkParams, norm: Normalizer, p: np.ndarray) -> np.ndarray:
    """Surrogate evaluation: normalize, layer chain, denormalize.

    Accepts a single q-vector or a batch of shape (k, q), and runs the pass
    that `loss_mse` runs on the same rows (`_forward_pass`).
    """
    y = _forward_pass(net, norm, p).pred
    return y[0] if np.ndim(p) == 1 else y


def hidden_features(net: NetworkParams, norm: Normalizer, p: np.ndarray) -> np.ndarray:
    """Activations of the last hidden layer for a batch, shape (k, N_{J-1})."""
    p = _check_input(net, p)
    z = norm.normalize_in(np.atleast_2d(p))
    return _forward_stack(net, z)[-1]


class ForwardPass(NamedTuple):
    """One batch through the net layer by layer: the input of every layer
    (the normalized input first) and the denormalized prediction."""

    acts: List[np.ndarray]
    pred: np.ndarray


class _ChainPass(NamedTuple):
    """One batch through a net of affine layers only, which maps z to z @ P + c,
    taken from the thin side: x = [z, 1], the `_prefixes` of the net (layer
    j's output is x @ prefix[j]), and the denormalized prediction."""

    x: np.ndarray
    prefix: List[np.ndarray]
    pred: np.ndarray


def _prefixes(net: NetworkParams) -> List[np.ndarray]:
    """The (q+1)-row maps of an affine net from x = [z, 1] to each layer's
    output: [W_1'; b_1], then prefix @ W_j' with b_j added to the last row.
    The first is C-ordered when more layers follow (their products' bytes
    depend on it), else a view of [W, b]."""
    wb = np.hstack([net.weights[0], net.biases[0][:, None]])
    prefix = [wb.T.copy() if net.n_layers > 1 else wb.T]
    for w, b in zip(net.weights[1:], net.biases[1:]):
        a = prefix[-1] @ w.T
        a[-1] += b
        prefix.append(a)
    return prefix


class OutputFactors(NamedTuple):
    """One set seen by affine layers whose input is fixed: the k-row input
    A = [H, 1] and the normalized targets V, kept through the reduced QR
    factors A = QR (Q itself is dropped).  H is the normalized input z for an
    affine net, or a hard-limit net's last hidden activations.

    With r = min(k, N+1) and D = (Q'V)', |A w_j - v_j|^2 = |R w_j - d_j|^2 +
    rho_j for every w_j, with rho_j = |v_j - Q d_j|^2, whatever the rank of A.
    Target columns of zero range predict their constant whatever the
    weights, so they add a fixed term.
    """

    r: np.ndarray  # R, (r, N+1)
    d: np.ndarray  # D, (m, r)
    rho: np.ndarray  # (m,)
    fixed: float  # sum over zero-range columns j of |lo_j - y_j|^2
    k: int

    @classmethod
    def of(cls, features: np.ndarray, norm: Normalizer, targets: np.ndarray) -> "OutputFactors":
        """Factor one set: `features` is its (k, N) input H of the affine
        layers, `targets` its (k, m) targets in original units."""
        targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        k = features.shape[0]
        q, r = np.linalg.qr(np.hstack([features, np.ones((k, 1))]))
        v = norm.normalize_out(targets)
        d = q.T @ v
        res = v - q @ d
        off = np.where(norm._out.constant, norm._out.lo - targets, 0.0)
        return cls(r, d.T, np.einsum("ij,ij->j", res, res), float(np.sum(off * off)), k)


class _FactoredPass(NamedTuple):
    """One set through an affine net on its OutputFactors: the net's
    `_prefixes` and E = A' R' - D, an (m, r) array in normalized units, where
    A is the last prefix."""

    prefix: List[np.ndarray]
    e: np.ndarray
    factors: OutputFactors


def _factored_pass(net: NetworkParams, f: OutputFactors) -> _FactoredPass:
    n, m = f.r.shape[1] - 1, f.d.shape[0]
    if not net.affine or (net.sizes[0], net.sizes[-1]) != (n, m):
        raise DimensionMismatchError(
            f"factored set needs an affine {n} -> {m} net, not {net.hidden_transfer.value} {net.sizes}"
        )
    prefix = _prefixes(net)
    e = prefix[-1].T @ f.r.T
    e -= f.d
    return _FactoredPass(prefix, e, f)


def _forward_pass(
    net: NetworkParams, norm: Normalizer, params: Union[np.ndarray, OutputFactors]
) -> Union[ForwardPass, _ChainPass, _FactoredPass]:
    """The one choice of pass, for `forward`, `loss_mse` and `gradient` alike:
    the factored affine net for `OutputFactors`; for k rows into a purelin
    net, the layer chain exactly when `_chain_is_cheaper` (never without a
    hidden layer); every other case layer by layer.  The passes differ by
    rounding only."""
    if isinstance(params, OutputFactors):
        return _factored_pass(net, params)
    p = np.atleast_2d(_check_input(net, params))
    z = norm.normalize_in(p)
    if net.hidden_transfer is not TransferKind.PURELIN or not _chain_is_cheaper(net.sizes, p.shape[0]):
        acts = _forward_stack(net, z)
        return ForwardPass(acts, norm.denormalize_out(acts[-1] @ net.weights[-1].T + net.biases[-1]))
    x = np.hstack([z, np.ones((z.shape[0], 1))])
    prefix = _prefixes(net)
    return _ChainPass(x, prefix, norm.denormalize_out(x @ prefix[-1]))


def loss_mse(
    net: NetworkParams,
    norm: Normalizer,
    params: Union[np.ndarray, OutputFactors],
    targets: np.ndarray,
    keep: Optional[list] = None,
) -> float:
    """Mean over all k*m entries of squared error, in original target units.

    The forward pass (`_forward_pass`, the one `forward` runs on these rows)
    is appended to a `keep` list, for a `gradient` call at the same weights.
    On a purelin layer chain no k-row array wider than the output is formed.

    `params` may instead be the `OutputFactors` of a set, built from these
    `targets`, for `net` an affine net on the factored input
    (`_FactoredPass`).  The loss is then (sum_j s_j^2 (|e_j|^2 + rho_j) + the
    zero-range term) / (k m) with s = `norm.output_scale()`, at
    m min(k, N+1) (N+1) multiply-adds past the prefixes; it equals the
    layer-by-layer one to rounding.
    """
    fp = _forward_pass(net, norm, params)
    if keep is not None:
        keep.append(fp)
    if isinstance(fp, _FactoredPass):
        f = fp.factors
        sq = np.einsum("ij,ij->i", fp.e, fp.e) + f.rho
        return float((norm.output_scale() ** 2 @ sq + f.fixed) / (f.k * fp.e.shape[0]))
    diff = fp.pred - _targets_of(fp, targets)
    return float(np.mean(diff * diff))


def _targets_of(fp: Union[ForwardPass, _ChainPass], targets: np.ndarray) -> np.ndarray:
    """`targets` as a float64 array of the prediction's (k, m) shape; no
    broadcasting, since the loss and its gradient both divide by k m."""
    if fp.pred.shape[0] == 0:
        raise ValueError("empty sample set")
    y = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if y.shape != fp.pred.shape:
        raise DimensionMismatchError(f"targets have shape {y.shape}, predictions {fp.pred.shape}")
    return y


def gradient(
    net: NetworkParams,
    norm: Normalizer,
    params: Union[np.ndarray, OutputFactors],
    targets: np.ndarray,
    fp: Union[ForwardPass, _ChainPass, _FactoredPass, None] = None,
) -> NetworkGradient:
    """Exact reverse-mode gradient of loss_mse w.r.t. every A_j and b_j.

    `params` are as in `loss_mse`.  Given `fp`, the forward pass that
    `loss_mse` kept for these weights and inputs, no forward pass is rerun.
    The output error is carried back through the pass it comes from: layer by
    layer, or through the layer chain as x' delta, which for a factored set
    is (2 s^2 (E R) / (k m))'.
    """
    fp = fp if fp is not None else _forward_pass(net, norm, params)
    if isinstance(fp, _FactoredPass):
        f = fp.factors
        g = fp.e @ f.r
        g *= ((2.0 / (f.k * g.shape[0])) * norm.output_scale() ** 2)[:, None]
        return _chain_backward(net, fp.prefix, g.T)
    targets = _targets_of(fp, targets)
    k, m = targets.shape

    # dL/d(out) includes the denormalization scaling of each target component
    delta = (2.0 / (k * m)) * (fp.pred - targets) * norm.output_scale()
    if isinstance(fp, _ChainPass):
        return _chain_backward(net, fp.prefix, fp.x.T @ delta)
    return _backward(net, fp.acts, delta)


def _backward(net: NetworkParams, acts: List[np.ndarray], delta: np.ndarray) -> NetworkGradient:
    """Layer-by-layer reverse pass from the error `delta` of the raw output."""
    grad_w: List[Optional[np.ndarray]] = [None] * net.n_layers
    grad_b: List[Optional[np.ndarray]] = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        grad_w[j] = delta.T @ acts[j]
        grad_b[j] = delta.sum(axis=0)
        if j > 0:
            delta = (delta @ net.weights[j]) * transfer_derivative(net.hidden_transfer, acts[j])
    return NetworkGradient(grad_w, grad_b)


def _chain_backward(net: NetworkParams, prefix: List[np.ndarray], t: np.ndarray) -> NetworkGradient:
    """Reverse pass through the layer chain from t = x' @ delta, where delta
    is the output error.  Layer j's output error is delta_j; t = x' @ delta_j
    is carried back instead, so no k-row array wider than m is formed."""
    grad_w: List[Optional[np.ndarray]] = [None] * net.n_layers
    grad_b: List[Optional[np.ndarray]] = [None] * net.n_layers
    for j in range(net.n_layers - 1, -1, -1):
        # layer j's input is x @ prefix[j - 1], or z = x[:, :-1] for j = 0
        grad_w[j] = t.T @ prefix[j - 1] if j > 0 else t[:-1].T
        grad_b[j] = t[-1]  # the column of ones in x sums delta_j over the rows
        if j > 0:
            t = t @ net.weights[j]
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


def _check_finite(net: NetworkParams) -> None:
    """The rule of the model file: every weight and bias is finite."""
    if not all(np.all(np.isfinite(a)) for a in net.weights + net.biases):
        raise ValueError("non-finite weights or biases")


def save_model(
    net: NetworkParams,
    norm: Normalizer,
    path: Union[str, Path],
    metadata: Optional[Dict] = None,
) -> None:
    """Write the self-describing binary model container."""
    _check_finite(net)
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
    with Reader(path, ModelFormatError) as reader:
        if reader.take(4) != _MAGIC:
            raise ModelFormatError(f"{path}: not a model file (bad magic)")
        (version,) = reader.unpack("<H")
        if version != _VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        kind = TransferKind(reader.take_str())
        (n_layers,) = reader.unpack("<H")
        sizes = list(reader.unpack(f"<{n_layers + 1}I"))
        q, m = sizes[0], sizes[-1]

        def take_f64(n: int) -> np.ndarray:
            return np.frombuffer(reader.take(8 * n), dtype="<f8").copy()

        norm = Normalizer(take_f64(q), take_f64(q), take_f64(m), take_f64(m))
        weights, biases = [], []
        for j in range(n_layers):
            weights.append(take_f64(sizes[j + 1] * sizes[j]).reshape(sizes[j + 1], sizes[j]))
            biases.append(take_f64(sizes[j + 1]))
        (meta_len,) = reader.unpack("<I")
        metadata = json.loads(reader.take(meta_len).decode("utf-8"))
        reader.expect_end()
        net = NetworkParams(weights, biases, kind)
        _check_finite(net)
        return net, norm, metadata

