"""Transfer functions, forward pass, loss, gradients, and model persistence."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsurrogate.dataset import RngSeed
from trajsurrogate.dynsys import DimensionMismatchError
from trajsurrogate.neuralnet import (
    ModelFormatError,
    NetworkParams,
    Normalizer,
    TransferKind,
    _chain_is_cheaper,
    forward,
    gradient,
    hidden_features,
    init_weights,
    load_model,
    loss_mse,
    save_model,
    transfer,
    transfer_derivative,
)


def small_net(kind: TransferKind, seed: int = 11, sizes=(2, 3, 2)) -> NetworkParams:
    return init_weights(sizes, kind, RngSeed(seed, "weights"))


def test_transfer_reference_values():
    assert transfer(TransferKind.TANSIG, 0.0) == 0.0
    assert transfer(TransferKind.HARDLIM, 0.0) == 1.0
    assert transfer(TransferKind.HARDLIM, -1e-12) == 0.0
    assert transfer(TransferKind.HARDLIM, 0.5) == 1.0
    assert transfer(TransferKind.PURELIN, -3.25) == -3.25


def test_tansig_matches_tanh_and_saturates():
    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float64).smallest_subnormal
    magnitudes = 10.0 ** rng.uniform(-300.0, 2.5, 20000)
    x = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300, 710.0, -710.0, 1e308, -1e308],
        np.linspace(-25.0, 25.0, 20001),
        1.5 * rng.standard_normal(20000),
        np.where(rng.random(20000) < 0.5, -magnitudes, magnitudes),
    ])
    # no overflow or invalid value, even at +-1e308 (a subnormal result may set
    # the underflow flag, as it does on NumPy's baseline x86-64 kernels)
    with np.errstate(all="raise", under="ignore"):
        a = transfer(TransferKind.TANSIG, x)
    # within 2^-52 of tansig's textbook form, sign(x)(1 - e^(-2|x|))/(1 + e^(-2|x|)) ...
    with np.errstate(over="ignore"):
        z = np.exp(-2.0 * np.abs(x))
        textbook = np.sign(x) * (1.0 - z) / (1.0 + z)
    assert np.max(np.abs(a - textbook)) <= 2.0**-52
    # ... which cancels near zero, so there each entry is held to math.tanh (2 ulp measured)
    near = np.abs(x) < 1e-3
    want = np.array([math.tanh(v) for v in x[near]])
    assert np.all(np.abs(a[near] - want) <= 2.0 * np.spacing(np.abs(want)))
    assert transfer(TransferKind.TANSIG, 1e-300) == 1e-300
    # saturates without overflow at extreme arguments
    assert transfer(TransferKind.TANSIG, 500.0) == 1.0
    assert transfer(TransferKind.TANSIG, -500.0) == -1.0
    assert np.all(np.abs(transfer(TransferKind.TANSIG, np.linspace(-6.0, 6.0, 101))) < 1.0)


def test_transfer_derivative_values():
    x = np.linspace(-2.0, 2.0, 21)
    a = transfer(TransferKind.TANSIG, x)
    fd = (transfer(TransferKind.TANSIG, x + 1e-6) - transfer(TransferKind.TANSIG, x - 1e-6)) / 2e-6
    assert np.max(np.abs(transfer_derivative(TransferKind.TANSIG, a) - fd)) < 1e-9
    assert np.all(transfer_derivative(TransferKind.HARDLIM, np.array([0.0, 1.0])) == 0.0)
    assert np.all(transfer_derivative(TransferKind.PURELIN, x) == 1.0)


def test_forward_matches_hand_composition():
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    p = np.array([0.3, -0.8])
    z = np.tanh(net.weights[0] @ p + net.biases[0])
    want = net.weights[1] @ z + net.biases[1]
    assert np.max(np.abs(forward(net, norm, p) - want)) < 1e-12


def test_identity_single_layer_is_identity():
    net = NetworkParams([np.eye(3)], [np.zeros(3)], TransferKind.PURELIN)
    norm = Normalizer.identity(3, 3)
    p = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(forward(net, norm, p), p)


def test_zero_weights_give_zero_output():
    net = NetworkParams(
        [np.zeros((4, 2)), np.zeros((3, 4))], [np.zeros(4), np.zeros(3)], TransferKind.PURELIN
    )
    norm = Normalizer.identity(2, 3)
    assert np.array_equal(forward(net, norm, np.array([5.0, 7.0])), np.zeros(3))


def test_forward_accepts_batches():
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    batch = np.array([[0.1, 0.2], [0.3, 0.4], [-0.5, 0.6]])
    rows = np.stack([forward(net, norm, row) for row in batch])
    # matrix-matrix and matrix-vector BLAS reductions differ by rounding only
    assert np.max(np.abs(forward(net, norm, batch) - rows)) < 1e-12


def _layer_by_layer(net, norm, points):
    """The surrogate's output computed in the plain order: min-max normalize,
    each affine layer in turn (the hidden ones through their transfer),
    min-max invert."""
    span_in = norm.in_max - norm.in_min
    safe = np.where(span_in > 0.0, span_in, 1.0)
    act = np.where(span_in > 0.0, 2.0 * (points - norm.in_min) / safe - 1.0, 0.0)
    for j, (w, b) in enumerate(zip(net.weights, net.biases)):
        act = act @ w.T + b
        if j < net.n_layers - 1:
            act = transfer(net.hidden_transfer, act)
    span_out = norm.out_max - norm.out_min
    return np.where(span_out > 0.0, norm.out_min + (act + 1.0) * span_out / 2.0, norm.out_min)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(list(TransferKind)),
    sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=5),
    k=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_forward_matches_the_layer_by_layer_pass(kind, sizes, k, seed):
    q, m = sizes[0], sizes[-1]
    net = init_weights(sizes, kind, RngSeed(seed, "weights"))
    rng = np.random.default_rng(seed)
    norm = Normalizer.from_training(
        rng.uniform(-3.0, 5.0, (8, q)), rng.uniform(-50.0, 80.0, (8, m))
    )
    points = rng.uniform(-4.0, 6.0, (k, q))
    got = forward(net, norm, points)
    assert got.shape == (k, m)
    if k == 0:
        return
    scale = float(np.max(norm.out_max - norm.out_min)) or 1.0
    assert np.max(np.abs(got - _layer_by_layer(net, norm, points))) <= 1e-12 * scale
    # forward and loss_mse run one pass on the same rows, whichever it is
    kept = []
    loss_mse(net, norm, points, np.zeros((k, m)), keep=kept)
    assert got.tobytes() == kept[0].pred.tobytes()


def test_chain_rule_boundary_on_the_reference_sizes():
    # L = 4*400 + 400*400 + 400*200 = 241 600: 5 L < 5 (L + 1000), 6 L > 5 (L + 1200)
    assert not _chain_is_cheaper([4, 400, 400, 200], 5)
    assert _chain_is_cheaper([4, 400, 400, 200], 6)
    assert not _chain_is_cheaper([4, 200], 10**6)  # a hidden-free net never gains


def test_forward_rejects_wrong_width():
    net = small_net(TransferKind.TANSIG)
    with pytest.raises(DimensionMismatchError):
        forward(net, Normalizer.identity(2, 2), np.array([1.0, 2.0, 3.0]))


def test_loss_zero_on_exact_targets():
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    params = np.array([[0.1, 0.2], [0.3, -0.1]])
    targets = forward(net, norm, params)
    assert loss_mse(net, norm, params, targets) == 0.0


def test_loss_constant_offset():
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    params = np.array([[0.1, 0.2], [0.3, -0.1]])
    targets = forward(net, norm, params) + 2.0
    assert math.isclose(loss_mse(net, norm, params, targets), 4.0, rel_tol=1e-12)


def test_loss_matches_double_loop():
    rng = np.random.default_rng(4)
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    params = rng.standard_normal((5, 2))
    targets = rng.standard_normal((5, 2))
    pred = forward(net, norm, params)
    total = 0.0
    for i in range(5):
        for j in range(2):
            total += (pred[i, j] - targets[i, j]) ** 2
    assert math.isclose(loss_mse(net, norm, params, targets), total / 10.0, rel_tol=1e-12)


def test_loss_rejects_empty_set():
    for kind in TransferKind:
        for evaluate in (loss_mse, gradient):
            with pytest.raises(ValueError):
                evaluate(small_net(kind), Normalizer.identity(2, 2), np.empty((0, 2)), np.empty((0, 2)))


def test_loss_and_gradient_refuse_mismatched_targets():
    # broadcast targets would give a loss over k*1 entries and a gradient 3x too large
    rng = np.random.default_rng(8)
    norm = Normalizer.identity(2, 3)
    for kind in TransferKind:
        net = small_net(kind, sizes=(2, 5, 3))
        # purelin runs 4 rows layer by layer and 8 through the layer chain
        for k in (4, 8):
            params = rng.standard_normal((k, 2))
            assert _chain_is_cheaper(net.sizes, k) == (k == 8)
            for shape in ((k, 1), (1, 3), (k, 4)):
                for evaluate in (loss_mse, gradient):
                    with pytest.raises(DimensionMismatchError, match="targets have shape"):
                        evaluate(net, norm, params, np.zeros(shape))


def _fd_gradient(net, norm, params, targets, eps=1e-6):
    """Central finite differences over every weight and bias entry."""
    grads_w = []
    grads_b = []
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


@pytest.mark.parametrize("kind", [TransferKind.TANSIG, TransferKind.PURELIN])
def test_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(8)
    net = small_net(kind, seed=21, sizes=(2, 4, 3))
    norm = Normalizer(
        in_min=np.array([-1.0, -2.0]),
        in_max=np.array([1.0, 2.0]),
        out_min=np.full(3, -5.0),
        out_max=np.full(3, 5.0),
    )
    params = rng.uniform(-1.0, 1.0, (6, 2))
    targets = rng.standard_normal((6, 3))
    got = gradient(net, norm, params, targets)
    want_w, want_b = _fd_gradient(net, norm, params, targets)
    for g, w in zip(got.weights + got.biases, want_w + want_b):
        scale = np.maximum(np.abs(w), 1e-8)
        assert np.max(np.abs(g - w) / scale) < 1e-6


def test_hardlim_hidden_layers_have_zero_gradient():
    rng = np.random.default_rng(9)
    net = small_net(TransferKind.HARDLIM, seed=31, sizes=(2, 5, 3))
    norm = Normalizer.identity(2, 3)
    params = rng.uniform(-1.0, 1.0, (7, 2))
    targets = rng.standard_normal((7, 3))
    got = gradient(net, norm, params, targets)
    assert np.all(got.weights[0] == 0.0)
    assert np.all(got.biases[0] == 0.0)
    assert np.any(got.weights[1] != 0.0)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_purelin_network_is_affine(lam):
    net = small_net(TransferKind.PURELIN, seed=17, sizes=(3, 6, 4))
    norm = Normalizer.identity(3, 4)
    a = np.array([0.9, -0.4, 0.2])
    b = np.array([-0.6, 0.8, -1.0])
    blended = forward(net, norm, lam * a + (1 - lam) * b)
    combo = lam * forward(net, norm, a) + (1 - lam) * forward(net, norm, b)
    assert np.max(np.abs(blended - combo)) <= 1e-10 * max(1.0, np.max(np.abs(combo)))


def test_normalizer_round_trip_and_constants():
    params = np.array([[1.0, 5.0], [3.0, 5.0]])
    targets = np.array([[0.0, 2.0], [10.0, 2.0]])
    norm = Normalizer.from_training(params, targets)
    # varying columns map to the [-1, 1] corners, constant columns to 0
    z = norm.normalize_in(params)
    assert np.array_equal(z[:, 0], [-1.0, 1.0])
    assert np.array_equal(z[:, 1], [0.0, 0.0])
    u = norm.normalize_out(targets)
    back = norm.denormalize_out(u)
    assert np.max(np.abs(back - targets)) < 1e-12
    # constant target component always denormalizes to the stored constant
    assert np.array_equal(norm.denormalize_out(np.array([0.7, 0.7]))[1], 2.0)
    assert norm.output_scale()[1] == 0.0


def test_normalizer_refuses_non_finite_bounds():
    # a NaN range would fail `span > 0` and pass as a constant component
    good = {"in_min": [0.0, 0.0], "in_max": [1.0, 1.0], "out_min": [0.0, 0.0], "out_max": [1.0, 1.0]}
    for field in good:
        for bad in (np.nan, np.inf, -np.inf):
            bounds = dict(good, **{field: [0.5, bad] if field.endswith("max") else [bad, 0.5]})
            with pytest.raises(ValueError, match=field):
                Normalizer(**bounds)


def test_denormalize_out_gives_the_bytes_of_the_where_formula():
    rng = np.random.default_rng(41)
    targets = rng.uniform(-400.0, 600.0, (500, 200))
    targets[:, 3] = 12.5  # zero range
    targets[:, 4] = -0.0  # zero range at a -0.0 bound
    targets[:, 5] = np.abs(targets[:, 5])
    targets[0, 5] = -0.0  # a -0.0 lower bound under a positive span
    norm = Normalizer.from_training(np.zeros((500, 1)), targets)
    lo, hi = norm.out_min, norm.out_max
    assert np.signbit(lo[[4, 5]]).all()
    u = rng.uniform(-1.2, 1.2, (500, 200))
    u[7, 5] = -1.0  # lands on the -0.0 bound
    for batch in (u, u[7]):
        span = hi - lo
        want = np.where(span > 0.0, lo + (batch + 1.0) * span / 2.0, lo)
        assert norm.denormalize_out(batch).tobytes() == want.tobytes()


def _sha(*arrays):
    raw = b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in arrays)
    return hashlib.sha256(raw).hexdigest()


def _pinned_normalizer():
    rng = np.random.default_rng(29)
    params = rng.uniform(-3.0, 5.0, (40, 4))
    params[:, 2] = 0.75  # zero range
    targets = rng.uniform(-200.0, 300.0, (40, 6))
    targets[:, 1] = -0.0  # zero range at a -0.0 bound
    targets[:, 4] = 12.5  # zero range
    return Normalizer.from_training(params, targets)


# Outputs whose bytes no change to the batch path or to the Normalizer may
# move: one-row purelin calls, tansig and hard-limit batches, and the min-max
# maps with zero-range components.  (name, sha256)  The tansig entry was
# recorded when tansig became np.tanh.  A reference-size purelin batch (the
# layer chain) is checked against the chain built in the test instead: its
# first product sums in another order on one BLAS thread than on several, so
# no one digest holds at every thread count, while the comparison in one
# process does, and still fails if the first prefix is not C-ordered.
_PINNED_BYTES = {
    "purelin, 20 one-row calls": "584f6fd1346787b4de8275202286f05a126b64d93b5b604dd8f3f617f00efd28",
    "tansig, 50-row batch": "70c9f7f5e101d471bdceb7f94a7b0b1556f4b944c42e85b5e9190e39e90f03bc",
    "hardlim, 50-row batch": "8d9418c2a461ba53b8af2b7ddd7d98651fe4e6981939aea6defbdddfefad9a13",
    "normalize_in": "a701c8d50b0fa4572dbf9baf08131c331c8ecb7964b7075994ba9610166d8136",
    "normalize_out": "02f4141efb0b0fec4388b8eb1817ead41e6a67d79f087ba35f433f992dd9eb8f",
    "denormalize_out": "75b60db68dcce3b0202d33f8ec09a9a8e3e943ce70a2df27c8fd0a5f50249811",
    "output_scale": "5ecf11c34aeea5c127819bdf4489ddbf3bee254b8954c3558e01bb171d658b45",
}


def test_pinned_outputs_keep_their_bytes():
    norm = _pinned_normalizer()
    rng = np.random.default_rng(31)
    points = rng.uniform(-4.0, 6.0, (50, 4))
    u = rng.uniform(-1.2, 1.2, (50, 6))
    y = rng.uniform(-250.0, 350.0, (50, 6))
    # the reference size, where a 500-row batch takes the layer chain
    wide = init_weights((4, 400, 400, 200), TransferKind.PURELIN, RngSeed(41, "weights"))
    wide_norm = Normalizer.from_training(rng.uniform(-3.0, 5.0, (40, 4)), rng.uniform(-200.0, 300.0, (40, 200)))
    batch = rng.uniform(-4.0, 6.0, (500, 4))
    purelin, tansig, hardlim = (
        init_weights((4, 30, 20, 6), kind, RngSeed(37, "weights"))
        for kind in (TransferKind.PURELIN, TransferKind.TANSIG, TransferKind.HARDLIM)
    )
    got = {
        "purelin, 20 one-row calls": _sha(*[forward(purelin, norm, row) for row in points[:20]]),
        "tansig, 50-row batch": _sha(forward(tansig, norm, points)),
        "hardlim, 50-row batch": _sha(forward(hardlim, norm, points)),
        "normalize_in": _sha(norm.normalize_in(points), norm.normalize_in(points[0])),
        "normalize_out": _sha(norm.normalize_out(y), norm.normalize_out(y[0])),
        "denormalize_out": _sha(norm.denormalize_out(u), norm.denormalize_out(u[0])),
        "output_scale": _sha(norm.output_scale()),
    }
    assert got == _PINNED_BYTES
    # the batch is x @ P for x = [z, 1] and P the chain from a C-ordered [W_1'; b_1]
    chain = np.ascontiguousarray(np.vstack([wide.weights[0].T, wide.biases[0]]))
    for w, b in zip(wide.weights[1:], wide.biases[1:]):
        chain = chain @ w.T
        chain[-1] += b
    x = np.hstack([wide_norm.normalize_in(batch), np.ones((len(batch), 1))])
    assert forward(wide, wide_norm, batch).tobytes() == wide_norm.denormalize_out(x @ chain).tobytes()


def test_replace_recomputes_the_derived_ranges():
    norm = _pinned_normalizer()
    wider = norm.out_max + np.arange(6.0)  # the zero-range components 1 and 4 gain a range
    moved = dataclasses.replace(norm, out_max=wider)
    fresh = Normalizer(norm.in_min, norm.in_max, norm.out_min, wider)
    u = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 6))
    y = fresh.denormalize_out(u)
    assert moved.denormalize_out(u).tobytes() == y.tobytes()
    assert moved.normalize_out(y).tobytes() == fresh.normalize_out(y).tobytes()
    assert moved.output_scale().tobytes() == fresh.output_scale().tobytes()
    assert norm.output_scale()[4] == 0.0 and moved.output_scale()[4] > 0.0


def test_init_is_deterministic_and_bounded():
    a = init_weights([4, 10, 3], TransferKind.PURELIN, RngSeed(5, "weights"))
    b = init_weights([4, 10, 3], TransferKind.PURELIN, RngSeed(5, "weights"))
    c = init_weights([4, 10, 3], TransferKind.PURELIN, RngSeed(6, "weights"))
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)
    assert any(
        not np.array_equal(wa, wc) for wa, wc in zip(a.weights + a.biases, c.weights + c.biases)
    )
    assert np.all(np.abs(a.weights[0]) <= math.sqrt(3.0 / 4.0))
    assert np.all(np.abs(a.weights[1]) <= math.sqrt(3.0 / 10.0))


def test_init_scales_saturating_rows():
    net = init_weights([4, 10, 3], TransferKind.TANSIG, RngSeed(5, "weights"))
    beta = 0.7 * 10 ** (1.0 / 4.0)
    norms = np.linalg.norm(net.weights[0], axis=1)
    assert np.max(np.abs(norms - beta)) < 1e-12
    assert np.all(np.abs(net.biases[0]) <= beta)


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_weights([4], TransferKind.TANSIG, RngSeed(1, "weights"))
    with pytest.raises(ValueError):
        init_weights([4, 0, 2], TransferKind.TANSIG, RngSeed(1, "weights"))


def test_hidden_features_are_binary_for_hardlim():
    net = small_net(TransferKind.HARDLIM, seed=13, sizes=(2, 6, 3))
    norm = Normalizer.identity(2, 3)
    rng = np.random.default_rng(2)
    feats = hidden_features(net, norm, rng.standard_normal((9, 2)))
    assert feats.shape == (9, 6)
    assert set(np.unique(feats)) <= {0.0, 1.0}


def test_model_round_trip_bitwise(tmp_path):
    net = small_net(TransferKind.HARDLIM, seed=3, sizes=(4, 7, 5))
    norm = Normalizer(
        in_min=np.arange(4.0),
        in_max=np.arange(4.0) + 2.0,
        out_min=-np.ones(5),
        out_max=np.linspace(1.0, 2.0, 5),
    )
    path = tmp_path / "model.tjn"
    save_model(net, norm, path, metadata={"note": "round trip", "epochs": 3})
    loaded_net, loaded_norm, meta = load_model(path)
    assert loaded_net.hidden_transfer is TransferKind.HARDLIM
    assert meta == {"note": "round trip", "epochs": 3}
    for a, b in zip(
        loaded_net.weights + loaded_net.biases, net.weights + net.biases
    ):
        assert np.array_equal(a, b)
    for a, b in zip(
        (loaded_norm.in_min, loaded_norm.in_max, loaded_norm.out_min, loaded_norm.out_max),
        (norm.in_min, norm.in_max, norm.out_min, norm.out_max),
    ):
        assert np.array_equal(a, b)


# The bytes of save_model on a 2-3-2 net and ranges built from literal arrays,
# so that no BLAS or SIMD kernel enters them.  (transfer, sha256 of the file)
_PINNED_MODEL_FILES = {
    "hardlim": "4a4fd86de28803594d35861b95f6650baddda18952381519808e5e7b62d1e83c",
    "purelin": "8649d25a5b1be7da101866753eec329f03352b0052e8c730b8779b7742f8b9ea",
    "tansig": "d4873f94a1cbc55bbcf4ed85b493cb6675ab8ce543f5f158b26630a0cede02c6",
}


@pytest.mark.parametrize("kind", sorted(_PINNED_MODEL_FILES))
def test_model_file_bytes_match_recorded_digest(tmp_path, kind):
    net = NetworkParams(
        [
            np.array([[0.5, -1.25], [3.0, 1e-300], [-0.0, 0.1]]),
            np.array([[1.0, -2.0, 0.3], [5e-324, 4.5, -6.0]]),
        ],
        [np.array([0.125, -0.7, 2.0]), np.array([1e300, -3.5])],
        TransferKind(kind),
    )
    norm = Normalizer(
        in_min=np.array([-1.0, 0.2]),
        in_max=np.array([1.0, 0.2]),
        out_min=np.array([-0.0, -8.0]),
        out_max=np.array([2.5, 1e10]),
    )
    path = tmp_path / "pinned.tjn"
    save_model(net, norm, path, metadata={"epochs": 3, "note": "pinned"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_MODEL_FILES[kind]


def test_model_load_rejects_corruption(tmp_path):
    net = small_net(TransferKind.TANSIG)
    norm = Normalizer.identity(2, 2)
    path = tmp_path / "model.tjn"
    save_model(net, norm, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.tjn"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ModelFormatError):
        load_model(bad)
    bad.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ModelFormatError):
        load_model(bad)
    # magic, version and the transfer name "tansig" take the first 14 bytes
    assert raw[8:14] == b"tansig" and raw.endswith(b"{}")
    no_layers = raw[:14] + struct.pack("<HI", 0, 2) + bytes(8 * 8) + struct.pack("<I", 2) + b"{}"
    # the layer count and three widths follow; then in_min = [-1, -1], whose second entry turns NaN
    assert raw[28:44] == np.array([-1.0, -1.0], "<f8").tobytes()
    nan_range = raw[:36] + np.array([np.nan], "<f8").tobytes() + raw[44:]
    # the four ranges take 64 bytes; the first weight follows, and save_model refuses a NaN there
    assert raw[92:100] == net.weights[0][0, :1].astype("<f8").tobytes()
    nan_weight = raw[:92] + np.array([np.nan], "<f8").tobytes() + raw[100:]
    for corrupt in (raw[:-2] + b"{]", raw[:8] + b"tansi\xff" + raw[14:], no_layers, nan_range, nan_weight):
        bad.write_bytes(corrupt)
        with pytest.raises(ModelFormatError) as err:
            load_model(bad)
        assert str(err.value).startswith(f"{bad}: ")


def test_save_rejects_non_finite_weights(tmp_path):
    net = small_net(TransferKind.TANSIG)
    net.weights[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        save_model(net, Normalizer.identity(2, 2), tmp_path / "x.tjn")
