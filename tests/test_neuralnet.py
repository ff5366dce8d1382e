"""Transfer functions, forward pass, loss, gradients, and model persistence."""

import math

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
    x = np.linspace(-6.0, 6.0, 101)
    assert np.max(np.abs(transfer(TransferKind.TANSIG, x) - np.tanh(x))) < 1e-15
    # overflow-free at extreme arguments
    assert transfer(TransferKind.TANSIG, 500.0) == 1.0
    assert transfer(TransferKind.TANSIG, -500.0) == -1.0
    assert np.all(np.abs(transfer(TransferKind.TANSIG, x)) < 1.0)


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
    net = small_net(TransferKind.TANSIG)
    with pytest.raises(ValueError):
        loss_mse(net, Normalizer.identity(2, 2), np.empty((0, 2)), np.empty((0, 2)))


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


def test_save_rejects_non_finite_weights(tmp_path):
    net = small_net(TransferKind.TANSIG)
    net.weights[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        save_model(net, Normalizer.identity(2, 2), tmp_path / "x.tjn")
