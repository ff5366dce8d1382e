"""Optimizer steps, stopping rules, and the full training loop."""

import hashlib
import math

import numpy as np
import pytest

from trajsurrogate.dataset import RngSeed, SampleSet
from trajsurrogate.integrator import TimeGrid
from trajsurrogate.neuralnet import (
    NetworkParams,
    Normalizer,
    TransferKind,
    forward,
    gradient,
    init_weights,
    loss_mse,
)
from trajsurrogate.training import (
    ConfigMismatchError,
    MinStepError,
    NonFiniteLossError,
    StopReason,
    TrainConfig,
    TrainMethod,
    _line_search,
    early_stop_check,
    make_state,
    pack,
    step_cg,
    step_gdx,
    step_oss,
    train,
    unpack_into,
    write_training_log,
)

from conftest import affine_sets


def quadratic_state(method=TrainMethod.CG, w0=(4.0, -3.0)):
    """Convex bowl 0.5*(w-c)' H (w-c) with known minimizer c."""
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([1.0, -2.0])

    def loss_fn(w):
        d = w - c
        return 0.5 * float(d @ H @ d)

    def grad_fn(w):
        return H @ (w - c)

    cfg = TrainConfig(method=method)
    return make_state(loss_fn, grad_fn, np.array(w0), cfg), c


def test_config_validation():
    assert TrainConfig(method="oss").method is TrainMethod.OSS
    with pytest.raises(ValueError):
        TrainConfig(method="adam")
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_down=0.0)
    TrainConfig(max_epochs=0)  # zero budget allowed


def test_pack_unpack_round_trip():
    net = init_weights([3, 4, 2], TransferKind.TANSIG, RngSeed(1, "weights"))
    vec = pack(net)
    assert vec.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    other = init_weights([3, 4, 2], TransferKind.TANSIG, RngSeed(2, "weights"))
    unpack_into(other, vec)
    for a, b in zip(other.weights + other.biases, net.weights + net.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        unpack_into(other, np.zeros(5))


def test_cg_solves_quadratic_in_two_iterations():
    state, c = quadratic_state()
    state = step_cg(state)
    state = step_cg(state)
    assert np.max(np.abs(state.w - c)) < 1e-8


def test_cg_first_direction_is_steepest_descent():
    state, _ = quadratic_state()
    g0 = state.grad.copy()
    w0 = state.w.copy()
    state = step_cg(state)
    step = state.w - w0
    cosine = step @ (-g0) / (np.linalg.norm(step) * np.linalg.norm(g0))
    assert cosine > 1.0 - 1e-12


def test_oss_first_step_is_steepest_descent_then_monotone():
    state, c = quadratic_state(method=TrainMethod.OSS)
    g0 = state.grad.copy()
    w0 = state.w.copy()
    losses = [state.loss]
    state = step_oss(state)
    step = state.w - w0
    cosine = step @ (-g0) / (np.linalg.norm(step) * np.linalg.norm(g0))
    assert cosine > 1.0 - 1e-12
    for _ in range(8):
        try:
            state = step_oss(state)
        except MinStepError:
            break  # converged to a zero gradient: nothing left to descend
        losses.append(state.loss)
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert np.max(np.abs(state.w - c)) < 1e-6


def test_cg_descends_monotonically():
    state, _ = quadratic_state()
    losses = [state.loss]
    for _ in range(6):
        try:
            state = step_cg(state)
        except MinStepError:
            break  # exact minimum reached
        losses.append(state.loss)
    assert len(losses) >= 3
    assert all(b <= a for a, b in zip(losses, losses[1:]))


def test_gdx_rejects_bad_step_and_shrinks_rate():
    # enormous rate forces the first candidate to overshoot the bowl
    state, _ = quadratic_state(method=TrainMethod.GDX)
    state.cfg = TrainConfig(method=TrainMethod.GDX, lr_initial=1e6)
    state.lr = 1e6
    state.velocity = np.ones_like(state.w)
    w0 = state.w.copy()
    loss0 = state.loss
    state = step_gdx(state)
    assert np.array_equal(state.w, w0)
    assert state.loss == loss0
    assert state.lr == pytest.approx(1e6 * 0.7)
    assert np.all(state.velocity == 0.0)


def test_gdx_accepts_good_step_and_grows_rate():
    state, _ = quadratic_state(method=TrainMethod.GDX)
    w0 = state.w.copy()
    loss0 = state.loss
    state = step_gdx(state)
    assert not np.array_equal(state.w, w0)
    assert state.loss < loss0
    assert state.lr == pytest.approx(0.01 * 1.05)


def test_gdx_with_zero_momentum_is_plain_descent():
    state, _ = quadratic_state(method=TrainMethod.GDX)
    cfg = TrainConfig(method=TrainMethod.GDX, momentum=0.0, lr_initial=1e-3)
    state.cfg = cfg
    state.lr = 1e-3
    g0 = state.grad.copy()
    w0 = state.w.copy()
    state = step_gdx(state)
    assert np.max(np.abs(state.w - (w0 - 1e-3 * g0))) < 1e-15


def test_line_search_raises_below_min_step():
    w = np.zeros(1)
    d = np.ones(1)

    def always_worse(v):
        return 1.0 if v[0] == 0.0 else 2.0

    with pytest.raises(MinStepError):
        _line_search(always_worse, w, d, loss0=1.0, slope0=-1.0, min_step=1e-6, alpha0=1.0)


def test_early_stop_semantics():
    # monotone improvement never stops
    assert not early_stop_check([5.0, 4.0, 3.0, 2.0], patience=3)
    # rising after the best trips once the streak reaches patience
    assert not early_stop_check([3.0, 4.0, 5.0], patience=3)
    assert early_stop_check([3.0, 4.0, 5.0, 6.0], patience=3)
    # staying above the best counts even when locally decreasing
    assert early_stop_check([3.0, 6.0, 5.0, 4.0], patience=3)
    # a new best resets the streak
    assert not early_stop_check([3.0, 4.0, 5.0, 2.0, 2.5], patience=3)
    # a tie with the best resets the streak as well
    assert not early_stop_check([3.0, 4.0, 5.0, 3.0, 4.0], patience=3)


def default_net(sets, kind=TransferKind.PURELIN, seed=5):
    train_set = sets[0]
    sizes = [train_set.q, 8, train_set.targets.shape[1]]
    net = init_weights(sizes, kind, RngSeed(seed, "weights"))
    norm = Normalizer.from_training(train_set.params, train_set.targets)
    return net, norm


def test_zero_budget_returns_initial_weights():
    sets = affine_sets(seed=1)
    net, norm = default_net(sets)
    before = pack(net).copy()
    result, record = train(net, norm, *sets, TrainConfig(max_epochs=0))
    assert np.array_equal(pack(result), before)
    assert record.elapsed_epochs == 0
    assert record.stop_reason is StopReason.MAX_EPOCHS
    assert record.best_epoch == 0


def test_cg_reaches_exact_affine_fit():
    sets = affine_sets(seed=2)
    net, norm = default_net(sets)
    result, record = train(net, norm, *sets, TrainConfig(method="cg", max_epochs=200))
    assert record.mse_train[-1] < 1e-10


def test_train_mse_monotone_for_cg_and_oss():
    sets = affine_sets(seed=3)
    for method in ("cg", "oss"):
        net, norm = default_net(sets)
        _, record = train(net, norm, *sets, TrainConfig(method=method, max_epochs=40))
        pairs = zip(record.mse_train, record.mse_train[1:])
        assert all(b <= a * (1 + 1e-12) for a, b in pairs)


def test_returned_weights_are_best_validation_snapshot():
    sets = affine_sets(seed=4)
    net, norm = default_net(sets, kind=TransferKind.TANSIG)
    result, record = train(net, norm, *sets, TrainConfig(method="gdx", max_epochs=60))
    got = loss_mse(result, norm, sets[1].params, sets[1].targets)
    assert math.isclose(got, min(record.mse_valid), rel_tol=1e-12)
    # record rows are epochs 1..N; epoch 0 is the untouched initial net
    assert record.best_epoch == int(np.argmin(record.mse_valid)) + 1


def test_test_set_never_influences_training():
    sets = affine_sets(seed=5)
    net1, norm = default_net(sets)
    net2 = net1.copy()
    cfg = TrainConfig(method="cg", max_epochs=30)
    with_test, rec_with = train(net1, norm, sets[0], sets[1], sets[2], cfg)
    without, rec_without = train(net2, norm, sets[0], sets[1], None, cfg)
    assert np.array_equal(pack(with_test), pack(without))
    assert rec_with.stop_reason == rec_without.stop_reason
    assert rec_with.mse_train == rec_without.mse_train
    assert all(math.isnan(v) for v in rec_without.mse_test)


def test_training_is_reproducible_bitwise():
    sets = affine_sets(seed=6)
    runs = []
    for _ in range(2):
        net, norm = default_net(sets, seed=9)
        result, record = train(net, norm, *sets, TrainConfig(method="cg", max_epochs=25))
        runs.append((pack(result), record))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1].mse_train == runs[1][1].mse_train
    assert runs[0][1].mse_valid == runs[1][1].mse_valid


def test_perfect_initial_fit_stops_on_gradient():
    sets = affine_sets(seed=7)
    net, norm = default_net(sets)
    # rebuild all targets from the net itself: gradient vanishes at epoch 0
    perfect = [
        SampleSet(s.role, s.params, forward(net, norm, s.params), s.grid) for s in sets
    ]
    _, record = train(net, norm, *perfect, TrainConfig(method="cg"))
    assert record.stop_reason is StopReason.MIN_GRADIENT
    assert record.elapsed_epochs == 0


def test_non_finite_targets_raise():
    sets = affine_sets(seed=8)
    net, norm = default_net(sets)
    bad = SampleSet(
        "train", sets[0].params, np.full_like(sets[0].targets, np.inf), sets[0].grid
    )
    with pytest.raises(NonFiniteLossError):
        train(net, norm, bad, sets[1], sets[2], TrainConfig(method="gdx", max_epochs=5))


def test_incompatible_shapes_raise():
    sets = affine_sets(seed=9)
    net, norm = default_net(sets)
    wrong_q = init_weights([2, 8, 5], TransferKind.PURELIN, RngSeed(1, "weights"))
    with pytest.raises(ConfigMismatchError):
        train(wrong_q, norm, *sets, TrainConfig())
    wrong_m = init_weights([3, 8, 4], TransferKind.PURELIN, RngSeed(1, "weights"))
    with pytest.raises(ConfigMismatchError):
        train(wrong_m, norm, *sets, TrainConfig())


def test_hardlim_training_freezes_hidden_layers():
    sets = affine_sets(seed=10)
    net, norm = default_net(sets, kind=TransferKind.HARDLIM)
    frozen_w = net.weights[0].copy()
    frozen_b = net.biases[0].copy()
    loss_before = loss_mse(net, norm, sets[0].params, sets[0].targets)
    result, record = train(net, norm, *sets, TrainConfig(method="cg", max_epochs=50))
    assert np.array_equal(result.weights[0], frozen_w)
    assert np.array_equal(result.biases[0], frozen_b)
    assert result.hidden_transfer is TransferKind.HARDLIM
    assert record.mse_train[-1] < loss_before
    # returned prediction really uses the trained output layer
    got = loss_mse(result, norm, sets[0].params, sets[0].targets)
    assert got < loss_before


def test_training_log_format(tmp_path):
    sets = affine_sets(seed=11)
    net, norm = default_net(sets)
    _, record = train(net, norm, *sets, TrainConfig(method="gdx", max_epochs=7))
    path = tmp_path / "log.csv"
    write_training_log(record, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mse_train,mse_valid,mse_test"
    assert lines[-2] == f"# stop_reason,{record.stop_reason.value}"
    assert lines[-1] == f"# best_epoch,{record.best_epoch}"
    data_rows = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data_rows) == record.elapsed_epochs
    first = data_rows[0].split(",")
    assert first[0] == "1"
    assert float(first[1]) == record.mse_train[0]


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


# Recorded before losses and gradients ran on weight views, on pre-normalized
# inputs and on the kept forward pass: those changes must not move a bit.
# (epochs, stop reason, sha256 of mse_train + mse_valid + mse_test, sha256 of pack(result))
_RECORDED_FITS = {
    ("cg", TransferKind.PURELIN): (
        36, StopReason.MIN_GRADIENT,
        "0c08f3c244da84e82a73ea716d367e87919ee29ead824d83590182b03f2ad758",
        "cc9fbebbc6967391499468f3d85cf8d4af544fd336fe62e8982d8461adfd9580",
    ),
    ("oss", TransferKind.TANSIG): (
        40, StopReason.MAX_EPOCHS,
        "b5e70feeb1f5b0e9603750ba033c39451b8390ae5b41b24404d6887093a7da6a",
        "2bc971f92909f69b840778c91d48cd570b9f707d4171186ecfa9f157e6245e7c",
    ),
    ("gdx", TransferKind.HARDLIM): (
        40, StopReason.MAX_EPOCHS,
        "2836e192544c40e1337890d83b785fb88b9489a4af016c419f0abd522dbc0fcb",
        "f4afd6356f5279cd55c4bd04862ca22c64191af9471575c09d39d368efcc08f0",
    ),
}


@pytest.mark.parametrize("method, kind", list(_RECORDED_FITS))
def test_fit_matches_recorded_iterates_bitwise(method, kind):
    sets = affine_sets(seed=12)
    q, m = sets[0].q, sets[0].targets.shape[1]
    net = init_weights([q, 16, 16, m], kind, RngSeed(13, "weights"))
    norm = Normalizer.from_training(sets[0].params, sets[0].targets)
    result, record = train(net, norm, *sets, TrainConfig(method=method, max_epochs=40))
    epochs, stop, record_sha, weights_sha = _RECORDED_FITS[method, kind]
    assert (record.elapsed_epochs, record.stop_reason) == (epochs, stop)
    assert _digest(record.mse_train + record.mse_valid + record.mse_test) == record_sha
    assert _digest(pack(result)) == weights_sha


@pytest.mark.parametrize("kind", list(TransferKind))
def test_gradient_on_kept_forward_pass_is_bitwise_fresh(kind):
    sets = affine_sets(seed=13)
    s = sets[0]
    net = init_weights([s.q, 16, 16, s.targets.shape[1]], kind, RngSeed(14, "weights"))
    norm = Normalizer.from_training(s.params, s.targets)
    z = norm.normalize_in(s.params)
    kept = []
    loss = loss_mse(net, norm, z, s.targets, normalized=True, keep=kept)
    assert loss == loss_mse(net, norm, s.params, s.targets)
    fresh = gradient(net, norm, s.params, s.targets)
    for reused in (gradient(net, norm, z, s.targets, normalized=True, fp=kept[0]),
                   gradient(net, norm, z, s.targets, normalized=True)):
        for a, b in zip(fresh.weights + fresh.biases, reused.weights + reused.biases):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("method, kind", list(_RECORDED_FITS))
def test_train_leaves_caller_arrays_unchanged(method, kind):
    sets = affine_sets(seed=14)
    net, norm = default_net(sets, kind=kind)
    arrays = net.weights + net.biases + [a for s in sets for a in (s.params, s.targets)]
    before = [a.copy() for a in arrays]
    result, _ = train(net, norm, *sets, TrainConfig(method=method, max_epochs=10))
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    assert not any(np.shares_memory(a, b) for a in result.weights + result.biases for b in arrays)
