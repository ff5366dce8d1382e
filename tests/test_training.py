"""Optimizer steps, stopping rules, and the full training loop."""

import hashlib
import math

import numpy as np
import pytest

from trajsurrogate import training
from trajsurrogate.dataset import RngSeed, SampleSet
from trajsurrogate.dynsys import DimensionMismatchError
from trajsurrogate.integrator import TimeGrid
from trajsurrogate.neuralnet import (
    ForwardPass,
    NetworkParams,
    Normalizer,
    OutputFactors,
    TransferKind,
    _ChainPass,
    _FactoredPass,
    _chain_is_cheaper,
    _forward_stack,
    _prefixes,
    forward,
    gradient,
    hidden_features,
    init_weights,
    loss_mse,
)
from trajsurrogate.training import (
    MinStepError,
    NonFiniteLossError,
    StopReason,
    TrainConfig,
    TrainMethod,
    _line_search,
    _view,
    early_stop_check,
    make_state,
    pack,
    step_cg,
    step_gdx,
    step_oss,
    train,
    write_training_log,
)

from conftest import affine_sets, kernel_note


def quadratic_state(w0=(4.0, -3.0)):
    """Convex bowl 0.5*(w-c)' H (w-c) with known minimizer c."""
    H = np.array([[2.0, 0.3], [0.3, 1.0]])
    c = np.array([1.0, -2.0])

    def loss_fn(w):
        d = w - c
        return 0.5 * float(d @ H @ d)

    def grad_fn(w):
        return H @ (w - c)

    return make_state(loss_fn, grad_fn, np.array(w0)), c


def test_config_validation():
    assert TrainConfig(method="oss").method is TrainMethod.OSS
    assert TrainConfig(method=TrainMethod.GDX).method is TrainMethod.GDX
    for not_a_method in ("adam", None, 3):
        with pytest.raises(ValueError):
            TrainConfig(method=not_a_method)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    for not_an_int in ("2", 2.0, True):
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=not_an_int)
    TrainConfig(max_epochs=0)  # zero budget allowed


def test_pack_unpack_round_trip():
    net = init_weights([3, 4, 2], TransferKind.TANSIG, RngSeed(1, "weights"))
    vec = pack(net)
    assert vec.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    template = init_weights([3, 4, 2], TransferKind.TANSIG, RngSeed(2, "weights"))
    other = _view(template, vec)
    for a, b in zip(other.weights + other.biases, net.weights + net.biases):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        _view(template, np.zeros(5))


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
    state, c = quadratic_state()
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


def test_oss_degenerate_secant_falls_back_to_steepest_descent():
    state, _ = quadratic_state()
    first, _ = quadratic_state()
    g0 = state.grad.copy()
    # a previous step whose gradient change y is zero, so s'y = 0
    state.direction = np.array([1.0, 0.5])
    state.alpha_prev = 0.5
    state.grad_prev = state.grad.copy()
    state = step_oss(state)
    assert np.array_equal(state.direction, -g0)
    # the same step as the first one, which has no previous step at all
    first = step_oss(first)
    assert state.w.tobytes() == first.w.tobytes()


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
    state, _ = quadratic_state()
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
    state, _ = quadratic_state()
    w0 = state.w.copy()
    loss0 = state.loss
    state = step_gdx(state)
    assert not np.array_equal(state.w, w0)
    assert state.loss < loss0
    assert state.lr == pytest.approx(0.01 * 1.05)


def test_gdx_first_step_from_rest_is_damped_descent():
    # from zero velocity the momentum term vanishes: w1 = w0 - (1 - 0.9) * lr * g0
    state, _ = quadratic_state()
    state.lr = 1e-3
    g0 = state.grad.copy()
    w0 = state.w.copy()
    state = step_gdx(state)
    assert np.max(np.abs(state.w - (w0 - (1.0 - 0.9) * 1e-3 * g0))) < 1e-15


def test_line_search_raises_below_min_step():
    w = np.zeros(1)
    d = np.ones(1)

    def always_worse(v):
        return 1.0 if v[0] == 0.0 else 2.0

    with pytest.raises(MinStepError):
        _line_search(always_worse, w, d, loss0=1.0, slope0=-1.0, alpha0=1.0)


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
    other = affine_sets(seed=50)[2]  # another affine map, same shape and grid
    assert other.params.shape == sets[2].params.shape and other.grid == sets[2].grid
    net, norm = default_net(sets)
    cfg = TrainConfig(method="cg", max_epochs=30)
    first, rec_first = train(net, norm, sets[0], sets[1], sets[2], cfg)
    second, rec_second = train(net, norm, sets[0], sets[1], other, cfg)
    assert pack(first).tobytes() == pack(second).tobytes()
    assert rec_first.stop_reason == rec_second.stop_reason
    assert rec_first.best_epoch == rec_second.best_epoch
    assert rec_first.mse_train == rec_second.mse_train
    assert rec_first.mse_valid == rec_second.mse_valid
    assert len(rec_first.mse_test) == rec_first.elapsed_epochs > 0
    assert all(a != b for a, b in zip(rec_first.mse_test, rec_second.mse_test))


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


def test_collapsed_line_search_stops_on_min_step(monkeypatch, tmp_path):
    sets = affine_sets(seed=8)
    net, norm = default_net(sets)
    two_epochs, two_record = train(net, norm, *sets, TrainConfig(method="cg", max_epochs=2))
    calls = []
    line_search = training._line_search

    def collapse_on_third_call(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MinStepError("line-search step below floor")
        return line_search(*args)

    monkeypatch.setattr(training, "_line_search", collapse_on_third_call)
    result, record = train(net, norm, *sets, TrainConfig(method="cg", max_epochs=10))
    assert record.stop_reason is StopReason.MIN_STEP
    assert record.elapsed_epochs == 2 and len(calls) == 3
    # the epoch that raised leaves no record, and the best of the two before it is returned
    assert (record.mse_train, record.mse_valid) == (two_record.mse_train, two_record.mse_valid)
    assert record.best_epoch == int(np.argmin(record.mse_valid)) + 1
    assert pack(result).tobytes() == pack(two_epochs).tobytes()
    path = tmp_path / "log.csv"
    write_training_log(record, path)
    assert path.read_text().splitlines()[-2] == "# stop_reason,MinStep"


def test_non_finite_targets_raise():
    # an inf target or an empty set in any role is refused before any set is
    # factored or evaluated: no RuntimeWarning (an error in this suite), and
    # no record of an inf test MSE
    sets = affine_sets(seed=8)
    for kind in TransferKind:
        net, norm = default_net(sets, kind=kind)
        for i, s in enumerate(sets):
            targets = s.targets.copy()
            targets[3, 1] = np.inf
            cases = (
                (SampleSet(s.role, s.params, targets, s.grid), NonFiniteLossError, f"{s.role} set"),
                (SampleSet(s.role, s.params[:0], s.targets[:0], s.grid), ValueError, "empty sample set"),
            )
            for bad, error, match in cases:
                roles = list(sets)
                roles[i] = bad
                with pytest.raises(error, match=match):
                    train(net, norm, *roles, TrainConfig(method="cg", max_epochs=5))


def test_incompatible_shapes_raise():
    sets = affine_sets(seed=9)
    net, norm = default_net(sets)
    wrong_q = init_weights([2, 8, 5], TransferKind.PURELIN, RngSeed(1, "weights"))
    with pytest.raises(DimensionMismatchError):
        train(wrong_q, norm, *sets, TrainConfig())
    wrong_m = init_weights([3, 8, 4], TransferKind.PURELIN, RngSeed(1, "weights"))
    with pytest.raises(DimensionMismatchError):
        train(wrong_m, norm, *sets, TrainConfig())


def test_sets_on_another_time_span_raise():
    # the widths agree, so only the span tells the sets apart
    sets = affine_sets(seed=9)
    net, norm = default_net(sets)
    for i, s in enumerate(sets[1:], start=1):
        grid = TimeGrid(s.grid.t0, 10.0 * s.grid.tf, s.grid.m)
        roles = list(sets)
        roles[i] = SampleSet(s.role, s.params, s.targets, grid)
        with pytest.raises(DimensionMismatchError, match=f"{s.role} set spans"):
            train(net, norm, *roles, TrainConfig(max_epochs=5))


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


# The tansig entry was recorded when the tansig transfer became np.tanh, which
# differs from the former formula sign(x)(1 - e^(-2|x|))/(1 + e^(-2|x|)) by at
# most 2^-52: the fit kept its 40 epochs and its MaxEpochs stop and moved in the
# last bits.  Its digests no longer follow np.exp's SIMD dispatch, so they hold
# with and without AVX-512.  The hard-limit entry was recorded when hard-limit fits
# moved to the QR factors of their fixed output-layer input (OutputFactors),
# and the purelin entry when purelin fits moved to the QR factors of [z, 1];
# both equal the layer-by-layer losses and gradients only to rounding (the
# hard-limit record moved by at most 5e-16 relative; the purelin one kept its
# epochs and stop and moved in the last bits of losses near 4e-15).
# (epochs, stop reason, sha256 of mse_train + mse_valid + mse_test, sha256 of pack(result))
_RECORDED_FITS = {
    ("cg", TransferKind.PURELIN): (
        36, StopReason.MIN_GRADIENT,
        "371a5417d2874944a66faa6d5ea4b8256c58332a991d18b833c41363a6a2c64f",
        "86b4224e6676e617026776ad0b366750ac23d7622532c4b8dbc8a9c1beb76902",
    ),
    ("oss", TransferKind.TANSIG): (
        40, StopReason.MAX_EPOCHS,
        "3c9220fdb794695ebd393c5b4a91da37d585afecd294c07229f668993e4a67a3",
        "2eae39c2d3fb01ce5de778b73134cebf3882bb0757d22de34d72274b20b8a81a",
    ),
    ("gdx", TransferKind.HARDLIM): (
        40, StopReason.MAX_EPOCHS,
        "8094e476b6b8be62465f9cd8637dc94f5e893c645875713ed16d8d7ac3543842",
        "0ce183f297bd038fb4c8487a9f7679b3c798699d2555a0311df7758f60458cc6",
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
    assert (record.elapsed_epochs, record.stop_reason) == (epochs, stop), kernel_note()
    assert _digest(record.mse_train + record.mse_valid + record.mse_test) == record_sha, kernel_note()
    assert _digest(pack(result)) == weights_sha, kernel_note()


# A net without hidden layers trains on the QR factors of [z, 1], like any
# affine net: these bits were recorded when it moved there from the
# layer-by-layer pass, keeping its epochs and stop.
_RECORDED_HIDDEN_FREE = {
    "cg": (
        18, StopReason.MIN_GRADIENT,
        "989fc04865c13613e2d0e0fe6662a663e3fa46ae7025141ee777be5912f3537b",
        "2ff51e6cf3cb6da0c635ad6c0981d7e887928bd0ca23d2c1b7d88d975e7b1e83",
    ),
    "gdx": (
        40, StopReason.MAX_EPOCHS,
        "f1ecfe8bd0924daefa041d58d518e77c53c0edc9df657a4a40375ab2e078a5b1",
        "39ff24e733e96524ccd8fadf8609b1a939bd19204e17098c355239b4533acfa6",
    ),
}


@pytest.mark.parametrize("method", list(_RECORDED_HIDDEN_FREE))
def test_hidden_free_purelin_fit_matches_recorded_iterates_bitwise(method):
    sets = affine_sets(seed=12)
    q, m = sets[0].q, sets[0].targets.shape[1]
    net = init_weights([q, m], TransferKind.PURELIN, RngSeed(13, "weights"))
    norm = Normalizer.from_training(sets[0].params, sets[0].targets)
    result, record = train(net, norm, *sets, TrainConfig(method=method, max_epochs=40))
    epochs, stop, record_sha, weights_sha = _RECORDED_HIDDEN_FREE[method]
    assert (record.elapsed_epochs, record.stop_reason) == (epochs, stop), kernel_note()
    assert _digest(record.mse_train + record.mse_valid + record.mse_test) == record_sha, kernel_note()
    assert _digest(pack(result)) == weights_sha, kernel_note()


# (epochs, stop reason, best epoch) on affine_sets seeds 11, 12, 14, 21, 22;
# the full-width path gives the same values
_PURELIN_OUTCOMES = {
    "cg": [57, 36, 48, 56, 42],
    "oss": [57, 36, 47, 56, 42],
    "gdx": [147, 152, 140, 161, 152],
}


@pytest.mark.parametrize("method", list(_PURELIN_OUTCOMES))
def test_purelin_fit_outcomes_are_pinned(method):
    outcomes = []
    for seed in (11, 12, 14, 21, 22):
        sets = affine_sets(seed=seed)
        q, m = sets[0].q, sets[0].targets.shape[1]
        net = init_weights([q, 16, 16, m], TransferKind.PURELIN, RngSeed(13, "weights"))
        norm = Normalizer.from_training(sets[0].params, sets[0].targets)
        _, record = train(net, norm, *sets, TrainConfig(method=method, max_epochs=200))
        outcomes.append((record.elapsed_epochs, record.stop_reason, record.best_epoch))
    assert outcomes == [(n, StopReason.MIN_GRADIENT, n) for n in _PURELIN_OUTCOMES[method]]


@pytest.mark.parametrize("hidden, kind, pass_type", [
    ([8], TransferKind.PURELIN, _FactoredPass),
    ([8, 6], TransferKind.PURELIN, _FactoredPass),
    ([], TransferKind.PURELIN, _FactoredPass),
    ([8], TransferKind.HARDLIM, _FactoredPass),
    ([], TransferKind.HARDLIM, _FactoredPass),
    ([], TransferKind.TANSIG, _FactoredPass),
    ([8], TransferKind.TANSIG, ForwardPass),
    ([8, 6], TransferKind.TANSIG, ForwardPass),
])
def test_train_factors_every_affine_fit(monkeypatch, hidden, kind, pass_type):
    import trajsurrogate.neuralnet as neuralnet
    import trajsurrogate.training as training

    # every net reaches the names the benchmark's tracer wraps
    calls = []
    for name in ("loss_mse", "gradient"):
        def spy(*args, _name=name, _f=getattr(training, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(training, name, spy)
    passes = []

    def pass_spy(*args, _f=neuralnet._forward_pass):
        fp = _f(*args)
        passes.append(type(fp))
        return fp

    monkeypatch.setattr(neuralnet, "_forward_pass", pass_spy)
    sets = affine_sets(seed=15)
    net = init_weights([sets[0].q, *hidden, sets[0].targets.shape[1]], kind, RngSeed(16, "weights"))
    norm = Normalizer.from_training(sets[0].params, sets[0].targets)
    train(net, norm, *sets, TrainConfig(method="cg", max_epochs=3))
    assert set(calls) == {"loss_mse", "gradient"}
    assert set(passes) == {pass_type}


@pytest.mark.parametrize("sizes", [
    [4, 2, 6],
    [4, 9, 7],
    [4, 3, 10, 6],
    [4, 12, 2, 5, 6],
])
def test_collapsed_chain_matches_full_width_loss_and_gradient(sizes):
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
    q, m, k = sizes[0], sizes[-1], 40
    params = rng.uniform(-2.0, 3.0, (k, q))
    params[:, 1] = 0.7  # an input component with zero span
    targets = rng.standard_normal((k, m)) * rng.uniform(0.5, 50.0, m)
    targets[:, 2] = -1.5  # a target column with zero range
    norm = Normalizer.from_training(params, targets)
    weights = [rng.standard_normal((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])]
    net = NetworkParams(weights, [rng.standard_normal(n) for n in sizes[1:]], TransferKind.PURELIN)
    # the oracle: the layer-by-layer pass, carried back layer by layer
    z = norm.normalize_in(params)
    acts = _forward_stack(net, z)
    layered = ForwardPass(acts, norm.denormalize_out(acts[-1] @ net.weights[-1].T + net.biases[-1]))
    diff = layered.pred - targets
    assert math.isclose(loss_mse(net, norm, params, targets), float(np.mean(diff * diff)), rel_tol=1e-12)
    full = gradient(net, norm, params, targets, fp=layered)
    kept = []
    loss_mse(net, norm, params, targets, keep=kept)
    # [4, 2, 6] is a bottleneck that 40 rows cross more cheaply layer by layer
    assert isinstance(kept[0], _ChainPass if _chain_is_cheaper(sizes, k) else ForwardPass)
    assert isinstance(kept[0], ForwardPass) == (sizes == [4, 2, 6])
    fresh = gradient(net, norm, params, targets)
    reused = gradient(net, norm, params, targets, fp=kept[0])
    for a, b, c in zip(full.weights + full.biases, fresh.weights + fresh.biases,
                       reused.weights + reused.biases):
        assert a.shape == b.shape
        assert np.max(np.abs(b - a)) <= 1e-12 * np.max(np.abs(a))
        assert b.tobytes() == c.tobytes()
    # the zero-range target column gets no gradient on either path
    for g in (full, fresh):
        assert not g.weights[-1][2].any() and g.biases[-1][2] == 0.0


@pytest.mark.parametrize("k", [40, 3])
@pytest.mark.parametrize("sizes", [[4, 2, 6], [4, 3, 10, 6], [4, 12, 2, 5, 6], [4, 6]])
def test_factored_affine_net_matches_the_row_and_chain_passes(sizes, k):
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes) + k)
    q, m = sizes[0], sizes[-1]
    params = rng.uniform(-2.0, 3.0, (k, q))
    targets = rng.standard_normal((k, m)) * rng.uniform(0.5, 50.0, m)
    targets[:, 2] = -1.5  # a target column with zero range
    norm = Normalizer.from_training(params, targets)
    weights = [rng.standard_normal((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])]
    net = NetworkParams(weights, [rng.standard_normal(n) for n in sizes[1:]], TransferKind.PURELIN)
    z = norm.normalize_in(params)
    factors = OutputFactors.of(z, norm, targets)
    assert factors.r.shape == (min(k, q + 1), q + 1)
    kept = []
    loss = loss_mse(net, norm, factors, targets, keep=kept)
    assert isinstance(kept[0], _FactoredPass)
    fresh = gradient(net, norm, factors, targets)
    reused = gradient(net, norm, factors, targets, fp=kept[0])
    for a, b in zip(fresh.weights + fresh.biases, reused.weights + reused.biases):
        assert a.tobytes() == b.tobytes()
    # the factors feed affine nets only: tansig hidden layers are refused
    tansig = NetworkParams(net.weights, net.biases, TransferKind.TANSIG)
    if tansig.n_layers > 1:
        with pytest.raises(DimensionMismatchError):
            loss_mse(tansig, norm, factors, targets)
    else:
        assert loss_mse(tansig, norm, factors, targets) == loss

    # the oracles: the layer-by-layer pass and the layer chain, on the rows
    acts = _forward_stack(net, z)
    x = np.hstack([z, np.ones((k, 1))])
    prefix = _prefixes(net)
    rows = ForwardPass(acts, norm.denormalize_out(acts[-1] @ net.weights[-1].T + net.biases[-1]))
    chain = _ChainPass(x, prefix, norm.denormalize_out(x @ prefix[-1]))
    for fp in (rows, chain):
        diff = fp.pred - targets
        assert math.isclose(loss, float(np.mean(diff * diff)), rel_tol=1e-12)
        want = gradient(net, norm, params, targets, fp=fp)
        for got, w in zip(fresh.weights + fresh.biases, want.weights + want.biases):
            assert got.shape == w.shape
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    # central differences of the factored loss
    flat = pack(net)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        h = 1e-6 * max(1.0, abs(flat[i]))
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (loss_mse(_view(net, up), norm, factors, targets)
                 - loss_mse(_view(net, down), norm, factors, targets)) / (2.0 * h)
    assert np.max(np.abs(pack(fresh) - fd)) <= 1e-6 * np.max(np.abs(fd))
    # the zero-range target column gets no gradient
    assert not fresh.weights[-1][2].any() and fresh.biases[-1][2] == 0.0


@pytest.mark.parametrize("k, n, case", [
    (40, 8, "more rows than N+1"),
    (6, 12, "fewer rows than N+1"),
    (40, 8, "constant and duplicated units"),
    (40, 8, "zero-range column off its constant"),
])
def test_factored_output_layer_matches_layer_by_layer(k, n, case):
    rng = np.random.default_rng(k * 100 + n + len(case))
    q, m = 3, 5
    net = init_weights([q, n, m], TransferKind.HARDLIM, RngSeed(1, "weights"))
    if case == "constant and duplicated units":
        net.weights[0][0], net.biases[0][0] = 0.0, 1.0  # on for every row
        net.weights[0][4], net.biases[0][4] = net.weights[0][3], net.biases[0][3]
    params = rng.uniform(-2.0, 3.0, (k, q))
    targets = rng.standard_normal((k, m)) * rng.uniform(0.5, 50.0, m)
    targets[:, 2] = -1.5  # a target column with zero range
    norm = Normalizer.from_training(params, targets)
    if case == "zero-range column off its constant":
        # a validation or test set: fresh rows, and the constant column moves
        params = rng.uniform(-2.0, 3.0, (k, q))
        targets = rng.standard_normal((k, m)) * rng.uniform(0.5, 50.0, m)
    feats = hidden_features(net, norm, params)
    a = np.hstack([feats, np.ones((k, 1))])
    assert (np.linalg.matrix_rank(a) < min(k, n + 1)) == (case == "constant and duplicated units")
    output = NetworkParams([net.weights[1]], [net.biases[1]], TransferKind.PURELIN)
    factors = OutputFactors.of(feats, norm, targets)
    assert factors.r.shape == (min(k, n + 1), n + 1)
    with pytest.raises(DimensionMismatchError):  # the factors feed the output layer only
        loss_mse(net, norm, factors, targets)

    # the oracle: the whole hard-limit net, layer by layer, on the raw inputs
    kept = []
    loss = loss_mse(output, norm, factors, targets, keep=kept)
    assert isinstance(kept[0], _FactoredPass)
    assert math.isclose(loss, loss_mse(net, norm, params, targets), rel_tol=1e-12)
    full = gradient(net, norm, params, targets)
    assert not full.weights[0].any() and not full.biases[0].any()
    for g in (gradient(output, norm, factors, targets, fp=kept[0]), gradient(output, norm, factors, targets)):
        for got, want in ((g.weights[0], full.weights[1]), (g.biases[0], full.biases[1])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # the least-squares floor on [H, 1], per target column, in raw units
    s2 = norm.output_scale() ** 2
    v = norm.normalize_out(targets)
    w_star = np.linalg.lstsq(a, v, rcond=None)[0]
    floor = float(s2 @ np.sum((a @ w_star - v) ** 2, axis=0)) / (k * m)
    rho = float(s2 @ factors.rho) / (k * m)
    if case == "fewer rows than N+1":
        assert max(floor, rho) < 1e-24 * loss  # an exact fit exists
    elif case == "constant and duplicated units":
        # Q spans more than the range of [H, 1]: rho is the residual of a wider fit
        assert rho <= floor * (1 + 1e-10)
    else:
        assert math.isclose(rho, floor, rel_tol=1e-10)
    best = NetworkParams([w_star[:-1].T], [w_star[-1]], TransferKind.PURELIN)
    at_floor = loss_mse(best, norm, factors, targets)
    assert math.isclose(at_floor, floor + factors.fixed / (k * m), rel_tol=1e-10, abs_tol=1e-24 * loss)
    assert (factors.fixed > 0.0) == (case == "zero-range column off its constant")

    # an exact fit has a small loss that rounding cannot take below zero
    exact = forward(net, norm, params)
    fit = loss_mse(output, norm, OutputFactors.of(feats, norm, exact), exact)
    assert 0.0 <= fit < 1e-24 * float(np.mean(exact * exact))


@pytest.mark.parametrize("kind", list(TransferKind))
def test_gradient_on_kept_forward_pass_is_bitwise_fresh(kind):
    sets = affine_sets(seed=13)
    s = sets[0]
    net = init_weights([s.q, 16, 16, s.targets.shape[1]], kind, RngSeed(14, "weights"))
    norm = Normalizer.from_training(s.params, s.targets)
    kept = []
    loss_mse(net, norm, s.params, s.targets, keep=kept)
    fresh = gradient(net, norm, s.params, s.targets)
    reused = gradient(net, norm, s.params, s.targets, fp=kept[0])
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
