"""Sampling, target generation, and dataset persistence."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsurrogate import dataset
from trajsurrogate.dataset import (
    DatasetFormatError,
    RngSeed,
    SampleSet,
    TargetGenerationError,
    export_dataset_csv,
    failed_rows,
    generate_targets,
    load_dataset,
    sample_parameters,
    save_dataset,
)
from trajsurrogate.dynsys import ParameterDomain, SystemSpec, circuit_system, default_domain
from trajsurrogate.integrator import (
    IntegrationError,
    StepUnderflowError,
    TimeGrid,
    ToleranceSettings,
    integrate,
    solve_trajectory,
)

from conftest import decay_system


# module-level pieces so the SystemSpec survives pickling into worker processes
def _unit_mass(p):
    return np.eye(1)


def _decay_rhs(t, x, p):
    return -p[0] * x


def _decay_jac(t, x, p):
    return np.array([[-p[0]]])


def _first_component(x):
    return float(x[0])


def _unit_initial(p):
    return np.array([1.0])


def parametric_decay(tf: float = 1.0) -> SystemSpec:
    """Scalar ODE x' = -p0*x; closed form exp(-p0*t)."""
    return SystemSpec(
        dim=1,
        mass=_unit_mass,
        rhs=_decay_rhs,
        qoi=_first_component,
        initial=_unit_initial,
        t0=0.0,
        tf=tf,
        jac=_decay_jac,
    )


def unbounded_decay() -> SystemSpec:
    """parametric_decay on [0, inf): refused at construction."""
    return parametric_decay(tf=math.inf)


def nan_end_decay() -> SystemSpec:
    """parametric_decay ending at NaN: refused at construction."""
    return parametric_decay(tf=math.nan)


def _relaxation_rhs(t, x, p):
    return -p[0] * (x - 1.0)


def _zero_initial(p):
    return np.zeros(1)


def late_relaxation() -> SystemSpec:
    """x' = -p0*(x - 1) from x = 0 on [1e6, 1e6 + 1], where t's spacing is
    1.16e-10: rows with a large p0 ask for a step that leaves t unchanged."""
    return dataclasses.replace(
        parametric_decay(), rhs=_relaxation_rhs, initial=_zero_initial, t0=1e6, tf=1e6 + 1.0
    )


def _blowup_rhs(t, x, p):
    return p[0] * x * x


def _blowup_jac(t, x, p):
    return np.array([[2.0 * p[0] * x[0]]])


def blowup_system() -> SystemSpec:
    """x' = p0*x^2 from x(0)=1 blows up at t = 1/p0; rows with p0 > 1 fail."""
    return SystemSpec(
        dim=1,
        mass=_unit_mass,
        rhs=_blowup_rhs,
        qoi=_first_component,
        initial=_unit_initial,
        t0=0.0,
        tf=1.0,
        jac=_blowup_jac,
    )


def _two_entries(t, x, p):
    return np.zeros(2)


def misshaped_system() -> SystemSpec:
    """The circuit with an rhs that returns 2 entries for dim = 3."""
    return dataclasses.replace(circuit_system(), rhs=_two_entries)


def decay_without_jac() -> SystemSpec:
    """parametric_decay with a finite-difference Jacobian."""
    return dataclasses.replace(parametric_decay(), jac=None)


def _unit_mass_list(p):
    return _unit_mass(p).tolist()


def _decay_rhs_list(t, x, p):
    return _decay_rhs(t, x, p).tolist()


def _unit_initial_tuple(p):
    return tuple(_unit_initial(p).tolist())


def listed_decay() -> SystemSpec:
    """decay_without_jac with callables that return lists and tuples."""
    return dataclasses.replace(
        decay_without_jac(), mass=_unit_mass_list, rhs=_decay_rhs_list, initial=_unit_initial_tuple
    )


def _dae_mass(p):
    return np.diag([1.0, 0.0])


def _dae_rhs(t, x, p):
    return np.array([-p[0] * x[0], x[0] - x[1]])


def _dae_jac(t, x, p):
    return np.array([[-p[0], 0.0], [1.0, -1.0]])


def _dae_initial(p):
    return np.ones(2)


def _second_component(x):
    return float(x[1])


def parametric_dae() -> SystemSpec:
    """Index-1 DAE x1' = -p0*x1, 0 = x1 - x2; the QoI x2 is exp(-p0*t)."""
    return SystemSpec(
        dim=2,
        mass=_dae_mass,
        rhs=_dae_rhs,
        qoi=_second_component,
        initial=_dae_initial,
        t0=0.0,
        tf=1.0,
        jac=_dae_jac,
    )


def _dae_mass_list(p):
    return _dae_mass(p).tolist()


def _dae_rhs_list(t, x, p):
    return _dae_rhs(t, x, p).tolist()


def _dae_jac_list(t, x, p):
    return _dae_jac(t, x, p).tolist()


def _dae_initial_tuple(p):
    return tuple(_dae_initial(p).tolist())


def listed_dae() -> SystemSpec:
    """parametric_dae with callables that return lists and tuples."""
    return dataclasses.replace(
        parametric_dae(), mass=_dae_mass_list, rhs=_dae_rhs_list, jac=_dae_jac_list,
        initial=_dae_initial_tuple,
    )


def _identity_mass(p):
    return np.eye(2)


def _late_ragged_rhs(t, x, p):
    # well-formed at the domain midpoint; ragged once x0 decays below 0.5
    return [-p[0] * x[0], [0.0] if x[0] < 0.5 else 0.0]


def late_ragged_rhs() -> SystemSpec:
    """x0' = -p0*x0, x1' = 0 from x = [1, 1], without jac: the rhs turns
    ragged partway through a solve when p0 > ln 2."""
    return SystemSpec(
        dim=2,
        mass=_identity_mass,
        rhs=_late_ragged_rhs,
        qoi=_first_component,
        initial=_dae_initial,
        t0=0.0,
        tf=1.0,
    )


def _late_short_rhs(t, x, p):
    # well-formed at the domain midpoint; one entry short once x0 decays below 0.5
    return [-p[0] * x[0]] + ([] if x[0] < 0.5 else [0.0])


def _late_long_rhs(t, x, p):
    # well-formed at the domain midpoint; one entry too many once x0 decays below 0.5
    return [-p[0] * x[0], 0.0] + ([0.0] if x[0] < 0.5 else [])


def _singular_mass(p):
    return np.ones((2, 2))


def singular_mass_ode() -> SystemSpec:
    """x1' + x2' = -p0*x1 and x1' + x2' = -p0*x2: the mass [[1, 1], [1, 1]]
    is singular but has no zero row, so it does not determine x'(t0)."""
    return SystemSpec(
        dim=2,
        mass=_singular_mass,
        rhs=_decay_rhs,
        qoi=_first_component,
        initial=_dae_initial,
        t0=0.0,
        tf=1.0,
    )


def test_seed_rejects_unknown_stream():
    with pytest.raises(ValueError):
        RngSeed(1, "gibberish")
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)


def test_same_seed_reproduces_samples():
    domain = default_domain()
    a = sample_parameters(domain, 40, RngSeed(7))
    b = sample_parameters(domain, 40, RngSeed(7))
    assert np.array_equal(a, b)


def test_streams_are_independent():
    domain = default_domain()
    a = sample_parameters(domain, 10, RngSeed(7, "sampling"))
    b = sample_parameters(domain, 10, RngSeed(7, "weights"))
    assert not np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    k=st.integers(min_value=1, max_value=50),
)
def test_samples_stay_inside_domain(seed, k):
    domain = default_domain()
    draws = sample_parameters(domain, k, RngSeed(seed))
    assert draws.shape == (k, domain.dim)
    assert np.all(draws >= domain.lower)
    assert np.all(draws <= domain.upper)


def test_degenerate_domain_returns_lower_bound():
    domain = ParameterDomain(lower=np.array([1.5, -2.0]), upper=np.array([1.5, -2.0]))
    draws = sample_parameters(domain, 8, RngSeed(0))
    assert np.array_equal(draws, np.tile([1.5, -2.0], (8, 1)))


def test_sample_mean_approaches_midpoint():
    domain = default_domain()
    draws = sample_parameters(domain, 100_000, RngSeed(42))
    mid = domain.midpoint()
    span = domain.upper - domain.lower
    assert np.all(np.abs(draws.mean(axis=0) - mid) < 0.01 * span)


def test_sample_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        sample_parameters(default_domain(), 0, RngSeed(1))


def test_single_row_matches_solve_trajectory():
    spec = parametric_decay()
    grid = TimeGrid.for_system(spec, m=9)
    tol = ToleranceSettings()
    params = np.array([[0.7]])
    got = generate_targets(spec, params, grid, tol)
    want = solve_trajectory(spec, params[0], grid, tol)
    assert np.array_equal(got[0], want)
    # default tolerances are rtol=1e-4; global error stays below ~10x that
    assert np.max(np.abs(got[0] - np.exp(-0.7 * grid.points))) < 1e-3


def test_parallel_generation_matches_serial():
    spec = parametric_decay()
    grid = TimeGrid.for_system(spec, m=6)
    params = sample_parameters(
        ParameterDomain(lower=np.array([0.2]), upper=np.array([3.0])), 11, RngSeed(5)
    )
    serial = generate_targets(spec, params, grid, workers=1)
    parallel = generate_targets(spec, params, grid, workers=3)
    assert np.array_equal(serial, parallel)


def test_abort_reports_first_failing_row(monkeypatch):
    spec = blowup_system()
    grid = TimeGrid.for_system(spec, m=4)
    tol = ToleranceSettings()
    params = np.array([[0.1], [5.0], [0.2], [8.0]])
    with pytest.raises(TargetGenerationError) as err:
        generate_targets(spec, params, grid, tol, on_failure="abort", workers=2)
    assert err.value.row == 1
    solved = []

    def counting_solve(spec, row, grid, tol):
        solved.append(row[0])
        return solve_trajectory(spec, row, grid, tol)

    monkeypatch.setattr(dataset, "solve_trajectory", counting_solve)
    with pytest.raises(TargetGenerationError) as err:
        generate_targets(spec, params, grid, tol, on_failure="abort")
    assert err.value.row == 1
    # no row after the first failure is solved
    assert solved == [0.1, 5.0]
    # the integrator's own exception, not a wrapper around its message
    assert isinstance(err.value.cause, IntegrationError)
    assert str(err.value) == f"integration failed for sample row 1: {err.value.cause}"


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def map(self, fn, rows):
        return map(fn, rows)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the pools generate_targets starts, on four usable CPUs, with no process started."""
    sizes = []
    monkeypatch.setattr(dataset, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(sizes, max_workers))
    monkeypatch.setattr(dataset.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return sizes


def test_pool_is_capped_by_rows_and_usable_cpus(monkeypatch, pool_sizes):
    spec = parametric_decay()
    grid = TimeGrid.for_system(spec, m=3)
    params = np.linspace(0.5, 1.5, 10)[:, None]
    serial = generate_targets(spec, params, grid)
    for workers, k in ((64, 3), (64, 10), (3, 10), (1, 10), (64, 1)):
        assert np.array_equal(generate_targets(spec, params[:k], grid, workers=workers), serial[:k])
    assert pool_sizes == [3, 4, 3]
    # without an affinity mask the CPU count bounds the pool
    monkeypatch.delattr(dataset.os, "sched_getaffinity")
    monkeypatch.setattr(dataset.os, "cpu_count", lambda: 2)
    generate_targets(spec, params, grid, workers=64)
    assert pool_sizes == [3, 4, 3, 2]


def test_unpicklable_system_fails_before_any_solve(monkeypatch, pool_sizes):
    solved = []
    monkeypatch.setattr(dataset, "solve_trajectory", lambda *args: solved.append(args))
    spec = decay_system()  # built from lambdas
    with pytest.raises(ValueError, match="generation.workers = 1"):
        generate_targets(spec, np.zeros((4, 1)), TimeGrid.for_system(spec, m=3), workers=2)
    assert pool_sizes == []
    assert solved == []


def test_skip_leaves_nan_rows():
    spec = blowup_system()
    grid = TimeGrid.for_system(spec, m=4)
    tol = ToleranceSettings()
    params = np.array([[0.1], [5.0], [0.2], [8.0]])
    targets = generate_targets(spec, params, grid, tol, on_failure="skip")
    assert failed_rows(targets).tolist() == [1, 3]
    good = [0, 2]
    assert np.all(np.isfinite(targets[good]))
    assert np.all(np.isnan(targets[[1, 3]]))
    pooled = generate_targets(spec, params, grid, tol, on_failure="skip", workers=2)
    assert np.array_equal(pooled, targets, equal_nan=True)


def test_step_that_does_not_advance_t_fails_only_its_row(caplog):
    # the error control asks for steps of about 1e-11 at t = 1e6: above the
    # 1e-14 step floor, but below half of t's ulp, so t + h == t
    spec = late_relaxation()
    for rate in (1e6, 1e9):
        with pytest.raises(StepUnderflowError, match="does not advance t"):
            integrate(spec, np.array([rate]))
    params = np.array([[1.0], [1e6]])
    targets = generate_targets(spec, params, TimeGrid.for_system(spec, m=4), on_failure="skip")
    assert failed_rows(targets).tolist() == [1]
    assert np.all(np.isfinite(targets[0]))
    assert "skipped sample row 1: step " in caplog.text


def test_rhs_that_turns_ragged_fails_only_its_row(caplog):
    spec = late_ragged_rhs()
    grid = TimeGrid.for_system(spec, m=5)
    params = np.array([[0.5], [3.0]])  # x0 stays above 0.5 on row 0 only
    targets = generate_targets(spec, params, grid, on_failure="skip")
    assert failed_rows(targets).tolist() == [1]
    assert np.all(np.isfinite(targets[0]))
    assert "skipped sample row 1: rhs returned a ragged sequence" in caplog.text
    with pytest.raises(TargetGenerationError) as err:
        generate_targets(spec, params, grid, on_failure="abort")
    assert err.value.row == 1
    assert isinstance(err.value.cause, IntegrationError)
    assert str(err.value).startswith("integration failed for sample row 1: rhs returned")


@pytest.mark.parametrize("rhs, shape", [(_late_short_rhs, "(1,)"), (_late_long_rhs, "(3,)")],
                         ids=["short", "long"])
def test_rhs_that_turns_short_or_long_fails_only_its_row(caplog, rhs, shape):
    spec = dataclasses.replace(late_ragged_rhs(), rhs=rhs)
    grid = TimeGrid.for_system(spec, m=5)
    params = np.array([[0.5], [3.0]])  # x0 stays above 0.5 on row 0 only
    targets = generate_targets(spec, params, grid, on_failure="skip")
    assert failed_rows(targets).tolist() == [1]
    assert np.all(np.isfinite(targets[0]))
    message = f"rhs returned float64 of shape {shape}, but dim = 2 needs real values of shape (2,)"
    assert f"skipped sample row 1: {message}" in caplog.text
    with pytest.raises(TargetGenerationError) as err:
        generate_targets(spec, params, grid, on_failure="abort")
    assert err.value.row == 1
    assert isinstance(err.value.cause, IntegrationError)
    assert str(err.value) == f"integration failed for sample row 1: {message}"


def _qoi_lost_below_a_tenth(x):
    return float(x[0]) if x[0] >= 0.1 else math.nan


def test_non_finite_trajectory_fails_only_its_row(caplog):
    grid = TimeGrid(0.0, 1.0, 4)
    spec = dataclasses.replace(decay_system(), qoi=lambda x: math.nan)
    with pytest.raises(IntegrationError, match="^non-finite values in resampled trajectory$"):
        solve_trajectory(spec, None, grid)
    spec = dataclasses.replace(parametric_decay(), qoi=_qoi_lost_below_a_tenth)
    params = np.array([[0.5], [5.0]])  # exp(-p0) stays above 0.1 on row 0 only
    targets = generate_targets(spec, params, grid, on_failure="skip")
    assert failed_rows(targets).tolist() == [1]
    assert np.all(np.isnan(targets[1]))
    assert np.allclose(targets[0], np.exp(-0.5 * grid.points), rtol=1e-3)
    assert "skipped sample row 1: non-finite values in resampled trajectory" in caplog.text


def test_singular_mass_ode_is_an_integration_error():
    with pytest.raises(IntegrationError, match="not semi-explicit index 1"):
        integrate(singular_mass_ode(), np.array([1.0]))


def test_generate_rejects_unknown_policy():
    spec = parametric_decay()
    with pytest.raises(ValueError):
        generate_targets(spec, np.array([[1.0]]), TimeGrid.for_system(spec, 3), on_failure="retry")


def test_sample_set_validates_shapes():
    grid = TimeGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        SampleSet("train", np.zeros((2, 1)), np.zeros((3, 3)), grid)
    with pytest.raises(ValueError):
        SampleSet("train", np.zeros((2, 1)), np.zeros((2, 4)), grid)
    with pytest.raises(ValueError, match="grid expects 3"):
        SampleSet("train", np.zeros((0, 1)), np.zeros((0, 4)), grid)
    with pytest.raises(ValueError):
        SampleSet("holdout", np.zeros((2, 1)), np.zeros((2, 3)), grid)


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    grid = TimeGrid(0.0, 0.5, 7)
    original = SampleSet(
        "validation",
        rng.standard_normal((5, 4)),
        rng.standard_normal((5, 7)),
        grid,
        seed=RngSeed(99, "sampling"),
    )
    path = tmp_path / "set.ds"
    save_dataset(original, path)
    loaded = load_dataset(path)
    assert loaded.role == original.role
    assert np.array_equal(loaded.params, original.params)
    assert np.array_equal(loaded.targets, original.targets)
    assert loaded.grid == original.grid
    assert loaded.seed == original.seed


def test_round_trip_without_seed_and_empty(tmp_path):
    grid = TimeGrid(0.0, 1.0, 4)
    empty = SampleSet("test", np.empty((0, 2)), np.empty((0, 4)), grid)
    path = tmp_path / "empty.ds"
    save_dataset(empty, path)
    loaded = load_dataset(path)
    assert loaded.seed is None
    assert loaded.k == 0
    assert loaded.grid == grid


# The bytes of save_dataset on sets built from literal arrays, so that no BLAS
# or SIMD kernel enters them.  (name, sha256 of the file)
_PINNED_DATASET_FILES = {
    "seeded": "a26b0fe9dac6ae1df6e8ba06392500849365429c19db6b298a17b858678f0478",
    "unseeded, empty": "eb574eba3c62fc8bf55454edc996433ba29391074651226cb2580777a2b8c46c",
}


def _pinned_sets():
    seeded = SampleSet(
        "validation",
        np.array([[0.25, -1.5], [3.0, 1e-300], [-0.0, 7.125]]),
        np.array([[1.0, -2.0, 0.1], [4.5, 5e-324, -6.0], [1e300, 0.3, -0.7]]),
        TimeGrid(0.0, 0.5, 3),
        seed=RngSeed(2**63 + 5, "sampling"),
    )
    empty = SampleSet("test", np.empty((0, 2)), np.empty((0, 4)), TimeGrid(-1.0, 2.5, 4))
    return {"seeded": seeded, "unseeded, empty": empty}


@pytest.mark.parametrize("name", sorted(_PINNED_DATASET_FILES))
def test_dataset_file_bytes_match_recorded_digest(tmp_path, name):
    path = tmp_path / "pinned.ds"
    save_dataset(_pinned_sets()[name], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_DATASET_FILES[name]


def test_row_count_beyond_the_file_is_truncation(tmp_path):
    grid = TimeGrid(0.0, 1.0, 2)
    path = tmp_path / "huge.ds"
    save_dataset(SampleSet("train", np.ones((1, 1)), np.ones((1, 2)), grid), path)
    raw = path.read_bytes()
    # magic, version and the role "train" take 13 bytes; q, m and k follow
    assert raw[13:29] == struct.pack("<IIQ", 1, 2, 1)
    path.write_bytes(raw[:13] + struct.pack("<IIQ", 1, 2, 2**63) + raw[29:])
    with pytest.raises(DatasetFormatError, match="truncated file"):
        load_dataset(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ds"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_unknown_version(tmp_path):
    grid = TimeGrid(0.0, 1.0, 2)
    sample_set = SampleSet("train", np.zeros((1, 1)), np.zeros((1, 2)), grid)
    path = tmp_path / "v.ds"
    save_dataset(sample_set, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 42)
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_truncation_and_trailing_bytes(tmp_path):
    grid = TimeGrid(0.0, 1.0, 2)
    sample_set = SampleSet("train", np.ones((2, 1)), np.ones((2, 2)), grid)
    path = tmp_path / "t.ds"
    save_dataset(sample_set, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(DatasetFormatError):
        load_dataset(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_load_rejects_fields_the_objects_refuse(tmp_path):
    grid = TimeGrid(0.0, 1.0, 2)
    sample_set = SampleSet("train", np.ones((1, 1)), np.ones((1, 2)), grid, RngSeed(1, "sampling"))
    path = tmp_path / "f.ds"
    save_dataset(sample_set, path)
    raw = path.read_bytes()
    # magic, version, the role "train" and the sizes take the first 29 bytes; t0 and tf follow
    assert raw[8:13] == b"train" and raw[29:45] == struct.pack("<dd", 0.0, 1.0)
    unknown_role = raw.replace(b"train", b"trian", 1)
    unknown_stream = raw.replace(b"sampling", b"samplinG", 1)
    empty_span = raw[:29] + struct.pack("<dd", 1.0, 1.0) + raw[45:]
    nan_start = raw[:29] + struct.pack("<d", math.nan) + raw[37:]
    # the payload closes the file: one parameter, then two targets
    assert raw[-24:] == struct.pack("<ddd", 1.0, 1.0, 1.0)
    nan_param = raw[:-24] + struct.pack("<d", math.nan) + raw[-16:]
    inf_target = raw[:-8] + struct.pack("<d", math.inf)
    for corrupt in (unknown_role, unknown_stream, empty_span, nan_start, nan_param, inf_target):
        path.write_bytes(corrupt)
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("field, value", [("params", math.nan), ("targets", -math.inf)])
def test_save_refuses_non_finite_values(tmp_path, field, value):
    sample_set = SampleSet("train", np.ones((2, 1)), np.ones((2, 2)), TimeGrid(0.0, 1.0, 2))
    getattr(sample_set, field)[1, 0] = value
    path = tmp_path / "n.ds"
    with pytest.raises(ValueError, match="^non-finite values$"):
        save_dataset(sample_set, path)
    assert not path.exists()


def test_csv_export_header_and_values(tmp_path):
    grid = TimeGrid(0.0, 1.0, 2)
    sample_set = SampleSet(
        "test", np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0, 6.0], [7.0, 8.0]]), grid
    )
    path = tmp_path / "set.csv"
    export_dataset_csv(sample_set, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "p1,p2,y1,y2"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, np.array([[1, 2, 5, 6], [3, 4, 7, 8]], dtype=float))
    export_dataset_csv(SampleSet("test", np.empty((0, 2)), np.empty((0, 2)), grid), path)
    assert path.read_text() == "p1,p2,y1,y2\n"


def test_decay_targets_match_closed_form():
    spec = decay_system(rate=1.0, tf=1.0)
    grid = TimeGrid.for_system(spec, m=10)
    targets = generate_targets(spec, np.zeros((3, 1)), grid)
    exact = np.exp(-grid.points)
    for row in targets:
        assert np.max(np.abs(row - exact)) < 1e-3
    assert math.isclose(grid.dt, 0.1)
