"""Adaptive BDF integrator: error control, DAE handling, dense output."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import coupled_dae, decay_system, full_mass_ode, kernel_note
from trajsurrogate import integrator
from trajsurrogate.dynsys import PluginResultError, SystemSpec, circuit_system, default_domain
from trajsurrogate.integrator import (
    GridOutsidePathError,
    InconsistentInitialValuesError,
    IntegrationError,
    NewtonDivergenceError,
    StepBudgetExceededError,
    TimeGrid,
    ToleranceSettings,
    _Newton,
    _solve1,
    integrate,
    integrate_fixed_step,
    resample,
    solve_trajectory,
)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e-3, max_value=100.0),
    st.integers(min_value=1, max_value=500),
)
@settings(max_examples=50)
def test_time_grid_layout(t0, span, m):
    grid = TimeGrid(t0, t0 + span, m)
    pts = grid.points
    assert len(pts) == m
    assert pts[0] > t0
    assert pts[-1] == pytest.approx(grid.tf, abs=1e-12 * span)
    assert np.all(np.diff(pts) > 0)
    spacing = np.diff(pts)
    if m > 1:
        assert np.allclose(spacing, span / m, rtol=1e-9)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    # a non-finite end would put inf or NaN on every grid point
    for t0, tf in ((0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t0, tf, 4)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceSettings(rtol=-1e-4)
    # a tolerance built in code meets the same finiteness rule as a config's
    for bad in ({"rtol": math.inf}, {"atol": math.nan}):
        with pytest.raises(ValueError, match="finite and positive"):
            ToleranceSettings(**bad)


def test_step_budget_ends_the_solve(monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 5)
    with pytest.raises(StepBudgetExceededError, match="^exceeded 5 step attempts at t="):
        integrate(decay_system(), None, ToleranceSettings())


def test_decay_against_closed_form():
    spec = decay_system(rate=3.0, tf=2.0)
    tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
    path = integrate(spec, None, tol)
    assert path.times[0] == spec.t0
    assert path.times[-1] == spec.tf
    assert abs(path.states[-1, 0] - math.exp(-6.0)) < 1e-5


def test_path_times_strictly_increasing():
    spec = decay_system(rate=10.0)
    path = integrate(spec, None, ToleranceSettings())
    assert np.all(np.diff(path.times) > 0)


def test_coupled_dae_tracks_constraint():
    spec = coupled_dae()
    tol = ToleranceSettings(rtol=1e-6, atol=1e-9)
    path = integrate(spec, None, tol)
    # algebraic component equals the differential one along the whole path
    assert np.max(np.abs(path.states[:, 1] - path.states[:, 0])) < 1e-7
    # local tolerance is rtol=1e-6; accumulated global error stays within ~100x of it
    assert abs(path.states[-1, 0] - math.exp(-1.0)) < 1e-4
    assert path.algebraic.tolist() == [1]


def test_inconsistent_initial_values_raise():
    spec = coupled_dae()
    bad = SystemSpec(
        dim=2, mass=spec.mass, rhs=spec.rhs, qoi=spec.qoi,
        initial=lambda p: np.array([1.0, 0.5]), t0=0.0, tf=1.0, jac=spec.jac,
    )
    with pytest.raises(InconsistentInitialValuesError):
        integrate(bad, None, ToleranceSettings())
    with pytest.raises(InconsistentInitialValuesError):
        integrate_fixed_step(bad, None, 0.1, ToleranceSettings())


def test_index_two_system_is_rejected_at_start():
    # x1' = x2, 0 = x1 - sin t: the constraint fixes x1 but not the slope of x2
    spec = SystemSpec(
        dim=2, mass=lambda p: np.diag([1.0, 0.0]),
        rhs=lambda t, x, p: np.array([x[1], x[0] - math.sin(t)]),
        qoi=lambda x: float(x[0]), initial=lambda p: np.zeros(2), t0=0.0, tf=1.0,
        jac=lambda t, x, p: np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    with pytest.raises(IntegrationError, match="not semi-explicit index 1"):
        integrate(spec, None, ToleranceSettings())
    with pytest.raises(IntegrationError, match="not semi-explicit index 1"):
        integrate_fixed_step(spec, None, 0.1, ToleranceSettings())


def test_tighter_tolerance_reduces_error():
    spec = decay_system(rate=5.0)
    exact = math.exp(-5.0)
    errs = []
    for rtol in (1e-4, 1e-6, 1e-8):
        path = integrate(spec, None, ToleranceSettings(rtol=rtol, atol=rtol * 1e-2))
        errs.append(abs(path.states[-1, 0] - exact))
    assert errs[2] < errs[1] < errs[0]


# Recorded before the fixed-step and adaptive drivers shared their start-up and
# step formulas: that change must not move a bit of the adaptive path.
# (system, accepted steps, sha256 of times + states + derivs at default tolerances)
_RECORDED_PATHS = [
    ("circuit", 952, "d61047d11a17c2e149fdddf66ed308cf05603ae563681d53d3899717a098e3af"),
    ("circuit", 960, "353c3780cda724417b72d61671434399f5fdb1834d0adecece7d1542b3edadea"),
    ("circuit", 954, "d76f573a3cf7afe5e5210cee38f8b9b807b7880ea9f8217477de6ec94384e0b7"),
    ("circuit", 965, "8a15e7192ea9607330c5743350dda302e82bae26fd38c366d0b72faef5e79aae"),
    ("circuit", 952, "4d9c5a3d00bee3c21f6261928551e40a39fe00b4f3c9632a6712e589ca760dcf"),
    ("decay", 19, "44d00ccb48f5569b108d664b5d6aea475358c565338f086104676ef9a39fac76"),
    ("coupled_dae", 19, "c056fa610ebe7816c0912ae9a23fc273d11f0b8f0ce5fa224486519fb2abb7e2"),
    ("full_mass", 60, "2e9fa5d2d73f52e2c9c44c6876e894b735eeaef54be017f08d7dcc950cb70935"),
]


# the path must not depend on the caller's floating-point error handling
@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}])
def test_adaptive_path_matches_recorded_digests(errstate):
    domain = default_domain()
    rng = np.random.default_rng(47)
    # the domain midpoint, then four seeded points
    points = [domain.midpoint()] + [domain.lower + rng.random(4) * (domain.upper - domain.lower)
                                    for _ in range(4)]
    systems = {"circuit": circuit_system(), "decay": decay_system(), "coupled_dae": coupled_dae(),
               "full_mass": full_mass_ode()}
    got = []
    for name, _, _ in _RECORDED_PATHS:
        p = points.pop(0) if name == "circuit" else None
        with np.errstate(**errstate):
            path = integrate(systems[name], p, ToleranceSettings())
        digest = hashlib.sha256(path.times.tobytes() + path.states.tobytes() + path.derivs.tobytes())
        got.append((name, len(path.times) - 1, digest.hexdigest()))
    assert got == _RECORDED_PATHS, kernel_note()


# Recorded while Newton still damped an update whose residual could not be
# evaluated: these solves damped 6 and 30 times, never to convergence, so
# giving up at once and leaving the step to the driver's retry must not move
# a bit.  (rtol, atol, accepted steps, sha256 of times + states + derivs)
_RECORDED_LOOSE_PATHS = [
    (1e-2, 1e-4, 211, "46198f35bfa94c75a821b91bca950184169418ac7c5f8e17392f59c9f0b5cd99"),
    (5e-2, 5e-4, 136, "03f9df7d2cff5c6a3359405256366f08d46a1901fa0e1f562efdd5364df95ca3"),
]


def test_loose_tolerance_path_matches_recorded_digests():
    got = []
    for rtol, atol, _, _ in _RECORDED_LOOSE_PATHS:
        path = integrate(circuit_system(), default_domain().midpoint(), ToleranceSettings(rtol, atol))
        digest = hashlib.sha256(path.times.tobytes() + path.states.tobytes() + path.derivs.tobytes())
        got.append((rtol, atol, len(path.times) - 1, digest.hexdigest()))
    assert got == _RECORDED_LOOSE_PATHS, kernel_note()


# Recorded before the Newton iteration dropped its per-call NumPy overhead; both
# drivers share that iteration.
# (system, step, sha256 of times + states + derivs at the fixed-step tolerances)
_RECORDED_FIXED_STEP_PATHS = [
    ("decay", 1.0 / 80, "c95e35f43e060f4429a2c40949ae7a571cfe26f6fb8234c8055e2e6d18e2777e"),
    ("coupled_dae", 1.0 / 40, "5533acf3923ed047eca5d9519ef11fa42fd53205498182b31c826fe616a04e51"),
    ("circuit", 1e-4, "4ae5ef9ab74536b0e7eecec9a6d82a21f87645d40a3a407479f79456489a5ee9"),
]


def test_fixed_step_path_matches_recorded_digests():
    systems = {"circuit": circuit_system(), "decay": decay_system(), "coupled_dae": coupled_dae()}
    got = []
    for name, h, _ in _RECORDED_FIXED_STEP_PATHS:
        p = default_domain().midpoint() if name == "circuit" else None
        path = integrate_fixed_step(systems[name], p, h)
        digest = hashlib.sha256(path.times.tobytes() + path.states.tobytes() + path.derivs.tobytes())
        got.append((name, h, digest.hexdigest()))
    assert got == _RECORDED_FIXED_STEP_PATHS, kernel_note()


def _square_systems():
    """Seeded 3x3 systems: random, ill-conditioned (cond 1e12) and near-singular
    (one row the sum of the others to 1e-13, cond about 1e14)."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        yield rng.standard_normal((3, 3)), rng.standard_normal(3)
    for _ in range(100):
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        yield (u * [1.0, 1e-6, 1e-12]) @ v.T, rng.standard_normal(3)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        a[2] = a[0] + a[1] + 1e-13 * rng.standard_normal(3)
        yield a, rng.standard_normal(3)


def test_direct_lapack_solve_matches_numpy_solve_bitwise():
    for a, b in _square_systems():
        assert _solve1(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
    for a in (np.zeros((3, 3)), np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(3))
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(_solve1(a, np.ones(3))).any()


def _singular_after_start() -> SystemSpec:
    """x1' = -x1, 0 = x1 - x2, whose Jacobian loses its d/dx2 entry after the
    start-up: from then on every iteration matrix has a zero column."""
    calls = itertools.count()
    spec = coupled_dae()

    def jac(t, x, p):
        return np.array([[-1.0, 0.0], [1.0, -1.0 if next(calls) == 0 else 0.0]])

    return SystemSpec(dim=2, mass=spec.mass, rhs=spec.rhs, qoi=spec.qoi,
                      initial=spec.initial, t0=spec.t0, tf=spec.tf, jac=jac)


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}])
def test_singular_iteration_matrix_fails_quietly(errstate):
    x_pred = np.array([0.9, 0.9])
    with warnings.catch_warnings(), np.errstate(**errstate):
        warnings.simplefilter("error")
        spec = _singular_after_start()
        mass = spec.mass(None)
        newton = _Newton(spec, None, mass, ToleranceSettings())
        spec.jac(0.0, x_pred, None)  # spend the start-up Jacobian
        newton.refresh(0.1, x_pred)
        assert np.linalg.matrix_rank(10.0 * mass - newton.jac) == 1
        with np.errstate(invalid="ignore"):  # the drivers' state around solve
            x, converged, iterations = newton.solve(0.1, x_pred.tolist(), 10.0, (-x_pred / 0.1).tolist())
        assert (list(x), converged, iterations) == (x_pred.tolist(), False, 1)
        with pytest.raises(NewtonDivergenceError):
            integrate(_singular_after_start(), None, ToleranceSettings())
        with pytest.raises(NewtonDivergenceError):
            integrate_fixed_step(_singular_after_start(), None, 0.1, ToleranceSettings())


def test_newton_rejects_overflowing_and_infinite_trial_states():
    spec = circuit_system()
    p = default_domain().midpoint()
    newton = _Newton(spec, p, spec.mass_matrix(p), ToleranceSettings())
    big = np.finfo(np.float64).max
    hist = [0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert newton._try_residual(0.1, [0.0, 0.0, 0.0], 10.0, hist) is not None
        # math.exp raises OverflowError: exponent delta*u past log(float64 max), u about 1.26e4
        assert newton._try_residual(0.1, [0.0, 0.0, 1.3e4], 10.0, hist) is None
        assert newton._try_residual(0.1, [-1.3e4, 0.0, 0.0], 10.0, hist) is None
        # -(x1 + x3) rounds to +inf, so diode_current returns inf and the residual is not finite
        assert newton._try_residual(0.1, [-big, 0.0, -big], 0.5, hist) is None
        # a state at +-inf: the mass product 0*inf is invalid, which errstate raises as
        # FloatingPointError; under the drivers' errstate, which ignores invalid
        # operations, solve rejects such a start without a warning
        newton.refresh(0.1, hist)
        for inf in (math.inf, -math.inf):
            for i in range(3):
                x = [0.0, 0.0, 0.0]
                x[i] = inf
                with np.errstate(all="raise"):
                    assert newton._try_residual(0.1, x, 10.0, hist) is None, x
                with np.errstate(invalid="ignore"):
                    assert newton.solve(0.1, x, 10.0, hist) == (x, False, 0), x


def test_unevaluable_newton_update_ends_the_solve():
    # the residual is finite only at the predictor x = 1: the first full update
    # leaves a NaN residual, and the solve gives up there, keeping the predictor,
    # without trying shorter updates; the driver's retry and step halving recover
    states = []
    spec = decay_system()

    def rhs(t, x, p):
        states.append(float(x[0]))
        return -x if x[0] == 1.0 else np.full(1, math.nan)

    newton = _Newton(dataclasses.replace(spec, rhs=rhs), None, np.eye(1), ToleranceSettings())
    newton.refresh(0.1, [1.0])
    with np.errstate(invalid="ignore"):
        got = newton.solve(0.1, [1.0], 10.0, [-10.0])
    assert got == ([1.0], False, 1)
    assert states == [1.0, 1.0 - 1.0 / 11.0]


def _listed(spec: SystemSpec) -> SystemSpec:
    """The same system with mass, initial, rhs and jac returning lists or tuples."""
    jac = spec.jac
    return dataclasses.replace(
        spec,
        mass=lambda p: spec.mass(p).tolist(),
        initial=lambda p: tuple(spec.initial(p).tolist()),
        rhs=lambda t, x, p: spec.rhs(t, x, p).tolist(),
        jac=None if jac is None else lambda t, x, p: jac(t, x, p).tolist(),
    )


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}])
def test_drivers_restore_the_callers_floating_point_state(errstate, monkeypatch):
    def over_budget():
        with monkeypatch.context() as patch:
            patch.setattr(integrator, "_MAX_STEPS", 5)
            integrate(decay_system(), None, ToleranceSettings())

    runs = [
        (lambda: integrate(decay_system(), None, ToleranceSettings()), None),
        (lambda: integrate_fixed_step(decay_system(), None, 0.05), None),
        (lambda: integrate(_singular_after_start(), None, ToleranceSettings()), NewtonDivergenceError),
        (lambda: integrate_fixed_step(_singular_after_start(), None, 0.1), NewtonDivergenceError),
        (over_budget, StepBudgetExceededError),
    ]
    with np.errstate(**errstate):
        before = np.geterr()
        for run, error in runs:
            with pytest.raises(error) if error else contextlib.nullcontext():
                run()
            assert np.geterr() == before, (run, error)


@pytest.mark.parametrize("errstate", [{}, {"all": "raise"}])
def test_invalid_jacobian_is_a_newton_failure(errstate):
    spec = decay_system()

    def jac(t, x, p):
        inf = np.full((1, 1), math.inf)
        return spec.jac(t, x, p) + (inf - inf) if t > 0.3 else spec.jac(t, x, p)

    with np.errstate(**errstate), pytest.raises(NewtonDivergenceError, match="at t=0.35$"):
        integrate_fixed_step(dataclasses.replace(spec, jac=jac), None, 0.05)


def _draw(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 3, shape)


def test_mass_product_rounding_facts():
    rng = np.random.default_rng(29)
    for n in range(1, 5):
        for _ in range(500):
            layouts = {"C": _draw(rng, (n, n)), "F": np.asfortranarray(_draw(rng, (n, n))),
                       "transposed": _draw(rng, (n, n)).T, "strided": _draw(rng, (2 * n, 3 * n))[::2, ::3]}
            for layout, m in layouts.items():
                v = _draw(rng, n)
                # .dot is @ on a contiguous mass; a strided one goes to BLAS as a
                # C-contiguous copy, where @ runs NumPy's own loop
                same = np.ascontiguousarray(m) if layout == "strided" else m
                assert m.dot(v).tobytes() == (same @ v).tobytes(), (n, layout)
        # a (k, n, n) @ (k, n, 1) stack of C-ordered masses rounds as the per-row product
        for _ in range(100):
            ms = _draw(rng, (50, n, n))
            vs = _draw(rng, (50, n, 1))
            rows = np.stack([m.dot(v) for m, v in zip(ms, vs)])
            assert np.matmul(ms, vs).tobytes() == rows.tobytes()
    spec = full_mass_ode()
    mass = np.asfortranarray(spec.mass(None))
    assert _Newton(spec, None, mass, ToleranceSettings()).mass.flags.c_contiguous


def test_plugin_callables_may_return_lists():
    # one loop over the cases, not a parametrization, so that the test keeps its id
    for make, analytic in itertools.product((decay_system, coupled_dae, full_mass_ode), (True, False)):
        spec = make() if analytic else dataclasses.replace(make(), jac=None)
        for run in (integrate, lambda s, p, tol: integrate_fixed_step(s, p, 0.05, tol)):
            a, b = run(spec, None, ToleranceSettings()), run(_listed(spec), None, ToleranceSettings())
            assert (a.times.tobytes(), a.states.tobytes(), a.derivs.tobytes()) == (
                b.times.tobytes(), b.states.tobytes(), b.derivs.tobytes()
            ), (make.__name__, analytic)


@pytest.mark.parametrize("field", ["rhs", "jac"])
def test_complex_plugin_results_are_errors(field):
    spec = coupled_dae()
    bad = getattr(spec, field)
    complex_spec = dataclasses.replace(spec, **{field: lambda t, x, p: bad(t, x, p).astype(complex)})
    with pytest.raises(PluginResultError):
        integrate(complex_spec, None, ToleranceSettings())


def test_fixed_step_second_order():
    spec = decay_system(rate=1.0)
    exact = math.exp(-1.0)
    tol = ToleranceSettings(rtol=1e-12, atol=1e-14)
    e_coarse = abs(integrate_fixed_step(spec, None, 1.0 / 80, tol).states[-1, 0] - exact)
    e_fine = abs(integrate_fixed_step(spec, None, 1.0 / 160, tol).states[-1, 0] - exact)
    assert 3.4 <= e_coarse / e_fine <= 4.6


def test_fixed_step_requires_divisible_span():
    spec = decay_system()
    with pytest.raises(ValueError):
        integrate_fixed_step(spec, None, 0.3, ToleranceSettings())


@pytest.mark.parametrize("h", [-0.1, 0.0, math.nan, math.inf])
def test_fixed_step_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match=r"h must be finite and positive, not h="):
        integrate_fixed_step(decay_system(), None, h, ToleranceSettings())


def test_resample_matches_closed_form_between_knots():
    spec = decay_system(rate=2.0)
    tol = ToleranceSettings(rtol=1e-8, atol=1e-10)
    path = integrate(spec, None, tol)
    grid = TimeGrid.for_system(spec, m=77)
    vals = resample(path, spec, grid)
    exact = np.exp(-2.0 * grid.points)
    # dominated by accumulated integration error, not interpolation error
    assert np.max(np.abs(vals - exact)) < 1e-5
    # interpolant preserves the strict decay of the solution
    assert np.all(np.diff(vals) < 0)


def test_resample_exact_at_knots():
    spec = decay_system(rate=1.5)
    path = integrate(spec, None, ToleranceSettings())
    # build a grid whose last point is a knot by construction (tf is a knot)
    grid = TimeGrid(spec.t0, spec.tf, 10)
    vals = resample(path, spec, grid)
    assert vals[-1] == spec.qoi(path.states[-1])


def _resample_per_point(path, spec, grid):
    """The per-point dense output that `resample` replaced, kept as its oracle."""
    times = path.times
    out = np.empty(grid.m)
    for i, t in enumerate(grid.points):
        t = min(max(t, times[0]), times[-1])
        idx = int(np.searchsorted(times, t, side="left"))
        if idx < len(times) and times[idx] == t:
            out[i] = spec.qoi(path.states[idx])
            continue
        a, b = idx - 1, idx
        dt = times[b] - times[a]
        s = (t - times[a]) / dt
        q = (2.0 * s - 3.0) * s * s
        h00 = 1.0 + q
        h01 = -q
        h10 = ((s - 2.0) * s + 1.0) * s
        h11 = (s - 1.0) * s * s
        state = (
            h00 * path.states[a]
            + h10 * dt * path.derivs[a]
            + h01 * path.states[b]
            + h11 * dt * path.derivs[b]
        )
        if path.algebraic.size:
            ia = path.algebraic
            state[ia] = (1.0 - s) * path.states[a][ia] + s * path.states[b][ia]
        out[i] = spec.qoi(state)
    return out


def test_resample_matches_per_point_oracle_bitwise():
    domain = default_domain()
    rng = np.random.default_rng(31)
    cases = [(circuit_system(), p, 200) for p in
             [domain.midpoint()] + [domain.lower + rng.random(4) * (domain.upper - domain.lower) for _ in range(2)]]
    # the DAE has an algebraic component; m = 40 puts grid points on step nodes
    cases += [(coupled_dae(), None, m) for m in (40, 77)]
    for spec, p, m in cases:
        path = integrate(spec, p, ToleranceSettings())
        grid = TimeGrid.for_system(spec, m=m)
        assert resample(path, spec, grid).tobytes() == _resample_per_point(path, spec, grid).tobytes()
    # a path whose nodes are the grid points: every point is an exact hit
    spec = coupled_dae()
    path = integrate_fixed_step(spec, None, 1.0 / 40, ToleranceSettings())
    grid = TimeGrid(spec.t0, spec.tf, 40)
    assert path.algebraic.size
    assert resample(path, spec, grid).tobytes() == _resample_per_point(path, spec, grid).tobytes()


def test_resample_outside_path_raises():
    spec = decay_system(tf=1.0)
    path = integrate(spec, None, ToleranceSettings())
    beyond = TimeGrid(0.0, 2.0, 10)
    with pytest.raises(GridOutsidePathError):
        resample(path, spec, beyond)


def test_solve_trajectory_circuit_midpoint():
    spec = circuit_system()
    grid = TimeGrid.for_system(spec, m=50)
    y = solve_trajectory(spec, default_domain().midpoint(), grid, ToleranceSettings())
    assert y.shape == (50,)
    assert np.all(np.isfinite(y))
    # rectified output reaches hundreds of volts in magnitude
    assert 100.0 < np.max(np.abs(y)) < 2000.0


def test_circuit_solution_tolerance_consistency():
    spec = circuit_system()
    grid = TimeGrid.for_system(spec, m=50)
    p = default_domain().midpoint()
    y1 = solve_trajectory(spec, p, grid, ToleranceSettings(rtol=1e-4, atol=1e-6))
    y2 = solve_trajectory(spec, p, grid, ToleranceSettings(rtol=1e-6, atol=1e-8))
    rel = np.sum(np.abs(y1 - y2)) / np.sum(np.abs(y2))
    assert rel < 1e-2


def _reference_module():
    """perfbench/reference.py, loaded by path: the circuit with x3 eliminated
    through a bracketed root, integrated by SciPy's Radau at rtol 1e-7."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
def test_circuit_solve_matches_an_independent_reference():
    # the midpoint and the 16 corners of the domain, judged by the largest
    # deviation relative to the reference's peak (perfbench's checks do the same).
    # Both maxima lie at the corner (2e-9, 2e-9, 1e6, 2e8), measured on x86-64:
    # 7.05e-4 at the default tolerances, under criterion 1's bound 1e-3 (margin 1.4x),
    # and 1.67e-6 at rtol 1e-8, atol 1e-10, the reference's own accuracy
    # (rtol 1e-7), under 1e-5 (margin 6x). About 20 s: 6 s of reference solves
    # and 14 s of tight ones.
    reference = _reference_module()
    domain, spec = default_domain(), circuit_system()
    grid = TimeGrid.for_system(spec, m=200)
    corners = itertools.product(*zip(domain.lower, domain.upper))
    points = [domain.midpoint()] + [np.array(c) for c in corners]
    refs = np.array([reference.reference_trajectory(p, grid.m) for p in points])
    peaks = np.max(np.abs(refs), axis=1)
    for tol, bound in ((ToleranceSettings(), 1e-3), (ToleranceSettings(rtol=1e-8, atol=1e-10), 1e-5)):
        rows = np.array([solve_trajectory(spec, p, grid, tol) for p in points])
        deviations = np.max(np.abs(rows - refs), axis=1) / peaks
        worst = int(np.argmax(deviations))
        assert deviations[worst] < bound, f"{tol}: {deviations[worst]:.3g} of the peak at {points[worst]}"
