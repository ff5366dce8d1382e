"""Adaptive BDF integrator: error control, DAE handling, dense output."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import coupled_dae, decay_system
from trajsurrogate.dynsys import SystemSpec, circuit_system, default_domain
from trajsurrogate.integrator import (
    GridOutsidePathError,
    InconsistentInitialValuesError,
    TimeGrid,
    ToleranceSettings,
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


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceSettings(rtol=-1e-4)
    with pytest.raises(ValueError):
        ToleranceSettings(max_steps=0)


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


def test_tighter_tolerance_reduces_error():
    spec = decay_system(rate=5.0)
    exact = math.exp(-5.0)
    errs = []
    for rtol in (1e-4, 1e-6, 1e-8):
        path = integrate(spec, None, ToleranceSettings(rtol=rtol, atol=rtol * 1e-2))
        errs.append(abs(path.states[-1, 0] - exact))
    assert errs[2] < errs[1] < errs[0]


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
