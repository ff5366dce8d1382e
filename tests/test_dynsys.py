"""System definitions: diode law, input drive, circuit DAE, Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajsurrogate.dynsys import (
    AMPLITUDE,
    DELTA,
    GAMMA,
    PERIOD,
    IntegrationError,
    ParameterDomain,
    SystemSpec,
    algebraic_rows,
    circuit_system,
    default_domain,
    diode_conductance,
    diode_current,
    finite_difference_jacobian,
    input_voltage,
)

# independent evaluation of gamma*(exp(delta*u) - 1) at u = 100 via math.exp
DIODE_AT_100 = 4.067e-8 * (math.exp(5.634e-2 * 100.0) - 1.0)


def test_diode_zero_at_zero():
    assert diode_current(0.0) == 0.0


def test_diode_frozen_value():
    assert diode_current(100.0) == pytest.approx(DIODE_AT_100, rel=1e-14)
    assert DIODE_AT_100 == pytest.approx(1.1337941863947202e-05, rel=1e-12)


def test_diode_overflow_guard():
    with pytest.raises(OverflowError):
        diode_current(1e6)
    # below math.exp's threshold (exponent log(float64 max), u about 1.26e4) it evaluates
    assert math.isfinite(diode_current(1e4))


@given(st.floats(min_value=-1e4, max_value=1e4))
def test_diode_bounded_below(u):
    assert diode_current(u) >= -GAMMA


@given(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_diode_monotone(u, step):
    # non-strict globally: exp underflow flattens the curve far below zero
    assert diode_current(u + step) >= diode_current(u)


@given(
    st.floats(min_value=-50.0, max_value=1e3),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_diode_strictly_monotone_in_active_range(u, step):
    assert diode_current(u + step) > diode_current(u)


@given(st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=50)
def test_diode_conductance_matches_fd(u):
    h = 1e-6 * max(1.0, abs(u))
    fd = (diode_current(u + h) - diode_current(u - h)) / (2.0 * h)
    assert diode_conductance(u) == pytest.approx(fd, rel=1e-7)


def test_input_voltage_shape():
    assert input_voltage(0.0) == 0.0
    assert input_voltage(PERIOD / 4.0) == pytest.approx(AMPLITUDE, rel=1e-12)
    assert input_voltage(0.3) == pytest.approx(input_voltage(0.3 + PERIOD), abs=1e-9)


def test_default_domain_bounds():
    dom = default_domain()
    assert dom.dim == 4
    assert np.array_equal(dom.lower, [2e-9, 2e-9, 1e6, 1e8])
    assert np.array_equal(dom.upper, [3e-9, 3e-9, 2e6, 2e8])
    assert dom.contains(dom.midpoint())
    assert dom.contains(dom.lower) and dom.contains(dom.upper)
    assert not dom.contains(dom.upper * 1.01)


def test_domain_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        ParameterDomain(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


def test_domain_rejects_non_finite_bounds():
    # without the check, sample_parameters would draw NaN rows from such a domain
    for lower, upper in (([-math.inf], [1.0]), ([0.0], [math.nan])):
        with pytest.raises(ValueError, match="must be finite"):
            ParameterDomain(lower, upper)


def test_circuit_mass_and_algebraic_rows():
    spec = circuit_system()
    p = default_domain().midpoint()
    mass = spec.mass(p)
    assert np.array_equal(mass, np.diag([p[0], p[1], 0.0]))
    assert algebraic_rows(mass).tolist() == [2]


def test_circuit_initial_values_consistent():
    spec = circuit_system()
    p = default_domain().midpoint()
    x0 = spec.initial(p)
    assert np.array_equal(x0, np.zeros(3))
    f0 = spec.rhs(spec.t0, x0, p)
    # algebraic residual vanishes at the zero state with zero input
    assert abs(f0[2]) < 1e-30


def test_circuit_jacobian_matches_fd():
    spec = circuit_system()
    dom = default_domain()
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = dom.lower + rng.random(4) * (dom.upper - dom.lower)
        x = rng.uniform(-50.0, 50.0, 3)
        t = rng.uniform(0.0, 0.5)
        analytic = spec.state_jacobian(t, x, p)
        fd = finite_difference_jacobian(spec.rhs, t, x, p)
        scale = np.maximum(np.abs(fd), np.abs(analytic))
        rel = np.abs(analytic - fd) / np.where(scale > 1e-12, scale, 1.0)
        assert np.max(rel) < 1e-5


def _circuit_rhs_numpy_scalars(t, x, p):
    """The circuit rhs on NumPy scalars, the form the float version replaced; kept as its oracle."""
    x1, x2, x3 = x[0], x[1], x[2]
    r1, r2 = p[2], p[3]
    i_top = diode_current(-(x1 + x3))
    i_out = diode_current(x3)
    drive = (x2 + x3 + input_voltage(t)) / r1
    return np.array([-x1 / r2 + i_top, -drive, -drive + i_top - i_out])


def _circuit_jac_numpy_scalars(t, x, p):
    x1, x3 = x[0], x[2]
    r1, r2 = p[2], p[3]
    g_top = diode_conductance(-(x1 + x3))
    g_out = diode_conductance(x3)
    return np.array(
        [
            [-1.0 / r2 - g_top, 0.0, -g_top],
            [0.0, -1.0 / r1, -1.0 / r1],
            [-g_top, -1.0 / r1, -1.0 / r1 - g_top - g_out],
        ]
    )


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except OverflowError:
        return OverflowError


_DOMAIN = default_domain()
_STATE = st.floats(min_value=-2e4, max_value=2e4)  # beyond about 1.26e4 a diode term overflows


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.tuples(_STATE, _STATE, _STATE),
    st.tuples(*(st.floats(min_value=lo, max_value=hi) for lo, hi in zip(_DOMAIN.lower, _DOMAIN.upper))),
)
@settings(max_examples=300)
def test_circuit_callables_match_numpy_scalar_form_bitwise(t, x, p):
    spec = circuit_system()
    x, p = np.array(x), np.array(p)
    assert _outcome(spec.rhs, t, x, p) == _outcome(_circuit_rhs_numpy_scalars, t, x, p)
    assert _outcome(spec.jac, t, x, p) == _outcome(_circuit_jac_numpy_scalars, t, x, p)


def test_circuit_callables_overflow_at_the_same_state():
    spec = circuit_system()
    p = _DOMAIN.midpoint()
    edge = math.log(np.finfo(np.float64).max) / DELTA
    us = [edge]
    for _ in range(4):
        us = [math.nextafter(us[0], -math.inf)] + us + [math.nextafter(us[-1], math.inf)]
    raised = []
    for u in us:
        # u reaches the outer diode through x3 and the upper one through -(x1 + x3)
        for x in (np.array([0.0, 0.0, u]), np.array([-u, 0.0, 0.0])):
            got = _outcome(spec.rhs, 0.1, x, p)
            assert got == _outcome(_circuit_rhs_numpy_scalars, 0.1, x, p)
            assert _outcome(spec.jac, 0.1, x, p) == _outcome(_circuit_jac_numpy_scalars, 0.1, x, p)
            raised.append(got is OverflowError)
    # the sweep crosses math.exp's threshold, exponent log(float64 max): both outcomes occur
    assert any(raised) and not all(raised)


def test_state_jacobian_falls_back_to_fd():
    from tests.conftest import decay_system

    spec = decay_system(rate=2.0)
    bare = spec.__class__(
        dim=1, mass=spec.mass, rhs=spec.rhs, qoi=spec.qoi,
        initial=spec.initial, t0=spec.t0, tf=spec.tf, jac=None,
    )
    jac = bare.state_jacobian(0.3, np.array([0.7]), None)
    assert jac[0, 0] == pytest.approx(-2.0, rel=1e-6)


def test_ragged_rhs_or_jac_result_is_an_integration_error():
    ragged = SystemSpec(
        dim=2, mass=lambda p: np.eye(2), rhs=lambda t, x, p: [0.0, [0.0]],
        qoi=lambda x: float(x[0]), initial=lambda p: np.ones(2), t0=0.0, tf=1.0,
        jac=lambda t, x, p: [[0.0, 0.0], [0.0]],
    )
    x = np.ones(2)
    with pytest.raises(IntegrationError) as err:
        ragged.f(0.25, x, None)
    assert str(err.value) == "rhs returned a ragged sequence, but dim = 2 needs real values of shape (2,)"
    with pytest.raises(IntegrationError) as err:
        ragged.state_jacobian(0.25, x, None)
    assert str(err.value) == (
        "state_jacobian returned a ragged sequence, but dim = 2 needs real values of shape (2, 2)"
    )
