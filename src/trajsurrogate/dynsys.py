"""Parametric dynamical systems and the built-in voltage-doubler circuit.

A system is ``M(p) x'(t) = f(t, x, p)`` with a pointwise scalar quantity of
interest ``g(x)``.  A singular mass matrix makes the system a DAE; the built-in
circuit model is an index-1 DAE with two differential node voltages and one
algebraic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_FLOAT64 = np.dtype(np.float64)

# fixed constants of the circuit model: diode law coefficients and drive shape
GAMMA = 4.067e-8
DELTA = 5.634e-2
AMPLITUDE = 500.0  # volts (node-voltage units)
PERIOD = 0.1  # seconds


class DimensionMismatchError(ValueError):
    """State or parameter vector has the wrong length."""


class IntegrationError(RuntimeError):
    """Base class for integration failures; defined here so that a plug-in
    result the solver cannot read ends the solve as one."""


class PluginResultError(IntegrationError):
    """A plug-in callable returned a ragged, non-real or wrong-shape result."""


@dataclass(frozen=True)
class ParameterDomain:
    """Componentwise bounds of the parameter cuboid."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("lower and upper must be finite")
        if not np.all(lower <= upper):
            raise ValueError("lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, p) -> bool:
        arr = np.asarray(p)
        return bool(np.all(arr >= self.lower) and np.all(arr <= self.upper))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def default_domain() -> ParameterDomain:
    """Capacitances in [2e-9, 3e-9] F, R1 in [1e6, 2e6] Ohm, R2 in [1e8, 2e8] Ohm."""
    return ParameterDomain(
        lower=np.array([2e-9, 2e-9, 1e6, 1e8]),
        upper=np.array([3e-9, 3e-9, 2e6, 2e8]),
    )


@dataclass(frozen=True)
class SystemSpec:
    """Parametric system M(p) x' = f(t, x, p) with QoI g(x) and initial map.

    ``jac`` is the analytic state Jacobian df/dx; when absent,
    :meth:`state_jacobian` falls back to :func:`finite_difference_jacobian`.
    ``mass`` must be constant in time for a given parameter vector.

    ``mass``, ``initial``, ``rhs``, ``jac`` and ``qoi`` may return any real
    array-like of shape (dim, dim), (dim,), (dim,), (dim, dim) and ().  The
    solver and the command line's midpoint check read them only through the
    accessors below, which share one rule: a ragged, non-real or wrong-shape
    result is a :class:`PluginResultError` naming the callable, which is a
    ConfigError at the domain midpoint and fails one row later in a solve.
    """

    dim: int
    mass: Callable[[np.ndarray], np.ndarray]
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    qoi: Callable[[np.ndarray], float]
    initial: Callable[[np.ndarray], np.ndarray]
    t0: float
    tf: float
    jac: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None

    def _read(self, name: str, value, shape: tuple) -> np.ndarray:
        """A result as a float64 array of the given shape (a float64 array as
        it is).  Lists, tuples and bool, integer or float arrays convert; a
        complex result is refused, never truncated to its real part."""
        try:
            arr = np.asarray(value)
        except ValueError:
            got = "a ragged sequence"
        else:
            if arr.shape == shape:
                if arr.dtype is _FLOAT64:
                    return arr
                if np.can_cast(arr.dtype, _FLOAT64, "same_kind"):
                    return arr.astype(_FLOAT64)
            got = f"{arr.dtype} of shape {arr.shape}"
        raise PluginResultError(
            f"{name} returned {got}, but dim = {self.dim} needs real values of shape {shape}"
        )

    def mass_matrix(self, p: np.ndarray) -> np.ndarray:
        return self._read("mass", self.mass(p), (self.dim, self.dim))

    def initial_state(self, p: np.ndarray) -> np.ndarray:
        return self._read("initial", self.initial(p), (self.dim,))

    def f(self, t: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._read("rhs", self.rhs(t, x, p), (self.dim,))

    def state_jacobian(self, t: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """df/dx: ``jac``, or central differences of :meth:`f`."""
        if self.jac is None:
            return finite_difference_jacobian(self.f, t, x, p)
        return self._read("state_jacobian", self.jac(t, x, p), (self.dim, self.dim))

    def qoi_value(self, x: np.ndarray) -> float:
        return float(self._read("qoi", self.qoi(x), ()))


def diode_current(u: float) -> float:
    """Diode current gamma*(exp(delta*u) - 1); strictly increasing in u.

    An exponent past float64's range raises ``math.exp``'s OverflowError."""
    return GAMMA * (math.exp(DELTA * u) - 1.0)


def diode_conductance(u: float) -> float:
    """Derivative of the diode law: gamma*delta*exp(delta*u).

    An exponent past float64's range raises ``math.exp``'s OverflowError."""
    return GAMMA * DELTA * math.exp(DELTA * u)


def input_voltage(t: float) -> float:
    """Harmonic drive A*sin(2*pi*t/T)."""
    return AMPLITUDE * math.sin(2.0 * math.pi * t / PERIOD)


def _circuit_mass(p: np.ndarray) -> np.ndarray:
    return np.diag([p[0], p[1], 0.0])


def _circuit_rhs(t: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    # Python floats: the same IEEE results as NumPy scalars without their per-call cost,
    # except that a zero resistance raises ZeroDivisionError instead of giving inf
    x1, x2, x3 = x.tolist()
    r1, r2 = p.tolist()[2:4]
    i_top = diode_current(-(x1 + x3))
    i_out = diode_current(x3)
    drive = (x2 + x3 + input_voltage(t)) / r1
    return np.array([-x1 / r2 + i_top, -drive, -drive + i_top - i_out])


def _circuit_jac(t: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    x1, _, x3 = x.tolist()
    r1, r2 = p.tolist()[2:4]
    g_top = diode_conductance(-(x1 + x3))
    g_out = diode_conductance(x3)
    return np.array(
        [
            [-1.0 / r2 - g_top, 0.0, -g_top],
            [0.0, -1.0 / r1, -1.0 / r1],
            [-g_top, -1.0 / r1, -1.0 / r1 - g_top - g_out],
        ]
    )


def _circuit_initial(p: np.ndarray) -> np.ndarray:
    return np.zeros(3)


def _second_component(x: np.ndarray) -> float:
    return float(x[1])


def circuit_system() -> SystemSpec:
    """Voltage-doubler circuit: three node voltages, mass diag(C1, C2, 0).

    Row 3 is the algebraic current balance; the QoI is the second node
    voltage.  Zero initial values are consistent because the drive and both
    diode currents vanish at t = 0.
    """
    return SystemSpec(
        dim=3,
        mass=_circuit_mass,
        rhs=_circuit_rhs,
        jac=_circuit_jac,
        qoi=_second_component,
        initial=_circuit_initial,
        t0=0.0,
        tf=0.5,
    )


def finite_difference_jacobian(
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    t: float,
    x: np.ndarray,
    p: np.ndarray,
) -> np.ndarray:
    """Central-difference df/dx with step 1e-6*max(1, |x_j|) per column."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    jac = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (rhs(t, xp, p) - rhs(t, xm, p)) / (2.0 * h)
    return jac


def algebraic_rows(mass: np.ndarray) -> np.ndarray:
    """Indices of all-zero mass-matrix rows (the algebraic equations)."""
    return np.flatnonzero(np.all(mass == 0.0, axis=1))
