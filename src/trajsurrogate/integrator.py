"""Adaptive implicit BDF integration of stiff ODE/DAE initial value problems.

Orders 1 and 2 with local error control; each implicit step is solved by a
damped modified Newton iteration on the residual

    M(p) (a0*x_new + history_terms)/h - f(t_new, x_new, p) = 0

with iteration matrix (a0/h)*M - df/dx.  Accepted steps record the state and
the BDF difference-quotient derivative, from which a cubic Hermite dense
output reconstructs the solution on an arbitrary uniform grid (algebraic
components fall back to linear interpolation).  The fixed-step driver takes
the same start-up and steps at t0 + k*h without error control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .dynsys import IntegrationError, SystemSpec, algebraic_rows

# error-estimate constants: local truncation error of BDF order k is about
# C_k times the predictor-corrector difference (fixed-step values)
_ERR_CONST = {1: 0.5, 2: 2.0 / 9.0}

_NEWTON_MAX_ITER = 7
_NEWTON_KAPPA = 0.33  # accept when weighted update norm drops below this
_MAX_STEP_HALVINGS = 3
_MIN_STEP = 1e-14  # a step below this (other than the final clamp) is an underflow
_MAX_STEPS = 1_000_000  # step attempts per solve, rejected and halved ones included

# LAPACK solve of one square system, without np.linalg.solve's per-call checks;
# a singular matrix gives NaN (and sets the invalid flag) instead of LinAlgError
_solve1 = _umath_linalg.solve1


class NewtonDivergenceError(IntegrationError):
    """Newton iteration failed to converge after repeated step halvings."""


class StepUnderflowError(IntegrationError):
    """Required step size fell below the admissible minimum."""


class StepBudgetExceededError(IntegrationError):
    """Total step-attempt budget exhausted before reaching the end time."""


class InconsistentInitialValuesError(IntegrationError):
    """Initial state violates the algebraic constraints."""


class GridOutsidePathError(IntegrationError):
    """Requested grid points lie outside the computed solution path."""


@dataclass(frozen=True)
class ToleranceSettings:
    """Local error control settings for the adaptive integrator."""

    rtol: float = 1e-4
    atol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be finite and positive")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + l*dt for l = 1..m with dt = (tf - t0)/m.

    The grid excludes t0 and includes tf; the reference setup uses m = 200.
    """

    t0: float
    tf: float
    m: int

    def __post_init__(self) -> None:
        if not -math.inf < self.t0 < self.tf < math.inf:
            raise ValueError(f"t0 and tf must be finite with t0 < tf, not t0={self.t0!r}, tf={self.tf!r}")
        if self.m < 1:
            raise ValueError("m must be at least 1")

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / self.m

    @property
    def points(self) -> np.ndarray:
        pts = self.t0 + np.arange(1, self.m + 1) * self.dt
        pts[-1] = min(pts[-1], self.tf)
        return pts

    @classmethod
    def for_system(cls, spec: SystemSpec, m: int = 200) -> "TimeGrid":
        return cls(t0=spec.t0, tf=spec.tf, m=m)


@dataclass(frozen=True)
class SolutionPath:
    """Accepted steps of one solve on the solver's own non-uniform grid."""

    times: np.ndarray  # (K,)
    states: np.ndarray  # (K, n)
    derivs: np.ndarray  # (K, n) BDF difference quotients
    algebraic: np.ndarray  # indices of algebraic state components

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("step times must be strictly increasing")


def _initial_slope(
    spec: SystemSpec, p: np.ndarray, mass: np.ndarray, x0: np.ndarray, f0: np.ndarray, alg: np.ndarray
) -> np.ndarray:
    """Consistent x'(t0): mass rows for differential components, the
    differentiated constraint J_alg x' = -df_alg/dt for algebraic ones."""
    lhs, rhs = mass.copy(), f0.copy()
    if alg.size:
        jac = spec.state_jacobian(spec.t0, x0, p)
        eps = 1e-7 * max(1.0, spec.tf - spec.t0)
        dfdt = (spec.f(spec.t0 + eps, x0, p) - f0) / eps
        lhs[alg] = jac[alg]
        rhs[alg] = -dfdt[alg]
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise IntegrationError(
            "system is not semi-explicit index 1: the mass rows and the algebraic rows "
            "of df/dx do not determine a consistent x'(t0)"
        ) from exc


def _start(spec: SystemSpec, p: np.ndarray, tol: ToleranceSettings):
    """Return (p, mass, algebraic rows, x0, x'(t0)) after checking that x0
    satisfies the algebraic equations to within atol."""
    p = np.asarray(p, dtype=np.float64)
    mass = spec.mass_matrix(p)
    x0 = spec.initial_state(p)
    alg = algebraic_rows(mass)
    f0 = spec.f(spec.t0, x0, p)
    if alg.size:
        resid0 = float(np.max(np.abs(f0[alg])))
        if resid0 > tol.atol:
            raise InconsistentInitialValuesError(
                f"algebraic residual {resid0:.3e} exceeds atol {tol.atol:.3e} at t0"
            )
    return p, mass, alg, x0, _initial_slope(spec, p, mass, x0, f0, alg)


def _predict(times: list, states: list, derivs: list, t_new: float, h_eff: float):
    """Return (order, predictor, a0/h, history term) of the next BDF step.

    BDF1 until three points are known, then variable-step BDF2 with step
    ratio r = h_eff/h_prev (the fixed-coefficient formula at r = 1).  The
    history term makes the step's derivative a0/h * x_new + hist.  States
    are lists of floats, and each component follows the operation order of
    the vector formula.
    """
    x_n = states[-1]
    if len(times) < 3:
        if len(times) >= 2:
            h_prev = times[-1] - times[-2]
            d1 = [(a - b) / h_prev for a, b in zip(x_n, states[-2])]
        else:
            d1 = derivs[0]
        return 1, [a + h_eff * d for a, d in zip(x_n, d1)], 1.0 / h_eff, [-a / h_eff for a in x_n]
    h_prev = times[-1] - times[-2]
    h_prev2 = times[-2] - times[-3]
    span2 = times[-1] - times[-3]
    r = h_eff / h_prev
    a0 = (1.0 + 2.0 * r) / (1.0 + r)
    a1 = -(1.0 + r)
    a2 = r * r / (1.0 + r)
    hist = [(a1 * a + a2 * b) / h_eff for a, b in zip(x_n, states[-2])]
    dt_new = t_new - times[-1]
    dt_dt = dt_new * (t_new - times[-2])
    pred = []
    for a, b, c in zip(x_n, states[-2], states[-3]):
        d1 = (a - b) / h_prev
        pred.append(a + dt_new * d1 + dt_dt * ((d1 - (b - c) / h_prev2) / span2))
    return 2, pred, a0 / h_eff, hist


def _initial_step(spec: SystemSpec, x0: np.ndarray, slope0: np.ndarray, tol: ToleranceSettings) -> float:
    span = spec.tf - spec.t0
    w = tol.atol + tol.rtol * abs(x0)
    d0 = float(np.max(np.abs(x0) / w))
    d1 = float(np.max(np.abs(slope0) / w))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span
    else:
        h0 = 0.01 * d0 / d1
    return float(min(max(h0, _MIN_STEP), span / 10.0))


class _Newton:
    """Damped modified Newton for one implicit step; reuses df/dx across steps.

    Iterates, steps and residuals are lists of floats.  The rhs, the Jacobian,
    the mass product and the linear solve take and give NumPy arrays, whose
    bits (a matrix product's summation order) a Python sum would not keep.
    """

    def __init__(self, spec: SystemSpec, p: np.ndarray, mass: np.ndarray, tol: ToleranceSettings):
        self.spec = spec
        self.f = spec.f
        self.p = p
        self.mass = mass
        self.atol = tol.atol
        self.rtol = tol.rtol
        self.jac: Optional[np.ndarray] = None  # set by refresh before the first solve

    def refresh(self, t: float, x: list) -> None:
        self.jac = self.spec.state_jacobian(t, np.array(x), self.p)

    def solve(self, t_new: float, x_pred: list, a0_h: float, hist: list):
        """Return (x, converged, iterations)."""
        with np.errstate(invalid="ignore"):  # NaNs from inf trials or singular solves fail the finite checks
            iter_matrix = a0_h * self.mass - self.jac

            x = x_pred
            resid = self._try_residual(t_new, x, a0_h, hist)
            if resid is None:
                return x, False, 0

            atol, rtol = self.atol, self.rtol
            prev_norm = math.inf
            for it in range(1, _NEWTON_MAX_ITER + 1):
                dx = _solve1(iter_matrix, -np.array(resid)).tolist()
                if not all(map(math.isfinite, dx)):
                    return x, False, it  # singular iteration matrix or overflow

                # damp the update until the residual is evaluable and finite
                lam = 1.0
                for _ in range(8):
                    x_trial = [a + lam * d for a, d in zip(x, dx)]
                    trial_resid = self._try_residual(t_new, x_trial, a0_h, hist)
                    if trial_resid is not None:
                        break
                    lam *= 0.5
                else:
                    return x, False, it
                x = x_trial
                resid = trial_resid

                dnorm = max([abs(lam * d) / (atol + rtol * abs(a)) for d, a in zip(dx, x)])
                if dnorm < _NEWTON_KAPPA:
                    return x, True, it
                if dnorm > 2.0 * prev_norm:
                    return x, False, it  # diverging
                prev_norm = dnorm
            return x, False, _NEWTON_MAX_ITER

    def _try_residual(self, t, x, a0_h, hist) -> Optional[list]:
        # hist holds (a1*x_n + a2*x_{n-1})/h so xdot = a0_h*x + hist
        try:
            m_xdot = self.mass @ np.array([a0_h * a + b for a, b in zip(x, hist)])
            f = self.f(t, np.array(x), self.p)
        except (FloatingPointError, OverflowError):
            return None
        r = [a - b for a, b in zip(m_xdot.tolist(), f.tolist())]
        return r if all(map(math.isfinite, r)) else None


def integrate(
    spec: SystemSpec,
    p: np.ndarray,
    tol: ToleranceSettings = ToleranceSettings(),
) -> SolutionPath:
    """Solve the IVP from spec.t0 to spec.tf with adaptive BDF(1,2)."""
    p, mass, alg, x0, slope0 = _start(spec, p, tol)
    times, states, derivs = [spec.t0], [x0.tolist()], [slope0.tolist()]

    newton = _Newton(spec, p, mass, tol)
    newton.refresh(spec.t0, states[0])

    t = spec.t0
    h = _initial_step(spec, x0, slope0, tol)
    attempts = 0
    halvings = 0

    while t < spec.tf:
        if attempts >= _MAX_STEPS:
            raise StepBudgetExceededError(f"exceeded {_MAX_STEPS} step attempts at t={t:.6g}")
        attempts += 1

        clamped = t + h >= spec.tf
        h_eff = spec.tf - t if clamped else h
        if h_eff < _MIN_STEP and not clamped:
            raise StepUnderflowError(f"step {h_eff:.3e} below the step floor {_MIN_STEP:.3e} at t={t:.6g}")
        t_new = spec.tf if clamped else t + h_eff

        order, x_pred, a0_h, hist = _predict(times, states, derivs, t_new, h_eff)
        x_n = states[-1]
        x_new, converged, iters = newton.solve(t_new, x_pred, a0_h, hist)

        # the Jacobian is reused across steps and formed afresh when Newton fails
        # (one retry at the same step) or converges in 4 or more iterations
        if not converged:
            newton.refresh(t_new, x_n)
            x_new, converged, iters = newton.solve(t_new, x_pred, a0_h, hist)
            if not converged:
                halvings += 1
                if halvings > _MAX_STEP_HALVINGS:
                    raise NewtonDivergenceError(
                        f"Newton failed after {_MAX_STEP_HALVINGS} step halvings at t={t:.6g}"
                    )
                h = h_eff * 0.5
                newton.refresh(t, x_n)
                continue
        halvings = 0
        if iters >= 4:
            newton.refresh(t_new, x_new)

        c = _ERR_CONST[order]
        err_norm = max([abs(c * (a - b)) / (tol.atol + tol.rtol * max(abs(n), abs(a)))
                        for a, b, n in zip(x_new, x_pred, x_n)])

        factor = min(5.0, max(0.2, 0.9 * max(err_norm, 1e-10) ** (-1.0 / (order + 1))))
        h = h_eff * factor
        if err_norm <= 1.0:
            times.append(t_new)
            states.append(x_new)
            derivs.append([a0_h * a + b for a, b in zip(x_new, hist)])
            t = t_new

    return SolutionPath(
        times=np.array(times), states=np.array(states), derivs=np.array(derivs), algebraic=alg
    )


def integrate_fixed_step(
    spec: SystemSpec,
    p: np.ndarray,
    h: float,
    tol: ToleranceSettings = ToleranceSettings(rtol=1e-10, atol=1e-12),
) -> SolutionPath:
    """The adaptive method's steps at t0 + k*h, with a fresh Jacobian on
    every step and no error control.

    The step count is round((tf - t0)/h); h must divide the span to float
    accuracy.  Used for observed-order studies.
    """
    n_steps = int(round((spec.tf - spec.t0) / h))
    if abs(spec.t0 + n_steps * h - spec.tf) > 1e-9 * (spec.tf - spec.t0):
        raise ValueError("h must divide the time span")
    p, mass, alg, x0, slope0 = _start(spec, p, tol)
    times, states, derivs = [spec.t0], [x0.tolist()], [slope0.tolist()]

    newton = _Newton(spec, p, mass, tol)
    for k in range(1, n_steps + 1):
        t_new = spec.t0 + k * h
        newton.refresh(times[-1], states[-1])
        _, x_pred, a0_h, hist = _predict(times, states, derivs, t_new, h)
        x_new, converged, _ = newton.solve(t_new, x_pred, a0_h, hist)
        if not converged:
            raise NewtonDivergenceError(f"fixed-step Newton failed at t={t_new:.6g}")
        times.append(t_new)
        states.append(x_new)
        derivs.append([a0_h * a + b for a, b in zip(x_new, hist)])

    return SolutionPath(
        times=np.array(times), states=np.array(states), derivs=np.array(derivs), algebraic=alg
    )


def resample(path: SolutionPath, spec: SystemSpec, grid: TimeGrid) -> np.ndarray:
    """Evaluate the QoI on the uniform grid via dense output on the path.

    Differential components use the cubic Hermite interpolant of each step,
    algebraic ones the linear one; a grid point on a step node takes the
    node's state exactly.
    """
    times = path.times
    span = times[-1] - times[0]
    slack = 1e-9 * span
    pts = grid.points
    if pts[0] < times[0] - slack or pts[-1] > times[-1] + slack:
        raise GridOutsidePathError(
            f"grid [{pts[0]:.6g}, {pts[-1]:.6g}] outside path [{times[0]:.6g}, {times[-1]:.6g}]"
        )
    t = np.clip(pts, times[0], times[-1])
    idx = np.searchsorted(times, t, side="left")
    hit = times[idx] == t
    b = np.maximum(idx, 1)
    a = b - 1
    dt = times[b] - times[a]
    s = ((t - times[a]) / dt)[:, None]
    q = (2.0 * s - 3.0) * s * s
    h00 = 1.0 + q
    h01 = -q
    h10 = ((s - 2.0) * s + 1.0) * s
    h11 = (s - 1.0) * s * s
    dt = dt[:, None]
    states = (
        h00 * path.states[a]
        + h10 * dt * path.derivs[a]
        + h01 * path.states[b]
        + h11 * dt * path.derivs[b]
    )
    if path.algebraic.size:
        ia = path.algebraic
        states[:, ia] = (1.0 - s) * path.states[a][:, ia] + s * path.states[b][:, ia]
    states[hit] = path.states[idx[hit]]
    return np.fromiter((spec.qoi_value(x) for x in states), dtype=np.float64, count=len(states))


def solve_trajectory(
    spec: SystemSpec,
    p: np.ndarray,
    grid: TimeGrid,
    tol: ToleranceSettings = ToleranceSettings(),
) -> np.ndarray:
    """Integrate and resample: the discretized parameter-to-trajectory map."""
    path = integrate(spec, p, tol)
    traj = resample(path, spec, grid)
    if not np.all(np.isfinite(traj)):
        raise IntegrationError("non-finite values in resampled trajectory")
    return traj
