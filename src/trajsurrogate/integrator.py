"""Adaptive implicit BDF integration of stiff ODE/DAE initial value problems.

Orders 1 and 2 with local error control; each implicit step is solved by a
damped modified Newton iteration on the residual

    M(p) (a0*x_new + history_terms)/h - f(t_new, x_new, p) = 0

with iteration matrix (a0/h)*M - df/dx.  Accepted steps record the state and
the BDF difference-quotient derivative, from which a cubic Hermite dense
output reconstructs the solution on an arbitrary uniform grid (algebraic
components fall back to linear interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .dynsys import (
    DiodeOverflowError,
    ParameterVector,
    SystemSpec,
    algebraic_rows,
)

# error-estimate constants: local truncation error of BDF order k is about
# C_k times the predictor-corrector difference (fixed-step values)
_ERR_CONST = {1: 0.5, 2: 2.0 / 9.0}

_NEWTON_MAX_ITER = 7
_NEWTON_KAPPA = 0.33  # accept when weighted update norm drops below this
_MAX_STEP_HALVINGS = 3


class IntegrationError(RuntimeError):
    """Base class for integration failures."""


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
    max_steps: int = 1_000_000
    min_step: float = 1e-14

    def __post_init__(self) -> None:
        if self.rtol <= 0 or self.atol <= 0 or self.min_step <= 0:
            raise ValueError("rtol, atol and min_step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + l*dt for l = 1..m with dt = (tf - t0)/m.

    The grid excludes t0 and includes tf; the reference setup uses m = 200.
    """

    t0: float
    tf: float
    m: int

    def __post_init__(self) -> None:
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
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


def _as_param_array(p: Union[ParameterVector, np.ndarray, Sequence[float]]) -> np.ndarray:
    if isinstance(p, ParameterVector):
        return p.as_array()
    return np.asarray(p, dtype=np.float64)


def _weights(x: np.ndarray, tol: ToleranceSettings) -> np.ndarray:
    return tol.atol + tol.rtol * np.abs(x)


def _initial_slope(
    spec: SystemSpec, p: np.ndarray, mass: np.ndarray, f0: np.ndarray, alg: np.ndarray
) -> np.ndarray:
    """Consistent x'(t0): mass rows for differential components, the
    differentiated constraint J_alg x' = -df_alg/dt for algebraic ones."""
    if alg.size == 0:
        return np.linalg.solve(mass, f0)
    x0 = np.asarray(spec.initial(p), dtype=np.float64)
    jac = spec.state_jacobian(spec.t0, x0, p)
    eps = 1e-7 * max(1.0, spec.tf - spec.t0)
    dfdt = (spec.rhs(spec.t0 + eps, x0, p) - f0) / eps
    lhs = mass.copy()
    rhs = f0.copy()
    lhs[alg] = jac[alg]
    rhs[alg] = -dfdt[alg]
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # semi-explicit structure violated; fall back to a minimal-norm slope
        slope, *_ = np.linalg.lstsq(mass, f0, rcond=None)
        slope[alg] = 0.0
        return slope


def _initial_step(spec: SystemSpec, x0: np.ndarray, slope0: np.ndarray, tol: ToleranceSettings) -> float:
    span = spec.tf - spec.t0
    w = _weights(x0, tol)
    d0 = float(np.max(np.abs(x0) / w))
    d1 = float(np.max(np.abs(slope0) / w))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * span
    else:
        h0 = 0.01 * d0 / d1
    return float(min(max(h0, tol.min_step), span / 10.0))


class _Newton:
    """Damped modified Newton for one implicit step; reuses df/dx across steps."""

    def __init__(self, spec: SystemSpec, p: np.ndarray, mass: np.ndarray, tol: ToleranceSettings):
        self.spec = spec
        self.p = p
        self.mass = mass
        self.tol = tol
        self.jac: Optional[np.ndarray] = None
        self.slow = False  # convergence degraded on the last attempt

    def refresh(self, t: float, x: np.ndarray) -> None:
        self.jac = self.spec.state_jacobian(t, x, self.p)
        self.slow = False

    def _residual(self, t: float, x: np.ndarray, a0_h: float, hist: np.ndarray) -> np.ndarray:
        # hist holds (a1*x_n + a2*x_{n-1})/h so xdot = a0_h*x + hist
        return self.mass @ (a0_h * x + hist) - self.spec.rhs(t, x, self.p)

    def solve(self, t_new: float, x_pred: np.ndarray, a0_h: float, hist: np.ndarray):
        """Return (x, converged, iterations)."""
        if self.jac is None:
            self.refresh(t_new, x_pred)
        iter_matrix = a0_h * self.mass - self.jac

        x = x_pred.copy()
        resid = self._eval_residual_damped(t_new, x, a0_h, hist, fallback=None)
        if resid is None:
            return x, False, 0
        resid, x = resid

        prev_norm = np.inf
        for it in range(1, _NEWTON_MAX_ITER + 1):
            try:
                dx = np.linalg.solve(iter_matrix, -resid)
            except np.linalg.LinAlgError:
                return x, False, it
            if not np.all(np.isfinite(dx)):
                return x, False, it

            # damp the update until the residual is evaluable and finite
            lam = 1.0
            trial_resid = None
            for _ in range(8):
                x_trial = x + lam * dx
                trial_resid = self._try_residual(t_new, x_trial, a0_h, hist)
                if trial_resid is not None:
                    break
                lam *= 0.5
            if trial_resid is None:
                return x, False, it
            x = x + lam * dx
            resid = trial_resid

            dnorm = float(np.max(np.abs(lam * dx) / _weights(x, self.tol)))
            if dnorm < _NEWTON_KAPPA:
                self.slow = it >= 4
                return x, True, it
            if dnorm > 2.0 * prev_norm:
                return x, False, it  # diverging
            prev_norm = dnorm
        return x, False, _NEWTON_MAX_ITER

    def _try_residual(self, t, x, a0_h, hist) -> Optional[np.ndarray]:
        try:
            r = self._residual(t, x, a0_h, hist)
        except (DiodeOverflowError, FloatingPointError, OverflowError):
            return None
        if not np.all(np.isfinite(r)):
            return None
        return r

    def _eval_residual_damped(self, t, x, a0_h, hist, fallback):
        # pull an unevaluable predictor back toward the last accepted state
        for _ in range(8):
            r = self._try_residual(t, x, a0_h, hist)
            if r is not None:
                return r, x
            if fallback is None:
                return None
            x = 0.5 * (x + fallback)
        return None


def integrate(
    spec: SystemSpec,
    p: Union[ParameterVector, np.ndarray],
    tol: ToleranceSettings = ToleranceSettings(),
) -> SolutionPath:
    """Solve the IVP from spec.t0 to spec.tf with adaptive BDF(1,2)."""
    p_arr = _as_param_array(p)
    mass = np.asarray(spec.mass(p_arr), dtype=np.float64)
    x0 = np.asarray(spec.initial(p_arr), dtype=np.float64)
    alg = algebraic_rows(mass)

    f0 = spec.rhs(spec.t0, x0, p_arr)
    if alg.size:
        resid0 = float(np.max(np.abs(f0[alg])))
        if resid0 > tol.atol:
            raise InconsistentInitialValuesError(
                f"algebraic residual {resid0:.3e} exceeds atol {tol.atol:.3e} at t0"
            )

    slope0 = _initial_slope(spec, p_arr, mass, f0, alg)
    times = [spec.t0]
    states = [x0]
    derivs = [slope0]

    newton = _Newton(spec, p_arr, mass, tol)
    newton.refresh(spec.t0, x0)

    t = spec.t0
    x = x0
    h = _initial_step(spec, x0, slope0, tol)
    attempts = 0
    halvings = 0

    while t < spec.tf:
        if attempts >= tol.max_steps:
            raise StepBudgetExceededError(f"exceeded {tol.max_steps} step attempts at t={t:.6g}")
        attempts += 1

        clamped = t + h >= spec.tf
        h_eff = spec.tf - t if clamped else h
        if h_eff < tol.min_step and not clamped:
            raise StepUnderflowError(f"step {h_eff:.3e} below min_step {tol.min_step:.3e} at t={t:.6g}")
        t_new = spec.tf if clamped else t + h_eff

        order = 2 if len(times) >= 3 else 1
        x_n = states[-1]
        if order == 1:
            if len(times) >= 2:
                d1 = (states[-1] - states[-2]) / (times[-1] - times[-2])
            else:
                d1 = derivs[0]
            x_pred = x_n + h_eff * d1
            a0 = 1.0
            hist = -x_n / h_eff
        else:
            h_prev = times[-1] - times[-2]
            r = h_eff / h_prev
            a0 = (1.0 + 2.0 * r) / (1.0 + r)
            a1 = -(1.0 + r)
            a2 = r * r / (1.0 + r)
            hist = (a1 * x_n + a2 * states[-2]) / h_eff
            d1 = (states[-1] - states[-2]) / h_prev
            d2 = (d1 - (states[-2] - states[-3]) / (times[-2] - times[-3])) / (times[-1] - times[-3])
            dt_new = t_new - times[-1]
            x_pred = x_n + dt_new * d1 + dt_new * (t_new - times[-2]) * d2

        x_new, converged, _ = newton.solve(t_new, x_pred, a0 / h_eff, hist)

        if not converged:
            if newton.jac is not None and not newton.slow:
                # retry once at the same step with a fresh Jacobian
                newton.refresh(t_new, x_n)
                newton.slow = True
                x_new, converged, _ = newton.solve(t_new, x_pred, a0 / h_eff, hist)
            if not converged:
                halvings += 1
                if halvings > _MAX_STEP_HALVINGS:
                    raise NewtonDivergenceError(
                        f"Newton failed after {_MAX_STEP_HALVINGS} step halvings at t={t:.6g}"
                    )
                h = h_eff * 0.5
                if h < tol.min_step:
                    raise StepUnderflowError(
                        f"step {h:.3e} below min_step {tol.min_step:.3e} at t={t:.6g}"
                    )
                newton.refresh(t, x_n)
                continue
        halvings = 0
        if newton.slow:
            newton.refresh(t_new, x_new)

        est = _ERR_CONST[order] * (x_new - x_pred)
        scale = _weights(np.maximum(np.abs(x_n), np.abs(x_new)), tol)
        err_norm = float(np.max(np.abs(est) / scale))

        factor = min(5.0, max(0.2, 0.9 * max(err_norm, 1e-10) ** (-1.0 / (order + 1))))
        if err_norm <= 1.0:
            xdot_new = a0 / h_eff * x_new + hist
            times.append(t_new)
            states.append(x_new)
            derivs.append(xdot_new)
            t = t_new
            x = x_new
            h = h_eff * factor
        else:
            h = h_eff * factor
            if h < tol.min_step:
                raise StepUnderflowError(
                    f"step {h:.3e} below min_step {tol.min_step:.3e} at t={t:.6g}"
                )

    return SolutionPath(
        times=np.array(times),
        states=np.array(states),
        derivs=np.array(derivs),
        algebraic=alg,
    )


def integrate_fixed_step(
    spec: SystemSpec,
    p: Union[ParameterVector, np.ndarray],
    h: float,
    tol: ToleranceSettings = ToleranceSettings(rtol=1e-10, atol=1e-12),
) -> SolutionPath:
    """Fixed-step BDF2 (BDF1 on the first step), no error control.

    The step count is round((tf - t0)/h); h must divide the span to float
    accuracy.  Used for observed-order studies.
    """
    p_arr = _as_param_array(p)
    mass = np.asarray(spec.mass(p_arr), dtype=np.float64)
    x0 = np.asarray(spec.initial(p_arr), dtype=np.float64)
    alg = algebraic_rows(mass)

    n_steps = int(round((spec.tf - spec.t0) / h))
    if abs(spec.t0 + n_steps * h - spec.tf) > 1e-9 * (spec.tf - spec.t0):
        raise ValueError("h must divide the time span")

    f0 = spec.rhs(spec.t0, x0, p_arr)
    slope0 = _initial_slope(spec, p_arr, mass, f0, alg)
    times = [spec.t0]
    states = [x0]
    derivs = [slope0]

    newton = _Newton(spec, p_arr, mass, tol)
    for k in range(1, n_steps + 1):
        t_new = spec.t0 + k * h
        x_n = states[-1]
        newton.refresh(times[-1], x_n)
        if len(times) == 1:
            x_pred = x_n + h * slope0
            a0 = 1.0
            hist = -x_n / h
        else:
            a0 = 1.5
            hist = (-2.0 * x_n + 0.5 * states[-2]) / h
            x_pred = 2.0 * x_n - states[-2]
        x_new, converged, _ = newton.solve(t_new, x_pred, a0 / h, hist)
        if not converged:
            raise NewtonDivergenceError(f"fixed-step Newton failed at t={t_new:.6g}")
        times.append(t_new)
        states.append(x_new)
        derivs.append(a0 / h * x_new + hist)

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
    return np.fromiter((spec.qoi(x) for x in states), dtype=np.float64, count=len(states))


def solve_trajectory(
    spec: SystemSpec,
    p: Union[ParameterVector, np.ndarray],
    grid: TimeGrid,
    tol: ToleranceSettings = ToleranceSettings(),
) -> np.ndarray:
    """Integrate and resample: the discretized parameter-to-trajectory map."""
    path = integrate(spec, p, tol)
    traj = resample(path, spec, grid)
    if not np.all(np.isfinite(traj)):
        raise IntegrationError("non-finite values in resampled trajectory")
    return traj
