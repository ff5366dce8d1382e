"""Independent reference solve of the voltage-doubler circuit.

The program integrates the index-1 DAE in (x1, x2, x3) with its own BDF(1,2)
code.  This module shares none of that: it eliminates the algebraic node x3
and integrates the remaining ODE in (x1, x2) with SciPy's Radau at tight
tolerance.  The constraint

    g(x3) = -(x2 + x3 + u(t))/R1 + i(-(x1 + x3)) - i(x3),  i(v) = gamma*(exp(delta*v) - 1)

is strictly decreasing in x3 (dg/dx3 = -1/R1 - gamma*delta*(e_top + e_out) < 0),
so each evaluation finds x3 as a bracketed scalar root.  The circuit
constants are restated here rather than imported.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

GAMMA = 4.067e-8
DELTA = 5.634e-2
AMPLITUDE = 500.0
PERIOD = 0.1
T0, TF = 0.0, 0.5
RTOL = 1e-7
ATOL = 1e-6


class _ReducedCircuit:
    def __init__(self, p):
        self.c1, self.c2, self.r1, self.r2 = (float(v) for v in p)
        self.x3 = 0.0  # warm start for the bracket

    def _g(self, x3, x1, x2, u):
        return (-(x2 + x3 + u) / self.r1
                + GAMMA * math.expm1(-DELTA * (x1 + x3))
                - GAMMA * math.expm1(DELTA * x3))

    def algebraic(self, t, x1, x2):
        """The unique root x3 of the constraint at (t, x1, x2)."""
        u = AMPLITUDE * math.sin(2.0 * math.pi * t / PERIOD)
        width = 1.0
        lo, hi = self.x3 - width, self.x3 + width
        while self._g(lo, x1, x2, u) < 0.0:
            width *= 2.0
            lo = self.x3 - width
        while self._g(hi, x1, x2, u) > 0.0:
            width *= 2.0
            hi = self.x3 + width
        self.x3 = brentq(self._g, lo, hi, args=(x1, x2, u), xtol=1e-14, rtol=1e-15)
        return self.x3, u

    def rhs(self, t, x):
        x1, x2 = x
        x3, u = self.algebraic(t, x1, x2)
        i_top = GAMMA * math.expm1(-DELTA * (x1 + x3))
        return [(-x1 / self.r2 + i_top) / self.c1, -(x2 + x3 + u) / (self.r1 * self.c2)]

    def jac(self, t, x):
        # implicit-function derivatives of x3 from g(x3; x1, x2) = 0
        x1, x2 = x
        x3, _ = self.algebraic(t, x1, x2)
        g_top = GAMMA * DELTA * math.exp(-DELTA * (x1 + x3))
        g_out = GAMMA * DELTA * math.exp(DELTA * x3)
        g_x3 = -1.0 / self.r1 - g_top - g_out
        dx3_dx1 = g_top / g_x3
        dx3_dx2 = (1.0 / self.r1) / g_x3
        return np.array([
            [(-1.0 / self.r2 - g_top * (1.0 + dx3_dx1)) / self.c1,
             -g_top * dx3_dx2 / self.c1],
            [-dx3_dx1 / (self.r1 * self.c2),
             -(1.0 + dx3_dx2) / (self.r1 * self.c2)],
        ])


def reference_trajectory(p, m: int = 200) -> np.ndarray:
    """x2 at t = l*(TF - T0)/m, l = 1..m, from zero initial values."""
    system = _ReducedCircuit(p)
    grid = T0 + np.arange(1, m + 1) * (TF - T0) / m
    grid[-1] = TF
    sol = solve_ivp(system.rhs, (T0, TF), [0.0, 0.0], method="Radau", t_eval=grid,
                    rtol=RTOL, atol=ATOL, jac=system.jac)
    if not sol.success:
        raise RuntimeError(f"reference solve failed: {sol.message}")
    return sol.y[1]
