"""Host-speed calibration for timings taken on a shared machine.

On a host whose cores are shared with other tenants, the same deterministic
work runs at a speed that drifts by tens of percent over minutes (one circuit
solve took 110 to 195 ms within three minutes on the reference host, with CPU
time moving as much as wall time).  Run-to-run spread of raw timings is then
set by the neighbours, not by the program.

The benchmark therefore runs two fixed kernels of its own between the
program's operations and reports every time divided by the host's speed
factor around it: the kernel's median time over the nearest samples, over
its time on the reference host.  One kernel is interpreter-bound arithmetic
on 3-vectors, like the integrator and one-row predictions; the other is a
dense matrix product, like training and batched predictions.  Each tracks
its kind of work far better than the other (measured over three minutes:
gradient time over the matrix kernel spread 1.8% against 12% raw, solve time
over the interpreter kernel 3.1% against 19% raw).  One-row predictions,
Python overhead around small matrix products, follow the mean of the two
(4.4% over 10 s windows against 5.2% and 9.8% for either alone).  Neither
kernel calls the program, so a change to the program cannot move them.
"""

from __future__ import annotations

import math
from statistics import median
from time import perf_counter

import numpy as np

# median kernel times on the reference host (2 shared cores)
NOMINAL_S = {"interp": 0.008, "blas": 0.010}
WINDOW = 3      # samples taken on each side of an operation

_RNG = np.random.default_rng(20250819)
_A = _RNG.random((3, 3)) + 3.0 * np.eye(3)
_W = _RNG.random((400, 400))
_X = _RNG.random((500, 400))


def kernel_seconds() -> dict:
    """Time one run of each fixed kernel."""
    start = perf_counter()
    x = np.ones(3)
    for _ in range(600):
        r = _A @ x - np.array([math.exp(-1e-3 * x[0]), x[1], 1.0])
        x = x - 0.1 * np.linalg.solve(_A, r)
    middle = perf_counter()
    for _ in range(3):
        _X @ _W
    return {"interp": middle - start, "blas": perf_counter() - middle}


class Clock:
    """Kernel samples between operations.  Operation i lies between samples
    i and i + 1; its speed factor is the median of the WINDOW samples on each
    side, over the nominal time."""

    def __init__(self):
        self.samples = [kernel_seconds()]

    def tick(self) -> int:
        """Sample the host after an operation; returns that operation's id."""
        self.samples.append(kernel_seconds())
        return len(self.samples) - 2

    def scale(self, op: int, kind: str) -> float:
        """Speed factor of `kind` ("interp", "blas", or "mix", their mean) around op."""
        if kind == "mix":
            return 0.5 * (self.scale(op, "interp") + self.scale(op, "blas"))
        near = self.samples[max(0, op + 1 - WINDOW):op + 1 + WINDOW]
        return median(s[kind] for s in near) / NOMINAL_S[kind]

    def seconds(self, op: int, raw: float, kind: str) -> float:
        """A raw time of operation `op` in reference-host seconds."""
        return raw / self.scale(op, kind)
