"""Shared fixtures and toy systems for the test suite."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from trajsurrogate.dataset import RngSeed, SampleSet
from trajsurrogate.dynsys import SystemSpec
from trajsurrogate.integrator import TimeGrid


def openblas_corename() -> str:
    """The kernel (e.g. SkylakeX, Haswell) that NumPy's bundled OpenBLAS chose
    on this CPU, or "unknown" when that library or its symbol is absent.  A
    pinned digest follows the kernel's summation order, so a digest mismatch
    names it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            try:
                corename = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def kernel_note() -> str:
    """Failure message of a digest pin: the kernel the digests were recorded on
    and the kernel of this run."""
    return f"digests recorded on OpenBLAS kernel SkylakeX; this run uses {openblas_corename()}"


def decay_system(rate: float = 1.0, x0: float = 1.0, tf: float = 1.0) -> SystemSpec:
    """Scalar ODE x' = -rate*x with closed-form solution x0*exp(-rate*t)."""
    return SystemSpec(
        dim=1,
        mass=lambda p: np.eye(1),
        rhs=lambda t, x, p: -rate * x,
        qoi=lambda x: float(x[0]),
        initial=lambda p: np.array([x0]),
        t0=0.0,
        tf=tf,
        jac=lambda t, x, p: np.array([[-rate]]),
    )


def coupled_dae() -> SystemSpec:
    """Index-1 DAE: x1' = -x1, 0 = x1 - x2; both components equal exp(-t)."""
    return SystemSpec(
        dim=2,
        mass=lambda p: np.diag([1.0, 0.0]),
        rhs=lambda t, x, p: np.array([-x[0], x[0] - x[1]]),
        qoi=lambda x: float(x[1]),
        initial=lambda p: np.array([1.0, 1.0]),
        t0=0.0,
        tf=1.0,
        jac=lambda t, x, p: np.array([[-1.0, 0.0], [1.0, -1.0]]),
    )


def full_mass_ode() -> SystemSpec:
    """M x' = A x + [sin 7t, 0] with a full, non-diagonal mass matrix M."""
    mass = np.array([[2.0, 0.7], [0.3, 1.5]])
    a = np.array([[-3.0, 1.0], [0.5, -2.0]])
    return SystemSpec(
        dim=2,
        mass=lambda p: mass,
        rhs=lambda t, x, p: a @ x + np.array([np.sin(7.0 * t), 0.0]),
        qoi=lambda x: float(x[0]),
        initial=lambda p: np.array([1.0, -0.5]),
        t0=0.0,
        tf=1.0,
        jac=lambda t, x, p: a,
    )


def affine_sets(seed: int = 0, q: int = 3, m: int = 5, k: int = 30):
    """Train/validation/test sets whose targets follow one affine map."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((m, q))
    c = rng.standard_normal(m)
    grid = TimeGrid(0.0, 0.5, m)

    def make(role, n, shift):
        params = rng.uniform(-1.0 + shift, 2.0 + shift, (n, q))
        return SampleSet(role, params, params @ B.T + c, grid)

    return make("train", k, 0.0), make("validation", k // 2, 0.1), make("test", k // 2, 0.2)


@pytest.fixture
def weight_seed():
    return RngSeed(123, "weights")
