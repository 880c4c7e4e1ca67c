"""Shared fixtures for the test suite.

Everything is seeded: tests must be bit-for-bit reproducible run to run.
Series fixtures are deliberately short — unit tests exercise code paths,
not paper-scale accuracy (that is what ``benchmarks/`` is for).

Bit-for-bit results assume one BLAS thread (DESIGN.md §13): a threaded
BLAS reorders floating-point sums, which moves the GP fits the BO
fixture pins.  The pin below runs before numpy is imported here, and
also reaches any OpenBLAS a plugin already loaded.
"""

from __future__ import annotations

import ctypes
import os

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _pin_blas_threads() -> None:
    """One BLAS thread: via the environment for libraries not yet loaded,
    via OpenBLAS's own setter for those already mapped in."""
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone, e.g. "(deleted)"
            continue
        for sym in _OPENBLAS_SETTERS:
            setter = getattr(lib, sym, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_pin_blas_threads()

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def sine_series() -> np.ndarray:
    """A clean learnable series: sinusoid + small noise, length 240."""
    t = np.arange(240)
    rng = np.random.default_rng(7)
    return 100.0 + 40.0 * np.sin(2 * np.pi * t / 24.0) + rng.normal(0, 2.0, 240)


@pytest.fixture
def bursty_series() -> np.ndarray:
    """A rough series with spikes (non-negative)."""
    rng = np.random.default_rng(8)
    base = 50.0 + 10.0 * rng.standard_normal(200).cumsum() * 0.1
    series = np.maximum(base, 5.0)
    series[::23] *= 3.0
    return series


@pytest.fixture
def tiny_settings():
    from repro.core import FrameworkSettings

    return FrameworkSettings.tiny()
