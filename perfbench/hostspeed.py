"""Host-speed calibration, independent of the smallmass package.

The shared host of the benchmark changes speed by tens of percent, at times
by a factor of two, in phases that last from a second to several minutes, and
each CPU on its own.  A wall time alone therefore measures the host's phase
as much as the code.  ``calibration_s`` times a fixed kernel with the same
mix of work as the package's stepping loops: interpreter bytecode, numpy
calls on small arrays, elementwise numpy work on cache-sized arrays, and
small batched LAPACK solves.  The benchmark times a few passes of it before
and after every round, on the same CPU, and reports each round as
``round / calibration * REFERENCE_S``: the round as it would read on a quiet
host, on which one pass takes ``REFERENCE_S``.

A set-up is mostly loading code in a fresh process, which a host phase slows
differently from computing.  Its calibration is that process's own numpy
import, timed on its own; ``REFERENCE_NUMPY_IMPORT_S`` is that import on a
quiet host.

The calibrations run the benchmark's code and numpy's, never the package's,
so a change to the package moves the scaled figures in full.
"""

from __future__ import annotations

import time

import numpy as np

# Wall times on a quiet 2-vCPU host (Intel Xeon, Python 3.11.7, numpy 2.4.6,
# scipy-openblas 0.3.31), with the benchmark pinned to one CPU.  They only set
# the scale of the reported figures.
REFERENCE_S = 0.065
REFERENCE_NUMPY_IMPORT_S = 0.058

_PY_LOOPS = 250_000
_NP_LOOPS = 4_500
_ARRAY_LOOPS = 80
_SOLVE_LOOPS = 500


def calibration_s() -> float:
    """Wall time of one pass of the calibration kernel."""
    rng = np.random.default_rng(0)
    a = rng.random(16)
    b = rng.random((16, 1))
    x = rng.random((16, 64, 1))
    y = rng.random((16, 1, 64))
    m = rng.random((8, 16, 16)) + 16.0 * np.eye(16)
    rhs = rng.random((8, 16, 1))
    start = time.perf_counter()
    acc = 0
    for i in range(_PY_LOOPS):
        acc += i * i % 7
    for _ in range(_NP_LOOPS):
        a = np.sqrt(a * 0.5 + b[:, 0] * 0.5)
        a = np.where(a > 0.5, a, a + 0.25)
    for _ in range(_ARRAY_LOOPS):
        r = x - y
        np.exp(-r * r, out=r)
        x = x * 0.5 + r.mean(axis=2, keepdims=True)
    for _ in range(_SOLVE_LOOPS):
        rhs = np.linalg.solve(m, rhs) + 1.0
    return time.perf_counter() - start
