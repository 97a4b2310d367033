"""Speed calibration: fixed kernels sampled around and during measurements.

On a shared machine the speed of the same code drifts by 30-50% over
seconds to minutes (neighbours, frequency), far beyond any bound a regression
check can use. The benchmark therefore reports every time at reference speed:

    reported = (measured - kernel time spent inside it) * ref / mean(samples)

where the samples are a kernel's thread CPU time just before and just after
the measurement and, with `during=True`, every INTERVAL_S while it runs (a
SIGALRM handler runs the kernel in the main thread), and `ref` is that
kernel's time on the 2-core x86-64 sandbox the benchmark was written on, so
reported times are close to wall times there. CPU time, not wall time, so
that waiting for the interpreter lock or for a core does not count as slow
speed.

Work of different kinds slows by different amounts, so each workload is
scaled by the kernel that does what its inner loop does: `grid` (small LAPACK
calls and interpreter work, as at a grid point) for the sweeps, the CLI and
set-up, `steps` (100x100 matrix-vector products, as in an RK4 step) for the
oracle. On that sandbox, sampling during a pass cut the spread of fig5 pass
times within a run from 0.25 to 0.04 (interquartile range over median), where
sampling only before and after reached 0.15; on the oracle, across runs over
a speed drift of 30%, `steps` left 0.016, `grid` 0.026 and a mix of the two
0.036.

The kernels call nothing in oemsim and keep their own references to the
NumPy routines, so neither a change to the program nor the tracer's wrappers
can move them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from numpy.linalg import eigvals, solve

INTERVAL_S = 0.025  # sampling period during a measurement (about 5% overhead)

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 10, 10)) - 4.0 * np.eye(10)
_RHS = np.ones(10)
_BIG = 0.01 * _rng.standard_normal((2, 100, 100))
_VEC = np.ones(100)
del _rng


def _grid() -> float:
    """What a grid point does: small LAPACK calls and interpreter work."""
    acc = 0.0
    for i in range(30):
        a = _SMALL[i % 16]
        acc += float(np.max(eigvals(a).real))
        acc += float(solve(a, _RHS)[0])
        acc += sum(math.sqrt(k + 1.0) for k in range(30))
    return acc


def _steps() -> float:
    """What a step of the oracle's RK4 integration does: 100x100 mat-vecs."""
    acc = 0.0
    v = _VEC
    for _ in range(150):
        acc += float(np.max(np.abs(_BIG[0] @ v + _VEC)))
        v = _BIG[1] @ v + _VEC
    return acc


#: kernel name -> (kernel, its thread CPU time on the reference machine)
KERNELS = {"grid": (_grid, 0.00125), "steps": (_steps, 0.0013)}


def kernel_s(kind: str) -> float:
    """Thread CPU time of one run of a fixed kernel."""
    kernel = KERNELS[kind][0]
    start = time.thread_time()
    acc = kernel()
    elapsed = time.thread_time() - start
    if not math.isfinite(acc):  # keeps the result live; never true
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


class SpeedProbe:
    """Context manager that samples the kernel around (and during) a measurement.

    Time the measurement inside the `with` block, then pass it with
    `samples` and `stolen_s` (the kernel time spent inside it) to
    `at_reference_speed`.
    """

    def __init__(self, kind: str, during: bool) -> None:
        self.kind = kind
        self.during = during
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        elapsed = kernel_s(self.kind)
        self.samples.append(elapsed)
        self.stolen_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(kernel_s(self.kind))
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_s(self.kind))


def at_reference_speed(kind: str, elapsed_s: float, samples: list[float],
                       stolen_s: float = 0.0) -> float:
    """A measured time, less the kernel time inside it, at reference speed."""
    return (elapsed_s - stolen_s) * KERNELS[kind][1] / statistics.fmean(samples)
