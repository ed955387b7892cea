"""Host-speed calibration for a shared machine.

On the 2-core host this benchmark was built on, the same single-threaded
E step runs at about 90 us per sample in some periods and about 145 us in
others, switching every few seconds and drifting over minutes, with no
scheduler steal to show for it (other tenants share the cores' caches and
execution units).  Run-level wall times moved by 1.5x between runs for
that reason alone.

A fixed kernel made of the same kind of work as the program (q x q
Cholesky solves and small matrix products through numpy and scipy, driven
by a Python loop) is timed right before and after each measured interval.
Its time in the interval's neighbourhood, against its time at the
reference speed, gives the factor that converts the interval's wall time
to reference-host seconds.  The kernel is part of the benchmark, not of
demfit, so no change to the program moves it.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.linalg as sla

CALLS = 1600
# seconds one kernel() takes on the reference host at its faster speed
REFERENCE_S = 0.04

_A = np.arange(30.0).reshape(10, 3) / 30.0
_I = np.eye(3)
_Y = np.linspace(0.0, 1.0, 10)


def kernel() -> float:
    """Time CALLS small solves; returns the elapsed seconds."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(CALLS):
        G = _A.T @ _A + _I
        c = sla.cho_factor(G, lower=True, check_finite=False)
        x = sla.cho_solve(c, _A.T @ _Y, check_finite=False)
        acc += float(x @ x) + float(np.sum(np.log(np.diag(c[0]))))
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return elapsed


def factor(before: float, after: float) -> float:
    """Multiply a wall time by this to express it in reference-host seconds."""
    return REFERENCE_S / (0.5 * (before + after))
