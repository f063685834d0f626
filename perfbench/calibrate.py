"""A fixed reference computation that times the machine, not the program.

The shared 2-core machine this benchmark was defined on changes speed by
up to 30% over a few minutes (other tenants' load), for the program and
for any other code alike. Each run times this kernel often, and
``run.py`` scales every time it reports by ``REFERENCE_S`` over the
median kernel time of the phase (set-up or rounds) the time was taken
in, so a figure reads as seconds on a machine where the kernel takes
``REFERENCE_S``. The kernel shares no code with
rscn, so no change to the program can move it; it mixes the same kinds
of work the program does: a dense tanh recursion, a per-step vector
recursion, small least-squares solves, pool-sized matrix products and a
scalar Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.050  # the kernel's median time on the defining machine, rounded
_REPEATS = 3

_rng = np.random.default_rng(0)
_W = _rng.uniform(-0.1, 0.1, (120, 120))
_U = _rng.uniform(-1.0, 1.0, (120, 2000))
_P = _rng.uniform(-0.5, 0.5, (100, 1900))
_X = _rng.standard_normal((480, 124))
_Y = _rng.standard_normal((480, 1))
_A = _rng.uniform(-1.0, 1.0, (100, 130))
_B = _rng.uniform(-1.0, 1.0, (130, 1900))


def _kernel() -> float:
    t0 = time.perf_counter()
    x = np.zeros(120)
    for t in range(_U.shape[1]):
        x = np.tanh(_U[:, t] + _W @ x)
    g = np.zeros(100)
    out = np.empty_like(_P)
    for t in range(_P.shape[1]):
        g = np.tanh(_P[:, t] + 0.5 * g)
        out[:, t] = g
    for _ in range(3):
        scipy.linalg.lstsq(_X, _Y)
    for _ in range(10):
        _A @ _B
    y = 0.5
    for _ in range(20_000):
        y += 0.01 * (-0.1 * y + 0.2 * y / (1.0 + y**10))
    return time.perf_counter() - t0


def sample() -> float:
    """Median time of a few kernel runs, in seconds."""
    return statistics.median(_kernel() for _ in range(_REPEATS))
