"""Host-speed probe for the timed runs.

The benchmark shares its host with other machines' work, and the speed it
gets moves by up to a factor of two within a minute, for every workload
alike.  So each timed operation is bracketed by a fixed reference kernel
that belongs to the benchmark, never to the program: small forward-mode
jets over tiny numpy arrays (the instruction mix of the package's jet
evaluation), then a dense symmetric eigensolve and a dense solve, as in the
Jacobi and Newton steps.  ``reference_seconds`` scales an operation's wall
time by ``REF_S`` over the kernel time measured around it, which gives its
time on a host where the kernel takes ``REF_S``.  A change to the program
moves the operation times and not the kernel; a change in host speed moves
both.  Import this module only after the BLAS thread count is pinned.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.008  # the kernel time that defines a reference second
PROBE_REPS = 3
_N = 7  # jet variables, as for a dim-3 Lagrangian in (t, x, v)
_JET_REPS = 45
_DENSE_N = 200


class _Jet:
    __slots__ = ("val", "g", "h")

    def __init__(self, val, g, h):
        self.val, self.g, self.h = val, g, h

    def __add__(self, o):
        return _Jet(self.val + o.val, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        cross = np.outer(self.g, o.g)
        return _Jet(self.val * o.val, self.val * o.g + o.val * self.g,
                    self.val * o.h + o.val * self.h + cross + cross.T)


def kernel() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    acc = 0.0
    eye, zero = np.eye(_N), np.zeros((_N, _N))
    for r in range(_JET_REPS):
        xs = [_Jet(0.1 * i + 1e-3 * r, eye[i], zero) for i in range(_N)]
        s = xs[0]
        for i in range(1, _N):
            s = s * xs[i] + xs[i - 1] * xs[i]
        acc += s.val + float(s.h[0, 1])
    a = np.eye(_DENSE_N) * 4.0 + np.full((_DENSE_N, _DENSE_N), 0.01)
    acc += float(np.linalg.eigvalsh(a)[0])
    return acc + float(np.linalg.solve(a, np.ones(_DENSE_N))[0])


def probe() -> float:
    """The kernel's time now: the median of ``PROBE_REPS`` runs."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_seconds(wall_s: float, probe_s: float) -> float:
    """``wall_s`` on the reference host, given the probe time around it."""
    return wall_s * REF_S / probe_s
