"""Host speed, sampled while a timed stretch of work runs.

On a shared host the CPU speed a process gets swings by up to 60 % in
phases that last seconds, and a job of a few seconds takes the average
speed of its phases: timed on its own, the same oracle-analyze job spread
2.6-4.3 s within one minute. ``Sampler`` times a fixed kernel every
``period_s`` of wall time, in the main thread from a SIGALRM handler, so
that the samples see the speed the job itself gets, and ``Timing.at_speed``
scales the job's wall time (less the kernel's own time) to the speed at
which the kernel takes its reference time.

Over 30 oracle-analyze jobs whose raw times spread 0.17 (IQR over median),
the scaled times spread 0.027 with ``eig_kernel``, 0.048 with
``loop_kernel`` and 0.081 with a memory-streaming kernel, so jobs use
``eig_kernel``. The set-up probe times ``import impedmodal``, numpy
included, so it uses ``loop_kernel``, which needs no import.
"""

from __future__ import annotations

import signal
import time

# The set-up probe imports this module before it starts timing the package's
# import, so it imports nothing beyond the interpreter's built-ins.


def loop_kernel() -> float:
    """Seconds a fixed stretch of interpreter work takes (about 0.2 ms)."""
    start = time.perf_counter()
    x = 0.0
    for i in range(3000):
        x += i * 0.5
    return time.perf_counter() - start


_MATRIX = []


def eig_kernel() -> float:
    """Seconds the eigenvalues of a fixed 48x48 matrix take (about 0.8 ms)."""
    import numpy as np

    if not _MATRIX:
        _MATRIX.append(np.random.default_rng(0).standard_normal((48, 48)))
    start = time.perf_counter()
    np.linalg.eigvals(_MATRIX[0])
    return time.perf_counter() - start


# Timings are reported at the speed where a kernel takes this long: near
# the median speed of a shared 2-vCPU x86-64 host.
REFERENCE_S = {"loop_kernel": 2e-4, "eig_kernel": 8e-4}


class Timing:
    def __init__(self, wall_s: float, work_s: float, samples: list[float], kernel: str):
        self.wall_s = wall_s  # between entry and exit, samples included
        self.work_s = work_s  # the same, less the samples taken in between
        self.samples = samples
        self.kernel = kernel

    def at_speed(self) -> float:
        """The work's wall time at the kernel's reference speed."""
        mean = sum(self.samples) / len(self.samples)
        return self.work_s * REFERENCE_S[self.kernel] / mean


class Sampler:
    """Context manager timing the work inside it; one kernel sample on
    entry, one on exit and one every period_s between. Main thread only."""

    def __init__(self, kernel=eig_kernel, period_s: float = 0.05):
        self.kernel = kernel
        self.period_s = period_s

    def __enter__(self) -> Sampler:
        self.samples = [self.kernel()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.kernel())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        work = wall - sum(self.samples[1:])
        self.samples.append(self.kernel())
        self.timing = Timing(wall, work, self.samples, self.kernel.__name__)
