"""Clock time adjusted for how fast the CPU ran while it was measured.

On a shared virtual machine the same code can run at very different
speeds from one second to the next: on the machine this benchmark was
built on, a fixed kernel took 1x to 2x its fastest time, in stretches of
ten to thirty seconds, so 30-second runs of identical work differed by
up to 50%.  :class:`SpeedProbe` measures that speed in-process while the
measured code runs: a ``SIGALRM`` every 10 ms runs a small fixed numpy
kernel in the main thread (no lock or second core involved) and records
how long it took.  Between two probes the code ran at roughly the speed
the probes saw, so

    adjusted = REFERENCE_PROBE_S * sum(gap / probe time)

is the time the code would have taken had each probe taken
``REFERENCE_PROBE_S``.  The probe's own time is left out of ``adjusted``
but stays in the clock time (about 3% of it).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.01
# One reference second is the time in which the probe kernel runs 5000
# times: close to its fast-mode speed on the machine the benchmark was
# built on (Intel Xeon, numpy 2.4 with OpenBLAS, one thread).
REFERENCE_PROBE_S = 2e-4

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((20, 20))
_M = _M + _M.T
_P = np.arange(0, 20, 2)
_Q = np.arange(1, 20, 2)


def probe_kernel() -> np.ndarray:
    """Six rounds of paired Jacobi-style rotations on a fixed 20x20 matrix.

    Small-array numpy calls driven from Python, the same mix as dvopt's
    own inner loops.
    """
    a = _M.copy()
    for _ in range(6):
        apq = a[_P, _Q]
        t = 1.0 / (np.abs(apq) + np.sqrt(apq * apq + 1.0))
        c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
        rows_p, rows_q = a[_P, :], a[_Q, :]
        a[_P, :] = c * rows_p - t[:, None] * c * rows_q
        a[_Q, :] = c * rows_q + t[:, None] * c * rows_p
        a = 0.5 * (a + a.T)
    return a


def adjusted_seconds(probes, t0: float, t1: float) -> float:
    """Reference seconds of the work done between ``t0`` and ``t1``.

    ``probes`` are (start, duration) pairs in time order: one ending
    before ``t0``, one starting after ``t1``, and any number in between.
    Each gap between probes counts at the mean speed of the two probes
    around it.
    """
    total = 0.0
    for (s0, d0), (s1, d1) in zip(probes, probes[1:]):
        gap = min(s1, t1) - max(s0 + d0, t0)
        if gap > 0:
            total += gap * 0.5 * (1.0 / d0 + 1.0 / d1)
    return REFERENCE_PROBE_S * total


class SpeedProbe:
    """Context manager timing a block by clock and by reference seconds."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self.clock_s = 0.0
        self.adjusted_s = 0.0

    def _probe(self, *_) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        # Block, stop the timer and drop an alarm already raised, so none
        # reaches the previous handler (by default, process termination).
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.sigtimedwait({signal.SIGALRM}, 0)
        signal.signal(signal.SIGALRM, self._previous)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        self._probe()
        self.clock_s = t1 - self._t0
        self.adjusted_s = adjusted_seconds(self.probes, self._t0, t1)
