"""Machine-speed probe, so that timings survive a shared, noisy host.

On a small virtual machine whose cores other tenants share, the same desk
pass took anywhere from 0.33 s to 0.67 s within one minute, in slow and fast
spells of 0.3 s to a few seconds. The probe times a fixed reference kernel
every INTERVAL_S seconds from a SIGALRM handler on the main thread. A measured
interval loses the time spent in the handler and is then scaled by
NOMINAL_S / (mean kernel time around it), so it reads as seconds at the
reference host's speed. A run without the probe running reports plain wall
time. Loops of sub-millisecond calls pause the alarm and sample between calls,
so that no timed call pays for the kernel's cache traffic more often than
once per INTERVAL_S.
"""

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
# Kernel time on the reference host (2-core Intel Xeon VM at 2.1 GHz, OpenBLAS
# on one thread) in its fast spells.
NOMINAL_S = 0.0022


class Pace:
    """Samples (start time, kernel seconds) and the total time spent sampling."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((32, 64))
        self._weights = rng.standard_normal((64, 64))
        self._ids = np.array([f"g{i:05d}" for i in rng.permutation(4000)])
        self._keys = rng.standard_normal(4000)
        self._stream = rng.standard_normal(1 << 19)
        self._scratch = np.empty_like(self._stream)
        self.starts = []
        self.kernel_s = []
        self.spent = 0.0
        self.active = False

    def kernel(self) -> None:
        """One each of the work kinds the workloads do: a Python loop over small
        matmuls, a lexsort over string ids, and a 4 MB streaming pass."""
        for i in range(60):
            np.tanh(self._small @ self._weights)
            repr((i, self._keys[i]))
        np.lexsort((self._ids, self._keys))
        np.multiply(self._stream, 1.0001, out=self._scratch)
        np.add(self._scratch, self._stream, out=self._scratch)

    def sample(self) -> None:
        started = time.perf_counter()
        self.kernel()
        ended = time.perf_counter()
        self.starts.append(started)
        self.kernel_s.append(ended - started)
        self.spent += ended - started

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.active = True
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        self.active = False
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def sample_if_due(self) -> None:
        """While paused, sample when the last sample is INTERVAL_S old."""
        if self.active and (not self.starts or time.perf_counter() - self.starts[-1] >= INTERVAL_S):
            self.sample()

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent

    def reading(self, start: tuple, end: tuple) -> tuple:
        """(start time, end time, wall seconds minus probe time) of an interval."""
        return start[0], end[0], (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, reading: tuple) -> float:
        """The interval in seconds at reference speed.

        Uses the samples started within INTERVAL_S of the interval, else the
        next sample (the last one when none follows); plain when never sampled.
        """
        t0, t1, net = reading
        if not self.starts:
            return net
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:
            nearest = min(lo, len(self.starts) - 1)
            lo, hi = nearest, nearest + 1
        window = self.kernel_s[lo:hi]
        return net * NOMINAL_S * len(window) / sum(window)
