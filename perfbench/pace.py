"""Machine-speed probe: scales call times to a fixed reference speed.

On a shared host the same CPU-bound code runs at different speeds as other
tenants come and go: on a 2-CPU virtual machine the closed loop switches
between two speeds about 1.7x apart every few seconds to minutes.  A median
over a run cannot remove a slow phase that covers the whole run, so the
benchmark samples the machine's speed while it measures.

A timer signal every ``INTERVAL_S`` runs three short reference probes in the
benchmark's own code, each shaped like one kind of work the package does:

    py  scalar Python with tiny NumPy arrays (the closed loop, Nelder-Mead)
    np  whole-array NumPy passes over a 256 KB array (thresholding, labeling)
    la  small dense Cholesky factorizations (the GP in bayesopt)

A timed call's busy time is its wall time minus the probes that ran inside
it.  Its reported time is that busy time times the call's speed: the mean
of ``NOMINAL_S[part] / probe`` over the probes within ``WINDOW_S`` of the
call, trimmed of the fastest and slowest fifth.  So the figures read as
milliseconds at the probe's nominal speed, and a run in a slow phase reads
about the same as one in a fast phase.  The probes are the same on every
commit, so a change to the package moves the figures and a change of
machine load mostly does not.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 0.1
TRIM = 0.2
# Probe times on an uncontended core of a 2-CPU x86-64 VM (Xeon, no numba);
# they only set the scale of the reported figures.
NOMINAL_S = {"py": 3.9e-4, "np": 1.45e-4, "la": 2.0e-4}


class Pace:
    def __init__(self):
        # The probes allocate nothing large, so their time does not depend on
        # how the package has left the allocator (a fresh 512 KB temporary
        # costs page faults that come and go with the heap's state).
        rng = np.random.default_rng(0)
        self._vec = rng.random(1 << 15)
        self._buf = np.empty((2, 1 << 15))
        m = rng.random((96, 96))
        self._spd = m @ m.T + 96.0 * np.eye(96)
        self.times: list[float] = []  # probe start times, increasing
        self.probes: dict[str, list[float]] = {p: [] for p in NOMINAL_S}
        self.spent = 0.0  # seconds spent inside probes so far
        self._previous = None

    def _py(self):
        a = np.ones(6)
        s = 0.0
        for i in range(300):
            a = a * 1.0000001 + 0.5
            s += float(a[0]) * 1e-9 + i * 0.5
        return s

    def _np(self):
        v, (a, b) = self._vec, self._buf
        for _ in range(4):
            np.maximum(v[1:], v[:-1], out=a[1:])
            np.multiply(a, 0.999, out=b)
            np.add(b, v, out=a)
        return a

    def _la(self):
        for _ in range(5):
            np.linalg.cholesky(self._spd)

    def probe(self, *_signal):
        """Time each part once warm: the first run refills the caches the package used."""
        clock = time.perf_counter
        t0 = clock()
        for part, fn in (("py", self._py), ("np", self._np), ("la", self._la)):
            fn()
            t = clock()
            fn()
            self.probes[part].append(clock() - t)
        self.times.append(t0)
        self.spent += clock() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, part, t0, t1) -> float:
        """Trimmed mean of nominal / probe time near [t0, t1]; 1 without probes."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if hi <= lo:
            return 1.0
        s = np.sort(NOMINAL_S[part] / np.asarray(self.probes[part][lo:hi]))
        k = int(TRIM * len(s))
        return float(np.mean(s[k : len(s) - k]))
