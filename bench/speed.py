"""The host's current speed, sampled while a pass runs, to normalise pass times.

The machine the benchmark runs on is a few virtual cores of a shared
host, whose speed swings by tens of percent over seconds to minutes as
its neighbours' load changes.  A pass's wall time mixes the program's
cost with that swing.  A ``SpeedProbe`` is a fixed piece of work that
does not touch fairspread; it mixes the kinds of work fairspread does
(interpreted Python, rational arithmetic, small integer batched
matmuls, vectorised float operations, and random reads from a table
larger than the core's L2 cache) on arrays allocated once.  A
``Sampler`` runs the probe at the start and end of a pass and every
``PERIOD_S`` in between, from a timer signal, so the probe
interleaves with the operations' own work.  The program time between
two probes is scaled by ``REFERENCE_PROBE_S`` over their mean duration:
the sum is the pass's time at the speed at which one probe takes
``REFERENCE_PROBE_S``.  Probe time itself is never program time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

# A probe's median duration during passes on a 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine; normalised times read as seconds there.
REFERENCE_PROBE_S = 0.011
PERIOD_S = 0.25
# Table reads per probe: during passes they take about as long as the rest.
GATHERS = 15


class SpeedProbe:
    """Fixed work whose duration tracks the host's speed; allocates nothing per probe.

    Half its time is cache-resident computation and half is random
    reads from an 8 MB table, which slow down with contention for the
    shared cache as fairspread's (R, n) arrays do.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20060790)
        self._reach = (rng.random((6, 48, 48)) < 0.05).astype(np.uint8)
        self._x = rng.random(16384)
        self._y = np.empty_like(self._x)
        self._gather = rng.integers(0, self._x.size, self._x.size)
        self._table = rng.random(1 << 20)
        self._rows = rng.integers(0, self._table.size, 1 << 15)
        self._picked = np.empty(self._rows.size)

    def run(self) -> float:
        """Seconds one probe takes now."""
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(12000):
            total += (i * 7) % 13
            table[i & 255] = total
        q = Fraction(0)
        for i in range(1, 400):
            q += Fraction(1, i)
        for _ in range(2):
            np.matmul(self._reach, self._reach)
        for _ in range(12):
            np.multiply(self._x, 1.0001, out=self._y)
            np.add(self._y, self._x, out=self._y)
            self._y.take(self._gather, out=self._y)
            self._y.sort()
        for _ in range(GATHERS):
            self._table.take(self._rows, out=self._picked)
        return time.perf_counter() - start


class Sampler:
    """Probes at entry, every PERIOD_S from SIGALRM, and at exit; see the module docstring.

    Use as a context manager around the timed work, in the main thread.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.samples: list[tuple[float, float]] = []  # (probe start, probe end)
        self._busy = False
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.probe.run()
            self.samples.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def program_s(self) -> float:
        """Wall seconds between the first and the last probe, probes excluded."""
        return sum(b[0] - a[1] for a, b in zip(self.samples, self.samples[1:]))

    def probe_s(self) -> list[float]:
        return [end - start for start, end in self.samples]

    def normalised_s(self) -> float:
        """Program time scaled, gap by gap, to the reference probe duration."""
        durations = self.probe_s()
        return sum((b[0] - a[1]) * 2 * REFERENCE_PROBE_S / (da + db)
                   for a, b, da, db in zip(self.samples, self.samples[1:],
                                           durations, durations[1:]))
