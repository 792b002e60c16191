"""Host time scaled to a nominal host speed.

The shared two-CPU machines this benchmark runs on change speed by up
to 1.6x in phases lasting seconds (a fixed loop takes 19 ms in one
phase and 30 ms in the next while the benchmark runs alone), so raw
host seconds of runs made minutes apart differ by more than any bound
worth gating on.  A timed region is therefore
sampled: a short fixed pure-Python probe runs before it, after it, and
every ``INTERVAL_S`` inside it (from a ``SIGALRM`` handler, which
touches no program state).  Each stretch between two probes is scaled
by ``PROBE_NOMINAL_S`` over the mean of those two probe times, and the
probes' own time is left out.  The sum is in *nominal seconds*: the
time the region would take on a host where the probe takes
``PROBE_NOMINAL_S``.  Raw host seconds are kept beside it.
"""

from __future__ import annotations

import signal
import time

PROBE_NOMINAL_S = 0.003
PROBE_LOOPS = 20_000
INTERVAL_S = 0.15


def probe() -> float:
    """Host time of a fixed pure-Python loop of dict and int work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i * 7 % 13
    return time.perf_counter() - start


class HostClock:
    """Accumulates raw and nominal host seconds over timed regions."""

    def __init__(self):
        self.raw_s = 0.0
        self.nominal_s = 0.0

    def time(self, fn, *args):
        """Run ``fn(*args)`` as one sampled region; returns its result."""
        marks = []                      # (probe start, probe duration)

        def sample(_signum, _frame):
            start = time.perf_counter()
            marks.append((start, probe()))

        previous = signal.signal(signal.SIGALRM, sample)
        first = probe()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
        marks.append((end, probe()))
        speed_before, resumed = first, start
        for at, duration in marks:
            stretch = at - resumed
            self.raw_s += stretch
            self.nominal_s += (stretch * 2.0 * PROBE_NOMINAL_S
                               / (speed_before + duration))
            speed_before, resumed = duration, at + duration
        return result
