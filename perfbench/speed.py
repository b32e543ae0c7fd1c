"""The machine's speed, read between timed operations.

The benchmark runs on cores shared with other tenants, and their speed
drifts by a fifth within seconds and by a third between minutes. A
Speedometer times a fixed piece of pure-Python work (the kind of work
wlcheck does: tuple hashing, dict building, sorting, Fraction sums)
before each timed operation, or before the first one after REREAD_S of
timed work, and once after the last. Each operation's time is then
scaled by REF_S over the mean of the two readings around it: the
figures the benchmark reports are seconds at the speed the machine had
when REF_S was measured. The fixed work does not touch wlcheck, so a
change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# median of calibrate() over the benchmark's runs on the 2-core Xeon
# (2.1 GHz, Python 3.11.7, cores shared with other tenants) it was tuned on
REF_S = 0.0050
REREAD_S = 0.25


def _fixed_work():
    table = {}
    for i in range(4500):
        table[(i * 7919) % 1013, i % 17] = i
    keys = sorted(table, key=lambda k: (k[1], k[0]))
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(i, i + 3)
    return len(keys), total


def calibrate() -> float:
    """Median of five timings of the fixed work, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            _fixed_work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class Speedometer:
    """Scales timed intervals to the reference speed REF_S stands for.

    Call before() ahead of each timed interval and add(seconds, op) after
    it; flush() takes a last reading and returns the scaled intervals
    since the previous flush, in order, as (seconds, op) pairs. `spent`
    is the wall time spent reading, `timed` the raw time added.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        self.timed = 0.0
        self._since = float("inf")
        self._open: list[tuple[float, bool]] = []
        self._scaled: list[tuple[float, bool]] = []

    def read(self) -> None:
        t0 = time.perf_counter()
        self.readings.append(calibrate())
        if len(self.readings) > 1 and self._open:
            factor = 2 * REF_S / (self.readings[-2] + self.readings[-1])
            self._scaled += [(raw * factor, op) for raw, op in self._open]
        self._open = []
        self._since = 0.0
        self.spent += time.perf_counter() - t0

    def before(self) -> None:
        if self._since >= REREAD_S:
            self.read()

    def add(self, seconds: float, op: bool = True) -> None:
        self._open.append((seconds, op))
        self._since += seconds
        self.timed += seconds

    def flush(self) -> list[tuple[float, bool]]:
        self.read()
        scaled, self._scaled = self._scaled, []
        return scaled
