"""Speed-normalised timing: calibration loop, pause-corrected clock, stats.

Host speed on a small shared machine can change by 2x within seconds
(for example when a neighbour on the sibling hyperthread comes and
goes), so a raw wall time says as much about the neighbours as about the
code.  Every timed unit is therefore measured together with a fixed
pure-Python calibration loop and reported at a reference speed::

    normalised = raw * CAL_REF_S / cal_measured

``cal_measured`` is the mean duration of the calibration loop over the
unit: one run just before it, one just after, and one every
``SAMPLE_INTERVAL_S`` while it runs (an interval timer interrupts the
unit).  Time spent inside those interruptions is subtracted from the
unit by :class:`Clock`, so the samples inside a unit cost it nothing but
the cache state they disturb.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Iterations of :func:`calibration_loop`; about 0.6-1.2 ms on a 2020s
#: server core, short enough to sample often inside a unit.
CAL_ITERATIONS = 4000

#: Reference duration of :func:`calibration_loop`.  Normalised times are
#: seconds on a host where the loop takes exactly this long.  A constant:
#: changing it rescales every normalised figure.
CAL_REF_S = 0.00065

#: Period of the in-unit calibration samples.
SAMPLE_INTERVAL_S = 0.025

#: A run whose per-unit calibration spread (IQR / median) exceeds this
#: is flagged: the host changed speed so much that the loop and the
#: program may not have slowed alike.
UNTRUSTED_SPREAD = 0.5


def calibration_loop(iterations: int = CAL_ITERATIONS) -> int:
    """The fixed unit of pure-Python work every time is scaled by."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    return acc + len(table)


class Clock:
    """``perf_counter`` minus the time spent in calibration samples.

    Between :meth:`start_sampling` and :meth:`stop_sampling`, SIGALRM
    runs the calibration loop every ``SAMPLE_INTERVAL_S`` and adds its
    duration to :attr:`paused`, so differences of :meth:`now` exclude it.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.paused = 0.0
        self.samples: List[float] = []
        #: :meth:`now` when each sample was taken (nondecreasing).
        self.sample_at: List[float] = []
        self._active = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def calibrate(self) -> float:
        """Run the calibration loop once, record and return its time."""
        self.sample_at.append(self.now())
        begin = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - begin
        self.samples.append(elapsed)
        return elapsed

    def pin_fastest_cpu(self) -> int:
        """Pin this process to the usable CPU that runs the loop fastest.

        On a shared host the CPUs slow down independently (a busy
        sibling hyperthread), so a unit started on the faster one is
        exposed to less contention.  Returns the chosen CPU.
        """
        best = (float("inf"), self.cpus[0])
        for cpu in self.cpus if len(self.cpus) > 1 else ():
            os.sched_setaffinity(0, {cpu})
            calibration_loop()  # settle caches on this CPU
            begin = time.perf_counter()
            calibration_loop()
            best = min(best, (time.perf_counter() - begin, cpu))
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best[1]})
        return best[1]

    def cal_around(self, at: float) -> float:
        """Calibration time at instant ``at`` (a :meth:`now` reading).

        The mean of the samples just before and just after it, so an
        interval shorter than the sampling period is scaled by the speed
        of its own surroundings rather than by its unit's average.
        """
        if not self.samples:
            raise ValueError("no calibration samples yet")
        index = bisect.bisect_right(self.sample_at, at)
        near = self.samples[max(index - 1, 0):index + 1]
        return sum(near) / len(near)

    def _on_alarm(self, signum, frame) -> None:
        self.paused += self.calibrate()

    def start_sampling(self) -> None:
        if self._active:
            return
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._active = True

    def stop_sampling(self) -> None:
        if not self._active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._active = False


@dataclass(frozen=True)
class UnitTime:
    """One timed unit: raw and calibration times, and the scaled result."""

    raw_s: float
    cal_s: float
    samples: int

    @property
    def scale(self) -> float:
        return normalise(1.0, self.cal_s)

    @property
    def norm_s(self) -> float:
        return normalise(self.raw_s, self.cal_s)


def normalise(raw_s: float, cal_s: float, ref_s: float = CAL_REF_S) -> float:
    """Scale a raw host time to the reference calibration speed."""
    if cal_s <= 0:
        raise ValueError(f"calibration time must be positive, got {cal_s}")
    return raw_s * ref_s / cal_s


class UnitTimer:
    """Brackets one unit with calibration and samples inside it.

    Usage::

        timer = UnitTimer(clock)
        timer.begin()
        ...work...
        unit = timer.end()
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._start = 0.0
        self._first = 0

    def begin(self) -> None:
        self.clock.pin_fastest_cpu()
        self._first = len(self.clock.samples)
        self.clock.calibrate()
        self.clock.start_sampling()
        self._start = self.clock.now()

    def end(self) -> UnitTime:
        raw = self.clock.now() - self._start
        self.clock.stop_sampling()
        self.clock.calibrate()
        taken = self.clock.samples[self._first:]
        return UnitTime(raw_s=raw, cal_s=statistics.fmean(taken),
                        samples=len(taken))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    """What the numbers were measured on."""
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cal_ref_s": CAL_REF_S,
        "cal_iterations": CAL_ITERATIONS,
    }


def calibration_report(units: Sequence[UnitTime]) -> Dict[str, object]:
    """Summary of the calibration times of a run's units."""
    cals = [unit.cal_s for unit in units]
    cal_spread = spread(cals)
    return {
        "cal_median_ms": median(cals) * 1e3 if cals else 0.0,
        "cal_min_ms": min(cals) * 1e3 if cals else 0.0,
        "cal_max_ms": max(cals) * 1e3 if cals else 0.0,
        "cal_spread": cal_spread,
        "trusted": cal_spread <= UNTRUSTED_SPREAD,
    }
