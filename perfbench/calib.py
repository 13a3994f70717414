"""Machine-speed calibration.

On a shared virtual machine the same code runs at different speeds from
run to run (a fixed pure-Python loop took 82 ms in one run and 130 ms in
another, minutes apart, with CPU time moving with wall time).  The
benchmark therefore times a fixed reference loop of its own between
measured windows and reports every timed metric at a nominal reference
speed::

    calibrated time = raw time * NOMINAL_REF_S / reference time beside it

The host's speed switches between modes within a run, at a scale of a
tenth of a second (here a fast mode and one about half as fast), and
every kind of work the program does slows with it.  So slices are short
and frequent, and each measured window is scaled by the mean of the two
slices that bracket it: a window never borrows the speed of a moment it
did not run in.  The benchmark pins itself, and so every process it
starts, to one CPU (``run.py``): work spread over two CPUs followed the
benchmark process's slices only loosely, since the CPUs switch modes
independently.

Set-up is made of calls too long to bracket (a construction call runs
for up to a second, across several mode switches), so during set-up a
``SpeedSampler`` times a short slice every ``SAMPLE_INTERVAL_S`` of wall
time from a timer signal, and each stretch of set-up is scaled by the
mean speed sampled inside it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: The reference slice's time in the fast mode of the machine the bounds
#: were set on (2 vCPU Firecracker guest, Python 3.11); any constant
#: works, it only fixes the scale of calibrated figures.
NOMINAL_REF_S = 0.0029
#: Iterations of a full reference slice, and of the sampler's short one.
REF_ITERATIONS = 7500
SHORT_ITERATIONS = 2500
#: Wall time between two set-up speed samples.
SAMPLE_INTERVAL_S = 0.012


def _reference_work(iterations: int = REF_ITERATIONS) -> int:
    """A fixed mix of the operations the program's Python paths are made
    of: dict and list traffic, integer and float arithmetic, calls."""
    table = {}
    items = []
    total = 0
    x = 0.5
    for i in range(iterations):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        items.append(key ^ i)
        x = x * 1.000001 + 0.25 if x < 1e6 else 0.5
        total += len(items) & 7
    items.sort()
    return total + items[len(items) // 2] + int(x)


def reference_slice() -> float:
    """Seconds one reference slice takes now."""
    started = time.perf_counter()
    _reference_work()
    return time.perf_counter() - started


class Calibration:
    """Reference samples taken between windows, and the factors derived
    from them.  ``mark()`` takes a sample and returns its position, which
    a window records to find the samples beside it."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def mark(self) -> int:
        self.samples.append(reference_slice())
        return len(self.samples) - 1

    def factor(self, position: int) -> float:
        """``NOMINAL_REF_S / reference time`` for a window measured right
        after ``mark()`` returned ``position``: the mean of that sample
        and the next one, which closes the window."""
        return NOMINAL_REF_S / statistics.fmean(self.samples[position:position + 2])

    def overall(self) -> float:
        """The factor of the run as a whole (median slice)."""
        return NOMINAL_REF_S / statistics.median(self.samples)

    def summary(self) -> dict:
        return {
            "nominal_s": NOMINAL_REF_S,
            "median_s": statistics.median(self.samples),
            "min_s": min(self.samples),
            "max_s": max(self.samples),
            "count": len(self.samples),
            "samples_s": [round(s, 6) for s in self.samples],
        }


class SpeedSampler:
    """Speed samples taken while long calls run.

    While running, a ``SIGALRM`` timer interrupts the main thread every
    ``SAMPLE_INTERVAL_S`` and times a short reference slice there.
    ``factor(begin, end)`` is the mean of ``NOMINAL_REF_S / slice``
    (scaled to a full slice) over the samples taken in that stretch of
    ``perf_counter`` time, or ``None`` if none fell inside it;
    ``spent(begin, end)`` is the time the samples themselves took there.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (taken at, seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        begun = time.perf_counter()
        _reference_work(SHORT_ITERATIONS)
        self.samples.append((begun, time.perf_counter() - begun))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer, then restore the handler (idempotent)."""
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None

    def _inside(self, begin: float, end: float) -> List[float]:
        return [seconds for at, seconds in self.samples if begin <= at < end]

    def factor(self, begin: float, end: float):
        inside = self._inside(begin, end)
        if not inside:
            return None
        scale = NOMINAL_REF_S * SHORT_ITERATIONS / REF_ITERATIONS
        return statistics.fmean(scale / seconds for seconds in inside)

    def spent(self, begin: float, end: float) -> float:
        return sum(self._inside(begin, end))
