"""A clock that advances with the work done, not with the wall.

The host this benchmark runs on is shared, and its speed changes from
moment to moment: the same Python code can take up to twice as long for
stretches from milliseconds to minutes.  :class:`WorkClock` measures
that speed as it goes.  Every few milliseconds (``SIGALRM`` from an
interval timer) and at each :meth:`WorkClock.probe` call it times a
fixed ~20-30 us loop, the *probe*.  The program time between two
probes is divided by the mean of their durations, so the clock counts
probe lengths of work: a slow stretch makes both the program and the
probes slower and leaves the count alone.  :meth:`WorkClock.seconds`
turns a count back into seconds at a fixed reference speed, the speed
at which one probe takes ``REFERENCE_PROBE_S``.

The probe allocates no objects the garbage collector tracks, so it
does not move the program's collections, and its own time is left out
of every count.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Iterations of the probe loop: about 20 us on a quiet 2.1 GHz core.
PROBE_LOOPS = 300

#: Interval of the probe timer.
INTERVAL_S = 0.005

#: A probe's duration at the reference speed: a quiet core of the
#: shared 2-CPU x86_64 host (2.1 GHz Xeon, Python 3.11) the benchmark
#: was tuned on.  In five 8 s runs of 75k-85k probes there, the 1st
#: percentile of the probe's duration lay within 19.8-20.5 us, and its
#: median within 26-30 us.
REFERENCE_PROBE_S = 20e-6

_clock = time.perf_counter


class WorkClock:
    """Counts work in probe lengths; see the module docstring.

    Use it as a context manager to run the probe timer; without it,
    only explicit :meth:`probe` calls measure the host's speed.
    """

    def __init__(self) -> None:
        #: Duration (s) of every probe so far.
        self.probes: list[float] = []
        self._units = 0.0
        self._last_end = 0.0
        self._last_probe = 0.0
        self._probing = False
        self._previous_handler = None

    def probe(self) -> float:
        """Time one probe and return the work count up to it."""
        if self._probing:   # a timer probe inside an explicit one
            return self._units
        self._probing = True
        x = 1
        start = _clock()
        for i in range(PROBE_LOOPS):
            x = (x * 31 + i) & 0xFFFF
        end = _clock()
        duration = end - start
        if self.probes:
            self._units += (start - self._last_end) * 2 / (
                self._last_probe + duration)
        self._last_end, self._last_probe = end, duration
        self.probes.append(duration)
        self._probing = False
        return self._units

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def __enter__(self) -> "WorkClock":
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.probe()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    @staticmethod
    def seconds(units: float) -> float:
        """A work count as seconds at the reference speed."""
        return units * REFERENCE_PROBE_S

    def probe_quantiles_us(self) -> dict:
        """How fast the host ran: quantiles of the probe's duration."""
        return {f"p{q}": float(np.percentile(self.probes, q)) * 1e6
                for q in (1, 50, 99)}
