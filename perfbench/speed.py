"""Correction for the machine's drifting speed.

On a small shared machine the speed of interpreter-bound code drifts by
tens of percent over seconds, with no steal time to show it. So the
benchmark times a fixed reference computation every `INTERVAL_S` from a
SIGALRM handler while ops run, and scales each op's wall time by the
reference's mean speed around that op over its nominal speed (one run per
`REFERENCE_MS`). The mean speed over an interval is what sets how much work
the interval holds. The handler runs the reference twice and times the
second run, so that the sample sees warm caches rather than the op's
working set. A scaled time is the op's time on a machine where the
reference takes `REFERENCE_MS`: it moves with the work elfol does and much
less with the machine's speed. The handler's own time is taken out of the
op's time.

Wall times alone are not steady enough for the benchmark's 0.25 bounds on
such a machine: over ten seeds their quartile spread reached 0.33, and two
sets of ten runs of the same code gave wall medians up to 16% apart, most
of the regression bound. The scaled times of the same runs spread at most
0.054 and their medians agreed within 3.2%; README.md has the figures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
REFERENCE_MS = 0.7  # a typical sampled duration on a shared 2-core x86 VM
WINDOW_S = 0.25  # samples this close to a short op's ends also count


def reference() -> int:
    """Fixed interpreter-bound work resembling elfol's: calls, tuple and
    dict building, isinstance tests and string keys."""
    table = {}
    for i in range(200):
        node = (i, (i & 3, ("k", i)), None)
        key = f"{i}:{node[1][0]}"
        if isinstance(node[1], tuple) and key not in table:
            table[key] = len(node) + _depth(node)
    return len(table)


def _depth(node) -> int:
    if not isinstance(node, tuple):
        return 0
    return 1 + max(_depth(child) for child in node)


class SpeedProbe:
    """Samples the reference's duration while running."""

    def __init__(self):
        self.starts: list = []  # sample start times, ascending
        self.durations: list = []  # the timed (second) run, seconds
        self.spans: list = []  # the handler's whole time, seconds
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        begin = perf_counter()
        reference()
        start = perf_counter()
        reference()
        end = perf_counter()
        self.starts.append(begin)
        self.durations.append(end - start)
        self.spans.append(end - begin)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, start: float, end: float) -> float:
        """Handler time inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.spans[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """The reference's mean speed around [start, end], in runs per
        `REFERENCE_MS`."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no speed sample near an op")
        return REFERENCE_MS / 1000 * statistics.fmean(1 / d for d in window)

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1000
