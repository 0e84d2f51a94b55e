"""The host's speed, sampled all through the measured window.

The benchmark's host is shared: its speed drifts by a factor of up to
two, in states that last from seconds to minutes.  ``Ticker`` sets an
interval timer; on each tick the signal handler times a fixed loop of
pure Python that does no work of the program.  ``around(start, end)`` is
the median tick over an interval, so an operation's time can be read
against the speed the host had while that operation ran: a time scaled
by ``REFERENCE_S / around(...)`` is the time on a host where one tick
takes ``REFERENCE_S``.  The loop runs no code of the program, so a
change to the program moves scaled times as much as raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_EVERY_S = 0.005      # one tick per 5 ms of wall time
TICK_LOOP = 500           # about 20 us of work per tick
MARGIN_S = 0.05           # ticks this close to an interval also count
REFERENCE_S = 2e-5        # the tick time that scaled times refer to


class Ticker:
    def __init__(self):
        self.samples = []     # (start, seconds) per tick, as they come
        self.stamps = []      # tick start times, ascending, set on exit
        self.ticks = []       # seconds the tick's loop took, set on exit
        self._old = None

    def _tick(self, _signum, _frame):
        # one append per tick: a handler that interrupts this one cannot
        # leave two lists out of step
        start = time.perf_counter()
        total = 0
        for i in range(TICK_LOOP):
            total += i
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.sort()
        self.stamps = [start for start, _ in self.samples]
        self.ticks = [seconds for _, seconds in self.samples]
        return False

    def around(self, start, end) -> float:
        """Median tick from ``start - MARGIN_S`` to ``end + MARGIN_S``.

        A call into C code that runs long holds the handler off, and the
        ticks due meanwhile arrive as one; with fewer than three ticks in
        the interval the median of the whole run stands in."""
        lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
        return statistics.median(self.ticks[lo:hi] if hi - lo >= 3 else self.ticks)

    def summary(self) -> dict:
        ticks = sorted(self.ticks)
        if not ticks:
            return {"ticks": 0}

        def q(p):
            return round(ticks[int(p * (len(ticks) - 1))] * 1e6, 3)

        fast = ticks[len(ticks) // 10]
        return {"ticks": len(ticks), "p10_us": q(0.1), "p50_us": q(0.5),
                "p90_us": q(0.9),
                # share of ticks more than 20% slower than the tenth percentile
                "slow_share": round(sum(t > 1.2 * fast for t in ticks)
                                    / len(ticks), 3)}
