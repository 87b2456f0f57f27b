"""Timing against a reference loop sampled during the timed call.

The host this benchmark runs on is shared, and its speed drifts: the same
ctdkit call can take up to 65% longer for tens of seconds at a time, so raw
seconds spread across runs by more than any useful bound.  While a call
runs, an interval timer interrupts it every `INTERVAL` seconds, and the
handler times a fixed reference loop (dictionary lookups on tuple keys, the
kind of work ctdkit's BDD engine does).  The loop allocates nothing, so it
never runs the garbage collector on ctdkit's behalf.

The call's own time (the handler's time removed), divided by the mean loop
time, is its cost in loops.  `REF_SECONDS`, the loop's median time on the
reference machine (2 cores, Python 3.11), turns that back into seconds.
These reference seconds follow the program's speed and hold steady while
the host's speed drifts.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.05       # seconds between reference samples during a call
LOOP_LENGTH = 20000   # lookups per reference sample
REF_SECONDS = 0.002   # one reference loop on the reference machine (its median)


class RefClock:
    def __init__(self):
        self._keys = [(i % 1009, i % 251, i & 3) for i in range(LOOP_LENGTH)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        self._samples: list[float] = []
        self._spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        table, keys, acc = self._table, self._keys, 0
        for i in range(LOOP_LENGTH):
            acc += table[keys[i]]
        end = time.perf_counter()
        self._samples.append(end - start)
        self._spent += time.perf_counter() - start

    def time(self, fn):
        """Call fn(); returns (wall seconds, reference seconds, result).
        Exceptions from fn propagate after the timer is stopped."""
        self._samples, self._spent = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._spent = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        seconds = end - start - self._spent
        self._sample()
        loop = sum(self._samples) / len(self._samples)
        return seconds, seconds / loop * REF_SECONDS, result
