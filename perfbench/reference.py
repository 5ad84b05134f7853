"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared VM the speed of interpreter-bound code changes by up to ~1.5x
from one stretch of seconds or minutes to the next, and a whole run can
fall in a slow or a fast stretch. The loop below does the same work every
time and touches no program code, so its wall time tracks only the
machine: timed next to a summarize rep, the ratio of the two cancels the
machine's speed and keeps the program's (perfbench/README.md,
Calibration).
"""

from __future__ import annotations

import gc
import math
import random
import time
from operator import itemgetter

KEYS = 60_000                   # one loop takes ~20 ms on a 2.0 GHz Xeon
REPEATS = 3

_rng = random.Random(0)
_KEYS = [_rng.randrange(1 << 20) for _ in range(KEYS)]


def _loop() -> tuple:
    """Count keys in a dict, then sort the counts: hashing, allocation and
    bytecode dispatch, like the program's pure-Python parts."""
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items(), key=itemgetter(1))[-1]


def reference_s() -> float:
    """Fastest of ``REPEATS`` timings of the loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            tic = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - tic)
    finally:
        if enabled:
            gc.enable()
    return best

