"""The machine-speed probe every end-to-end time is scaled by."""

from __future__ import annotations

import gc
import json
import statistics
import time

#: Times the loop runs per calibration. One run's time varies by about
#: 20% from the next even back to back; the median of three is steadier.
ROUNDS = 3


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now.

    The speed of a shared machine drifts by tens of percent over seconds
    to minutes. ``run.py`` scales each timed span by this loop's time
    measured next to it, so that drift cancels while a change to the
    program, which the loop does not run, shows in full. The loop mixes
    arithmetic with building, encoding and sorting containers, like the
    program; it runs with the collector off, so its time does not depend
    on how many objects the program holds. Returns the median of
    ``ROUNDS`` runs of the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(ROUNDS))
    finally:
        if enabled:
            gc.enable()


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {str(i): [i, i >> 1, (i, "x")] for i in range(15_000)}
    json.dumps(table)
    sorted(table.items(), key=lambda item: -item[1][0])
    del table
    return time.perf_counter() - start
