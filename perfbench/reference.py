"""The reference routine that the benchmark's times are normalized by.

The speed at which a host runs the same Python code drifts: on the
2-CPU x86-64 VM the benchmark was written on, `reference()` alone took
4 to 7.4 ms (10th to 90th percentile) over a few minutes. The benchmark
times `reference()` just before and just after every timed execution
(a CLI call, an interpreter start) and quotes the execution's time at
the host speed at which `reference()` takes REFERENCE_S:

    normalized = measured * REFERENCE_S / (mean time of reference())

A change to the program moves a normalized time as it moves the raw
one; a change in the host's speed moves the reference with it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

ROUNDS = 1500
# Timings of reference() on each side of an execution.
SAMPLES = 2
# About the median time of reference() on the VM named above.
REFERENCE_S = 0.006


def reference() -> tuple[Fraction, int, int]:
    """A fixed piece of pure-Python work that measures the host's speed.

    Its mix of small Fraction arithmetic, dict and set updates and a
    sort is the kind of work the program's inner loops do. It reads no
    state of the program, so its time changes only with how fast the
    host runs Python at that moment.
    """
    total, table, seen = Fraction(0), {}, set()
    for i in range(1, ROUNDS):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = i * 7919 % 211
        table[key] = table.get(key, 0) + i * i
        seen.add(key * i % 1009)
    rows = sorted(table.items(), key=lambda kv: (kv[1] % 13, kv[0]))
    return total, len(rows), len(seen)


def time_reference() -> list[tuple[float, float]]:
    """Wall and CPU seconds of SAMPLES runs of `reference()`, with the
    collector off so that the program's heap does not slow it."""
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            wall, cpu = time.perf_counter(), time.process_time()
            reference()
            times.append((time.perf_counter() - wall,
                          time.process_time() - cpu))
        return times
    finally:
        gc.enable()


def mean_wall(times: list[tuple[float, float]]) -> float:
    return statistics.fmean(wall for wall, _ in times)


def mean_cpu(times: list[tuple[float, float]]) -> float:
    return statistics.fmean(cpu for _, cpu in times)
