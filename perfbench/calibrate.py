"""Machine-speed calibration for CPU-time measurements.

On a shared virtual machine the work one CPU second does varies with
what other guests run on the host (sibling hyperthreads, caches,
frequency): over a minute on the 2-vCPU VM the benchmark was defined
on, the CPU time of a fixed query moved by up to 2x, and the CPU time
of the fixed pure-Python loop below moved with it.  So the benchmark
rescales CPU times by the loop's CPU time, measured on the same core
close in time:

    rescaled = cpu_s * NOMINAL_S / reference_s

i.e. CPU seconds on a machine where one ``reference_work()`` takes
``NOMINAL_S``.  The loop touches nothing of the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import time
from typing import Sequence

#: CPU seconds one ``reference_work()`` call is rescaled to (about its
#: cost on the VM above when the host is quiet)
NOMINAL_S = 0.0004

#: calls per reference time; the time is their median
CALLS = 3

#: reference times a smoothed one is the median of (centred window)
SMOOTH = 9


def reference_work(n: int = 400) -> int:
    """Fixed interpreter work: tuple keys, dict updates, string
    formatting and a keyed sort, as the program's hot paths do."""
    table: dict = {}
    total = 0
    for i in range(n):
        key = ("row", i % 97)
        table[key] = table.get(key, 0) + len(f"{i}:{key[1]}")
        total += (i * 7) % 13
    ranked = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return total + len(ranked)


def reference_cpu(calls: int = CALLS) -> tuple[float, float]:
    """(median CPU seconds of one ``reference_work()`` on this thread
    now, CPU seconds all the calls took).  Thread CPU time, so other
    threads of the process running meanwhile do not count."""
    samples = []
    for _ in range(calls):
        start = time.thread_time()
        reference_work()
        samples.append(time.thread_time() - start)
    return sorted(samples)[len(samples) // 2], sum(samples)


def smooth(reference_s: Sequence[float], width: int = SMOOTH) -> list[float]:
    """Each reference time replaced by the median of the ``width`` around
    it (fewer at the ends): one time is noisy, the speed drifts slowly."""
    half = width // 2
    out = []
    for i in range(len(reference_s)):
        window = sorted(reference_s[max(0, i - half):i + half + 1])
        out.append(window[(len(window) - 1) // 2])  # lower median
    return out


def scale(reference_s: Sequence[float]) -> float:
    """Factor turning CPU seconds into nominal ones, from the reference
    times measured around the interval (their mean)."""
    mean = sum(reference_s) / len(reference_s)
    if mean <= 0:
        raise ValueError(f"reference time must be positive, got {mean}")
    return NOMINAL_S / mean
