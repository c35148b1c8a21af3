"""Host-speed correction for the benchmark's wall times.

On a small shared host the same single-threaded work runs up to 1.6 times
slower for stretches of ten to thirty seconds at a time, whatever the
benchmark itself does, and a second process on the other CPU does not see
the same stretches.  A 20-second run then lands on a fast or a slow stretch
by chance, which puts more spread between runs than any change worth
measuring.

What does track it is a fixed pure-Python loop timed on the same CPU,
right next to the work it corrects: :func:`speed` returns ``REFERENCE_S /
loop time`` averaged over the CPUs the calling thread may use, and a wall
time multiplied by it reads as seconds on the reference host at its usual
speed.  The loop is the benchmark's own code, so a change to the library
never moves it; the raw wall times go to standard error beside the
corrected ones.
"""

from __future__ import annotations

import os
import time

#: Seconds one reference loop takes on the reference host (2 CPUs, Python
#: 3.11) at its usual speed.
REFERENCE_S = 0.0072

_ITERATIONS = 100_000
_REPEATS = 3


def loop_seconds(iterations: int = _ITERATIONS) -> float:
    """The fastest of a few runs of the fixed reference loop, in seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(iterations):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def speed(iterations: int = _ITERATIONS) -> float:
    """The host's current speed relative to the reference host's usual one:
    a wall time times this factor is reference seconds.

    With more than one CPU allowed, the loop is timed on each in turn, with
    the calling thread pinned to it, and the factors averaged: work spread
    over a pool runs on all of them.  Fewer ``iterations`` give a noisier
    reading that holds the interpreter lock for a shorter time.
    """
    cpus = os.sched_getaffinity(0)
    factors = []
    try:
        for cpu in sorted(cpus):
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            factors.append(REFERENCE_S * iterations / _ITERATIONS
                           / loop_seconds(iterations))
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return sum(factors) / len(factors)
