"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to half again slower, in episodes of
a few seconds and in periods of minutes. The benchmark times this kernel
after each of its operations and scales each workload's times to the speed
at which the kernel takes ``NOMINAL_S``:

    scaled = q1(operation walls) * NOMINAL_S / q1(kernel walls)

The lower quartile ``q1`` leaves out the slow episodes, which only ever add
time; the kernel's own time follows the slow periods.

The kernel does not use ``cotail``, so no change to the program moves it. Its
mix follows the Monte Carlo engine's: numpy calls on 1000-element arrays
(sampling, transcendental functions, argsort) and ``math.fsum`` over Python
floats. On this kind of host a slow period slows it, run_mc, text parsing
and interpreter start-up alike.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

ROUNDS = 2000
NOMINAL_S = 0.12  # fixed scale: near the kernel's time on the 2-core x86_64 VM of the baseline


def kernel() -> float:
    """Run the reference work once; return its checksum (the same every time)."""
    gen = np.random.Generator(np.random.PCG64(20150225))
    total = 0.0
    for _ in range(ROUNDS):
        u = gen.random(1000) + 1e-9
        x = np.sqrt(-2.0 * np.log(u)) * np.cos(6.283185307179586 * gen.random(1000))
        order = np.argsort(x)
        total += math.fsum(x[order[-100:]].tolist())
    return total


def timed_kernel() -> float:
    """Wall seconds of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start



def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def scaled(walls: list[float], kernel_walls: list[float]) -> float:
    """Lower-quartile wall time at the speed where the kernel takes NOMINAL_S."""
    return lower_quartile(walls) * NOMINAL_S / lower_quartile(kernel_walls)
