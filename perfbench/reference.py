"""The reference kernel that the benchmark's times are scaled by.

The benchmark shares a host whose speed moves by up to about 2x, in phases
from a fraction of a second to minutes, and every kind of work in the
package slows with it.  So the worker times this fixed kernel, which
imports nothing from the package, between every two requests, and the
client reports a time t measured while the kernel took k as
t * REFERENCE_MS / k: the time the work would take on a host that runs
the kernel in REFERENCE_MS.  A change to the package moves t and leaves k
alone; a change of the host's speed moves both.

The kernel mixes the package's three kinds of work: an interpreted loop of
float arithmetic, dict updates and products of big integers of about
30 000 bits, the size that the tau table's packed multiplies reach.
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_MS = 6.0  # the kernel's time on a quiet 2-vCPU x86-64 host, Python 3.11

_X = 3**20000
_Y = 7**20000


def kernel_ns() -> int:
    """The wall time of one run of the kernel."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(1, 20000):
        acc += math.sin(i) / i
    table: dict[int, int] = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(6):
        acc += (_X * _Y).bit_length()
    return time.perf_counter_ns() - t0


def kernel_median_ns() -> float:
    """The median of three runs of the kernel."""
    return statistics.median(kernel_ns() for _ in range(3))


def scale(t: float, kernel: float) -> float:
    """t, measured while the kernel took kernel ns, at the reference speed."""
    return t * REFERENCE_MS * 1e6 / kernel
