"""Host speed at the moment of a measurement.

On a shared host the same work can take 1.7x longer for minutes at a
time (measured on a 2-vCPU Xeon VM at 2.1 GHz whose cores other tenants
also use): the slowdown hits every process alike and is not counted as
steal time.  A pass therefore times a fixed pure-Python kernel — heap
pushes and pops, dict updates and integer arithmetic, the interpreter
work the simulator does — right before and after every operation, and
the benchmark scales each operation's host seconds by
``REFERENCE_S / kernel seconds``.  Scaled seconds are the seconds the
operation would take on a host that runs the kernel in ``REFERENCE_S``;
they move with the operation's own cost and not with the neighbours'
load.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "kernel_seconds", "scaled"]

#: Kernel time on the uncontended reference host (the VM above, 5th
#: percentile of 1500 timings).
REFERENCE_S = 0.0143

_N = 25_000


def _kernel() -> int:
    heap: list[int] = []
    table: dict[int, int] = {}
    acc = 0
    for i in range(_N):
        heapq.heappush(heap, (i * 7919) % _N)
        table[i & 255] = acc
        acc += table.get((i * 31) & 255, 0) % 7 + i
    while heap:
        acc ^= heapq.heappop(heap)
    return acc


def kernel_seconds() -> float:
    """Host seconds the fixed kernel takes right now."""
    begin = time.perf_counter()
    _kernel()
    return time.perf_counter() - begin


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` at the reference host's speed, given the kernel's time."""
    return seconds * REFERENCE_S / kernel_s
