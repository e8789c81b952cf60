"""Host-speed probe helper of perfbench (started by ``run.py``).

Times :func:`host_probe` every ``PERIOD_S`` seconds while it waits, and
answers each request (one byte on standard input) with the mean probe
time since the previous request, one number per line, so the answer
covers the whole time between two requests; it ends at the end of its
input.  It imports nothing of the repository, so its heap is the same
on every probe and the probe's time follows the host's speed only.
"""

from __future__ import annotations

import heapq
import os
import select
import statistics
import sys
import time
from typing import Dict, List, Tuple

#: Seconds between two probes while no request comes.  A probe needs
#: under 0.1 s of CPU, so the helper takes a small share of the CPU it
#: shares with the measuring process.
PERIOD_S = 0.5


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def host_probe() -> float:
    """Seconds a fixed pure-Python routine takes right now: heap, dict
    and small-object work like the simulator's, running no repro code."""
    t0 = time.perf_counter()
    heap: List[Tuple[int, int, _Item]] = []
    table: Dict[Tuple[int, int], List[int]] = {}
    for i in range(20_000):
        heapq.heappush(heap, (i * 7919 % 1013, i, _Item(i)))
        table[i, i & 7] = [i]
    while heap:
        heapq.heappop(heap)[2].value
    return time.perf_counter() - t0


def main() -> None:
    times: List[float] = []
    while True:
        ready, _, _ = select.select([0], [], [], PERIOD_S)
        if not ready:
            times.append(host_probe())
            continue
        # One byte per request: the client waits for each answer.
        if not os.read(0, 1):
            return
        times.append(host_probe())
        sys.stdout.write(f"{statistics.fmean(times)!r}\n")
        sys.stdout.flush()
        times = []


if __name__ == "__main__":
    main()
