"""The host's speed, from a fixed pure-Python reference loop.

The benchmark runs on a shared virtual machine.  Its timings are CPU
seconds of the process (``time.process_time``), which leave out the time
the hypervisor gives the virtual CPU to someone else (steal) or the guest
gives it to another process.  What remains still drifts by up to half
between periods of seconds to minutes, as neighbours contend for caches
and cores.  A timing taken in one period cannot be compared with one taken
in another.  So the benchmark times ``reference()``, which uses nothing
from leakcheck, next to the work it measures, and scales each timing by
``REFERENCE_S / (the reference's time next to it)``: the time the work
would take on a host that runs ``reference()`` in ``REFERENCE_S``.  A
change to leakcheck moves the scaled time as it moves the raw one; a change
in host speed moves both the work and the reference, and cancels.
"""

from __future__ import annotations

import statistics
import time

# About the reference's time on a 2-vCPU Intel Xeon (2.1 GHz) VM with
# Python 3.11, so scaled times there read close to raw ones.
REFERENCE_S = 0.0012
SAMPLES = 3


class _Node:
    __slots__ = ("key", "succ")

    def __init__(self, key: int) -> None:
        self.key = key
        self.succ: list[_Node] = []


def reference() -> int:
    """Fixed work in the analyzer's idiom: small objects, graph walks,
    frozensets, tuple keys and dicts."""
    nodes = [_Node(i) for i in range(200)]
    for n in nodes:
        for k in (1, 3, 7):
            n.succ.append(nodes[(n.key * k + k) % 200])
    seen: dict[tuple, frozenset] = {}
    for start in nodes[::20]:
        reach = {start.key: 0}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in u.succ:
                if v.key not in reach:
                    reach[v.key] = reach[u.key] + 1
                    stack.append(v)
        key = (start.key, len(reach))
        seen[key] = frozenset(k for k, d in reach.items() if d % 2)
    return sum(len(s) for s in seen.values())


def sample() -> float:
    """CPU seconds ``reference()`` takes now: the median of a few runs, so
    one interruption does not decide it."""
    times = []
    for _ in range(SAMPLES):
        start = time.process_time()
        reference()
        times.append(time.process_time() - start)
    return statistics.median(times)


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / reference_s
