"""Host-speed reference for the benchmark's end-to-end timings.

The benchmark runs on a few cores of a shared host.  There the speed of the
same Python code drifts by a quarter or more, within seconds and from one
run to the next, as other tenants load the machine.  On 2 shared vCPUs, one
web-lab size class read 36 ms in one 30-s window and 63 ms in another of the
same 10-minute run.  Medians over a longer run do not remove this; the slow
phases last minutes.

So a fixed reference kernel is timed between requests, at least every
``PROBE_EVERY_NS``.  It is pure Python, imports nothing from webpolar and
does the two kinds of work the program does: a dict-of-monomials product
with 40-bit coefficients (as in elimination) and a small-integer loop (as in
argument parsing and the ring calculus).  A request's wall time is scaled by
``REFERENCE_NS`` over the median kernel time of the ``NEIGHBOURS`` probes
before its start and the ``NEIGHBOURS`` probes after its end.  That gives
its time at the reference host speed.  A change to the program moves it as
it moves wall time.  A slow phase of the host slows kernel and request
together, and so cancels.
"""

from __future__ import annotations

import statistics
import time
from array import array
from bisect import bisect

# Median kernel time on the reference host: 2 shared vCPUs (x86-64),
# CPython 3.11.7.  Only a scale: it sets no spread and no ratio.
REFERENCE_NS = 750_000
PROBE_EVERY_NS = 100_000_000
NEIGHBOURS = 3

_FACTOR = {(a, b): (-1) ** (a + b) * (10 ** 12 - 7919 * (4 * a + b))
           for a in range(4) for b in range(4)}


def _product(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a1, b1), v1 in f.items():
        for (a2, b2), v2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def kernel() -> int:
    cube = _product(_product(_FACTOR, _FACTOR), _FACTOR)
    total = len(cube)
    for i in range(4000):
        total += i * i % 7
    return total


class HostSpeed:
    """Kernel times of one measured stretch, in time order."""

    def __init__(self):
        self.times = array("q")
        self.costs = array("q")

    def probe(self) -> None:
        clock = time.perf_counter_ns
        began = clock()
        kernel()
        self.times.append(began)
        self.costs.append(clock() - began)

    def probe_if_due(self, now_ns: int) -> None:
        if not self.times or now_ns - self.times[-1] >= PROBE_EVERY_NS:
            self.probe()

    def finish(self) -> None:
        """Probes after the last request, so that it has neighbours too."""
        for _ in range(NEIGHBOURS):
            self.probe()

    def scale(self, start_ns: int) -> float:
        """Reference over host speed around a request that began at ``start_ns``.
        Probes never overlap a request, so those after its start follow its end."""
        index = bisect(self.times, start_ns)
        near = self.costs[max(0, index - NEIGHBOURS):index + NEIGHBOURS]
        return REFERENCE_NS / statistics.median(near)

    def corrected(self, starts, durations) -> list:
        """Durations at the reference host speed."""
        return [d * self.scale(s) for s, d in zip(starts, durations)]

    def median_scale(self) -> float:
        return REFERENCE_NS / statistics.median(self.costs)
