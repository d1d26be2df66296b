"""Reference work and a host-speed clock built on it.

On a shared host the speed of one process drifts by tens of percent within
minutes, so raw wall times do not repeat from run to run.  The ratio of a
timing to a fixed reference workload measured alongside it repeats far
better.  The reference unit here is pure Python and shares no code with the
planner: a small grid Dijkstra (heap, dict and slotted-object traffic) and
forty rectangle queries on a static kd-tree of 2000 points (tuple compares
and an explicit stack, like the planner's vertex index).  Of the candidates
tried (see README.md), these two tracked the planner's speed best; a pointer
walk over a ring of objects larger than the L2 cache tracked it worse.

``RefClock`` runs one reference unit from a SIGALRM timer every ``period``
seconds while the measured code runs in the main thread, records how long
each unit took, and keeps the time spent in the handler so that callers can
subtract it from their timings.  A timing is then reported as

    (wall time - handler time) / (unit time near it) * REF_UNIT_MS

where the unit time near it is the trimmed mean (middle 60 %) of the units
sampled within ``pad`` seconds of the timed interval.  That is in
"reference milliseconds": milliseconds on a host where one unit takes
REF_UNIT_MS, the unit's typical time on the calibration host.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
from time import perf_counter

# Typical time of one reference unit on the calibration host (2 vCPU KVM
# guest, Xeon, Python 3.11); converts ratios back to a familiar scale.
REF_UNIT_MS = 1.7

_GRID = 12
_POINTS = 2000
_QUERIES = 40
_SIDE = 100


class _Cell:
    __slots__ = ("cost", "seen")

    def __init__(self, cost):
        self.cost = cost
        self.seen = False


def _dijkstra(n=_GRID):
    cells = {}
    v = 12345
    for x in range(n):
        for y in range(n):
            v = (v * 1103515245 + 12345) & 0x7FFFFFFF
            cells[(x, y)] = _Cell(1 + (v >> 16) % 9)
    dist = {(0, 0): 0}
    heap = [(0, 0, 0)]
    while heap:
        d, x, y = heapq.heappop(heap)
        c = cells[(x, y)]
        if c.seen:
            continue
        c.seen = True
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            nb = cells.get((nx, ny))
            if nb is None or nb.seen:
                continue
            nd = d + nb.cost
            if nd < dist.get((nx, ny), 1 << 60):
                dist[(nx, ny)] = nd
                heapq.heappush(heap, (nd, nx, ny))
    return dist[(n - 1, n - 1)]


def _kdtree(pts, depth=0):
    """(point, low subtree, high subtree, axis) over (x, y, id) points."""
    if not pts:
        return None
    axis = depth & 1
    pts = sorted(pts, key=lambda p: p[axis])
    m = len(pts) // 2
    return (pts[m], _kdtree(pts[:m], depth + 1), _kdtree(pts[m + 1 :], depth + 1), axis)


class Reference:
    """One reference unit: the grid search, then the kd-tree queries."""

    def __init__(self, seed=3):
        rng = random.Random(seed)
        pts = [(rng.randint(0, 1000), rng.randint(0, 1000), i) for i in range(_POINTS)]
        self.tree = _kdtree(pts)
        self.queries = [(rng.randint(0, 900), rng.randint(0, 900)) for _ in range(_QUERIES)]

    def _range_min(self):
        total = 0
        for qx, qy in self.queries:
            x0, x1, y0, y1 = qx, qx + _SIDE, qy, qy + _SIDE
            best = None
            stack = [self.tree]
            while stack:
                node = stack.pop()
                if node is None:
                    continue
                (px, py, pid), low, high, axis = node
                if x0 <= px <= x1 and y0 <= py <= y1:
                    key = (px + py, pid)
                    if best is None or key < best:
                        best = key
                c, lo, hi = (px, x0, x1) if axis == 0 else (py, y0, y1)
                if lo <= c:
                    stack.append(low)
                if c <= hi:
                    stack.append(high)
            total += 0 if best is None else best[0]
        return total

    def unit(self):
        return _dijkstra() + self._range_min()

    def median_unit(self, k=5):
        """Median seconds of k units run back to back."""
        times = []
        for _ in range(k):
            t0 = perf_counter()
            self.unit()
            times.append(perf_counter() - t0)
        return statistics.median(times)


def trimmed_mean(values, cut=0.2):
    s = sorted(values)
    k = int(len(s) * cut)
    return statistics.mean(s[k : len(s) - k] or s)


class RefClock:
    """Samples the reference unit from a timer while measured code runs."""

    def __init__(self, period=0.1, pad=0.5):
        self.ref = Reference()
        self.period = period
        self.pad = pad
        self.at = []  # start of each sample
        self.dur = []  # seconds the unit took
        self.handler_s = 0.0  # total seconds spent in the handler
        self.on_sample = None  # callback(seconds) for the tracer

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.ref.unit()
        t1 = perf_counter()
        self.at.append(t0)
        self.dur.append(t1 - t0)
        cost = perf_counter() - t0
        self.handler_s += cost
        if self.on_sample is not None:
            self.on_sample(cost)

    def start(self):
        self._handler(None, None)
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def unit_near(self, t0, t1):
        """Trimmed mean unit time sampled within pad seconds of [t0, t1]."""
        pad = self.pad
        while True:
            i = bisect.bisect_left(self.at, t0 - pad)
            j = bisect.bisect_right(self.at, t1 + pad)
            if j - i >= 5 or (i == 0 and j == len(self.at)):
                return trimmed_mean(self.dur[i:j])
            pad *= 2

    def ref_ms(self, net, t0, t1):
        """A net timing in reference milliseconds."""
        return net / self.unit_near(t0, t1) * REF_UNIT_MS
