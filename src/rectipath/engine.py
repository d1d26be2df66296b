"""Continuous-Dijkstra wavefront over transient segment obstacles.

The planner runs on integer-scaled scenes (one time unit = one distance unit,
see ScaledScene), so every queue key is an int and all comparisons are exact.

A point wavelet is a quarter-plane front expanding diagonally from a departed
point source, truncated to its search region: the rectangle spanned by the
source and the stop points of its two axis rays (bounding box side where a ray
is never blocked).  A segment wavelet is a flat front sweeping perpendicularly
away from an edge the robot waited on.  Everything a front reaches is claimed
at source time + L1 distance; claims become permanent labels in key order.
The plain engine pops each point wavelet once, at its departure, and claims
every live vertex of its region then; a flat front claims its band at its pop.

Why region claims are sound: along a full-speed monotone staircase the robot
crosses position (x, y) at the fixed time t0 + |x-sx| + |y-sy|, so the blocked
part of every edge is a static sub-segment.  A region point could only be cut
off if blocked sub-segments chained across the whole region, which needs
either two touching edges (validate_scene rejects those) or an in-window hit
on an axis ray, and the latter caps the region short of the hit.

Event order at equal keys: settle events run before wavelets.  The narrowing
engine (fast.py) requeues a root's lineage at the arrival of the vertex it
has just claimed; popped before that claim settles, the lineage would find
the vertex still live, claim it again and requeue at the same key, forever.
Events of equal key and rank pop in push order.

Early exit.  No route reaches the destination before the source's L1 distance,
so a plan settles it at its first claim at that bound: settles of one key pop
in (rank, seq) order and later claims get higher seqs, so the queue would too.
Nothing runs after that claim: a root pop that makes it returns at once, as
the loop returns at its next pop in any case and no later claim could
settle.  A whole-box run has no exit and never takes that return.  The
vertex index is built at its first use (_Engine._vertex_index), so a plan
whose destination the first popped root claims at the bound never builds
one.

The queue is Dial's bucket queue for integer keys: a small heap of
(rank, seq, item) per distinct key plus one heap of the keys, so events pop
in the (key, rank, seq) order of one heap of them all while each heap
operation works on one key's events only.  A bucket is drained in place and
dropped only when a dispatch leaves it empty, so an event pushed at the key
being drained joins the live bucket in that order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .geometry import Scene, ScaledScene, TimedPath, l1_distance
from .rangeindex import CornerWeightedVertices
from .scenario import check_scene
from .stopindex import _DIR_INFO, StopOracle

DIAGS = ("NE", "NW", "SE", "SW")
_DIAG_SIGNS = {"NE": (1, 1), "NW": (-1, 1), "SE": (1, -1), "SW": (-1, -1)}

_RANK_SETTLE, _RANK_SEGMENT, _RANK_POINT, _RANK_FAN = 0, 1, 2, 3


@dataclass
class WaveletStats:
    # point-wavelet events: every arrangement root spawned, queued or not,
    # plus the narrowing engine's lineage requeues
    point_wavelets: int = 0
    dominated: int = 0  # roots the narrowing engine refused at spawn, never queued
    segment_wavelets: int = 0  # flat fronts pushed, dropped ones included
    fronts_dropped: int = 0  # flat fronts the narrowing engine dropped at their pop
    fans_refused: int = 0  # wait fans the narrowing engine refused at their pop
    narrows: int = 0  # the narrowing engine's root-order cuts that cleared bits
    expands: int = 0  # no engine expands; kept because perfbench/worker.py reads it


@dataclass
class PlanResult:
    arrival: object
    path: TimedPath
    stats: WaveletStats


class SrcNode:
    """Provenance of a point source: where the robot was and when it left.

    kind one of "start" (parent None), "vertex" (settled at point/time; parent
    is the root source of the point wavelet or the flat-front node that
    claimed it) or "wait" (sat on edge `host` until its disappearance; parent
    is the source the robot staircased in from).
    """

    __slots__ = ("kind", "point", "time", "parent", "host")

    def __init__(self, kind, point, time, parent=None, host=None):
        self.kind = kind
        self.point = point
        self.time = time
        self.parent = parent
        self.host = host


class SegNode:
    """A flat front moving toward dir on line, departing at key, over the
    span [lo, hi] of the line (an end marked open claims nothing on its own
    column or row).  The sweep queues the node itself; it is also the
    provenance of what the front claims and the node of its band's trace
    record.  kind is one of:

    - "piece": accessible part of edge `edge`, reached by staircase from the
      point source parent and departed at the edge's disappearance;
    - "successor": clip of edge `edge`, the next edge blocking the parent
      front, departed at its disappearance;
    - "remainder": columns of the parent front that edge `edge` does not
      block, continuing past its line without waiting (key is the flat
      arrival there).

    Nodes rebuilt from a map file are provenance only and keep the span
    defaults, as `SrcNode.host` stays None on nodes that are not waits.
    """

    __slots__ = ("kind", "dir", "line", "key", "parent", "edge", "lo", "hi", "lo_open", "hi_open")

    def __init__(self, kind, dir, line, key, parent, edge, lo=None, hi=None, lo_open=False, hi_open=False):
        self.kind = kind
        self.dir = dir
        self.line = line
        self.key = key
        self.parent = parent
        self.edge = edge
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open


class PointWavelet:
    """A root: the diagonal front of the arrangement wavelet spawned at a
    departed point source, over its closed region rect.  It carries the
    diagonal dir, the source node src and the rank; the front's origin and
    departure time are src.point and src.time.  With (sx, sy) the signs of
    dir, the arrival at any (x, y) of the region is c + sx * x + sy * y,
    where c = rank[0] = time - sx * px - sy * py of the source; rank orders
    roots by (c, spawn order).  The plain engine claims the whole region at
    the root's first pop; the narrowing engine queues the root again for
    each claim (fast.py)."""

    __slots__ = ("rect", "dir", "src", "rank", "cut")

    def __init__(self, rect):
        self.rect = rect  # (xlo, xhi, ylo, yhi), closed
        # the narrowing engine's cut mask of a registered root, set at most once
        self.cut = None


def _arrival(root: PointWavelet, p) -> int:
    """The arrival of root's front at p, c + sx * x + sy * y."""
    sx, sy = _DIAG_SIGNS[root.dir]
    return root.rank[0] + sx * p[0] + sy * p[1]


class _Engine:
    def __init__(self, scene: Scene, trace: bool = False):
        self.sc = ScaledScene(check_scene(scene))
        self.edges = self.sc.edges
        self.stop = StopOracle(self.edges)
        self.bbox = self.sc.bbox
        self.source = self.sc.source
        self.dest = self.sc.dest
        self.verts = {p for e in self.edges for p in e.endpoints}
        self.drm: Optional[CornerWeightedVertices] = None  # see _vertex_index
        self.labels: Dict[Tuple[int, int], Tuple[int, SrcNode]] = {}
        # the bucket queue: key -> heap of (rank, seq, item); heap of keys
        self.buckets: Dict[int, List] = {}
        self.keys: List[int] = []
        self.seq = 0
        self.stats = WaveletStats()
        # swept records (rect, dir, node): an arrangement wavelet's region,
        # its diagonal and source node, or a flat front's swept band, its
        # direction and front node; spm turns them into cells
        self.trace: Optional[List] = [] if trace else None
        self.fan_seen = set()
        self.exit_at = -1  # the destination's lower bound while a plan runs

    def _vertex_index(self) -> CornerWeightedVertices:
        """The vertex index, built at its first use: a plan whose destination
        its first popped root claims at the bound returns before any, and
        builds none.  The sweep reads it as ``self.drm or
        self._vertex_index()``, one attribute read once it is built; a
        ``functools.cached_property`` or a ``__getattr__`` hook would slow
        CPython's reads of every attribute of the engine.  The source,
        settled before the sweep, leaves the live set at once when it is a
        vertex: left live, a lineage holding it would claim it again at
        every pop, forever."""
        if self.drm is None:
            self.drm = CornerWeightedVertices(self.verts)
            if self.source in self.verts:
                self.drm.remove(self.source)
        return self.drm

    # -- queue ------------------------------------------------------------

    def _push(self, key, rank, item):
        self.seq += 1
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [(rank, self.seq, item)]
            heapq.heappush(self.keys, key)
        else:
            heapq.heappush(bucket, (rank, self.seq, item))

    def _claim(self, p, t, parent):
        """Offer p at time t; parent is the claiming wavelet's node."""
        if p in self.labels:
            return
        if t <= self.exit_at and p == self.dest:
            self.labels[p] = (t, SrcNode("vertex", p, t, parent))
            return
        self._push(t, _RANK_SETTLE, ("settle", p, parent))

    # -- wavelet creation ---------------------------------------------------

    def _spawn_arrangement(self, p, t, src) -> List[PointWavelet]:
        """Spawn the four diagonal root wavelets departing (p, t), queueing
        those _admit admits, and enqueue the flat fronts and wait fans of the
        edges that cap their axis rays.  Each axis ray's stop and its edge's
        accessible interval are asked once and shared by the two roots the
        stop caps."""
        stop = self.stop
        caps = {}  # axis direction -> (stop hit, accessible interval), or None
        for d in ("N", "S", "E", "W"):
            hit = stop.stop_point(p, t, d)
            caps[d] = None if hit is None else (hit, stop.accessible_on(hit.edge_index, p, t))
        xlo, xhi, ylo, yhi = self.bbox
        made = []
        for d in DIAGS:
            sx, sy = _DIAG_SIGNS[d]
            hcap = caps["E"] if sx > 0 else caps["W"]
            vcap = caps["N"] if sy > 0 else caps["S"]
            xcap = hcap[0].point[0] if hcap else (xhi if sx > 0 else xlo)
            ycap = vcap[0].point[1] if vcap else (yhi if sy > 0 else ylo)
            rect = (min(p[0], xcap), max(p[0], xcap), min(p[1], ycap), max(p[1], ycap))
            w = PointWavelet(rect)
            w.dir, w.src = d, src
            # the push's own seq, consumed whether or not w is queued
            w.rank = (t - sx * p[0] - sy * p[1], self.seq + 1)
            if self._admit(p, w):
                self._push(t, _RANK_POINT, ("pw", w))
            else:
                self.seq += 1
            self.stats.point_wavelets += 1
            if vcap:
                self._cap_pieces(w, vcap, True)
            if hcap:
                self._cap_pieces(w, hcap, False)
            made.append(w)
        return made

    def _admit(self, p, w: PointWavelet) -> bool:
        """Whether root w, spawned at p, is queued; the plain engine queues
        every root."""
        return True

    def _cap_pieces(self, w: PointWavelet, cap, vertical_sweep: bool):
        """Accessible part of a root's cap edge: one flat front waiting out the
        edge, plus wait fans at the piece endpoints.  cap is the stop hit of
        the root's axis ray and its edge's accessible interval from the root's
        source.  The cap stops the source's axis ray, so the accessible
        interval holds the source's cross coordinate, as does the region's
        side range: the piece is never empty.
        """
        hit, (alo, ahi) = cap
        edge_idx = hit.edge_index
        e = self.edges[edge_idx]
        rlo, rhi = (w.rect[0], w.rect[1]) if vertical_sweep else (w.rect[2], w.rect[3])
        alo, ahi = max(alo, rlo), min(ahi, rhi)
        sx, sy = _DIAG_SIGNS[w.dir]
        if vertical_sweep:
            sd = "N" if sy > 0 else "S"
        else:
            sd = "E" if sx > 0 else "W"
        self._push(e.td, _RANK_SEGMENT, ("sw", SegNode("piece", sd, e.line, e.td, w.src, edge_idx, alo, ahi)))
        self.stats.segment_wavelets += 1
        for c in ([alo] if alo == ahi else [alo, ahi]):
            fp = (c, e.line) if vertical_sweep else (e.line, c)
            if (fp, e.td) not in self.fan_seen:
                self.fan_seen.add((fp, e.td))
                self._push(e.td, _RANK_FAN, ("fan", fp, edge_idx, w.src))

    # -- propagation ---------------------------------------------------------

    def _do_point(self, w: PointWavelet):
        """A root's only pop: it claims every live vertex of its region, and
        the destination if the region holds it, at its own arrival there.
        A claim that takes the plan's exit ends the pop."""
        if self.trace is not None:
            self.trace.append((w.rect, w.dir, w.src))
        xlo, xhi, ylo, yhi = w.rect
        dx, dy = self.dest
        if xlo <= dx <= xhi and ylo <= dy <= yhi:
            self._claim(self.dest, _arrival(w, self.dest), w.src)
            if self.exit_at >= 0 and self.dest in self.labels:
                return
        for v in (self.drm or self._vertex_index()).report(w.rect):
            self._claim(v, _arrival(w, v), w.src)

    def _do_segment(self, w: SegNode):
        s, horizontal = _DIR_INFO[w.dir]
        hit = self.stop.stop_drag(w.lo, w.hi, w.line, w.key, w.dir)
        if hit is not None:
            edge_idx, tau = hit
            e = self.edges[edge_idx]
            reach = e.line
        else:
            xlo, xhi, ylo, yhi = self.bbox
            if horizontal:
                reach = yhi if s > 0 else ylo
            else:
                reach = xhi if s > 0 else xlo
            tau = w.key + abs(reach - w.line)
        # What the band claims, as one closed integer rectangle: its span
        # without the open ends, and its reach without the front's own line.
        lo, hi = w.lo + 1 if w.lo_open else w.lo, w.hi - 1 if w.hi_open else w.hi
        near, far = (w.line + 1, reach) if s > 0 else (reach, w.line - 1)
        claimed = (lo, hi, near, far) if horizontal else (near, far, lo, hi)
        if self.trace is not None:  # the whole band, open ends and line included
            across = (w.line, reach) if s > 0 else (reach, w.line)
            rect = (w.lo, w.hi) + across if horizontal else across + (w.lo, w.hi)
            self.trace.append((rect, w.dir, w))
        xlo, xhi, ylo, yhi = claimed
        dx, dy = self.dest
        if xlo <= dx <= xhi and ylo <= dy <= yhi:
            self._claim(self.dest, w.key + abs((dy if horizontal else dx) - w.line), w)
        for v in (self.drm or self._vertex_index()).report(claimed):
            self._claim(v, w.key + abs(v[1 if horizontal else 0] - w.line), w)
        if hit is None:
            return
        clip_lo, clip_hi = max(w.lo, e.lo), min(w.hi, e.hi)
        succ = SegNode("successor", w.dir, e.line, e.td, w, edge_idx, clip_lo, clip_hi)
        self._push(e.td, _RANK_SEGMENT, ("sw", succ))
        self.stats.segment_wavelets += 1
        if w.lo < clip_lo:
            rn = SegNode("remainder", w.dir, e.line, tau, w, edge_idx, w.lo, clip_lo, w.lo_open, True)
            self._push(tau, _RANK_SEGMENT, ("sw", rn))
            self.stats.segment_wavelets += 1
        if clip_hi < w.hi:
            rn = SegNode("remainder", w.dir, e.line, tau, w, edge_idx, clip_hi, w.hi, True, w.hi_open)
            self._push(tau, _RANK_SEGMENT, ("sw", rn))
            self.stats.segment_wavelets += 1

    def _do_fan(self, key, fp, edge_idx, parent):
        """The wait arrangement at fp on edge edge_idx, departing at the
        edge's disappearance key; the plain engine keeps every fan."""
        self._spawn_arrangement(fp, key, SrcNode("wait", fp, key, parent, host=edge_idx))

    # -- main loop ------------------------------------------------------------

    def run(self, stop_at_dest: bool = True):
        self.exit_at = l1_distance(self.source, self.dest) if stop_at_dest else -1
        self.labels[self.source] = (0, SrcNode("start", self.source, 0))
        if self.source == self.dest and stop_at_dest:
            return
        self._spawn_arrangement(self.source, 0, self.labels[self.source][1])
        buckets, keys, labels, dest = self.buckets, self.keys, self.labels, self.dest
        last_key = None
        while keys:
            key = heapq.heappop(keys)
            if last_key is not None and key < last_key:
                raise AssertionError(f"queue popped key {key} after {last_key}")
            last_key = key
            # The bucket stays in place until it is empty after a dispatch,
            # so events pushed at this key join it in (rank, seq) order.
            bucket = buckets[key]
            while bucket:
                if stop_at_dest and dest in labels:
                    return
                item = heapq.heappop(bucket)[2]
                kind = item[0]
                if kind == "settle":
                    _, p, parent = item
                    if p in labels:
                        continue
                    node = SrcNode("vertex", p, key, parent)
                    labels[p] = (key, node)
                    if p not in self.verts:
                        continue  # a destination off every edge spawns nothing
                    (self.drm or self._vertex_index()).remove(p)
                    self._spawn_arrangement(p, key, node)
                elif kind == "pw":
                    self._do_point(item[1])
                elif kind == "sw":
                    self._do_segment(item[1])
                else:  # "fan"
                    self._do_fan(key, *item[1:])
            del buckets[key]
        if stop_at_dest and dest not in labels:
            raise AssertionError("queue exhausted before the destination settled")


def run_plan(eng) -> PlanResult:
    """Run a planning engine until the destination settles and witness it."""
    from .pathrec import build_path

    eng.run(stop_at_dest=True)
    return PlanResult(eng.sc.time_out(eng.labels[eng.dest][0]), build_path(eng), eng.stats)


def naive_plan(scene: Scene) -> PlanResult:
    """Minimum arrival time at the destination plus a witness path, by plain
    wavefront propagation: four roots per departed source, each claiming
    every live vertex of its region at its one pop."""
    return run_plan(_Engine(scene))
