"""Continuous-Dijkstra wavefront over transient segment obstacles.

The planner runs on integer-scaled scenes (one time unit = one distance unit,
see ScaledScene), so every queue key is an int and all comparisons are exact.

A point wavelet is a quarter-plane front expanding diagonally from a departed
point source, truncated to its search region: the rectangle spanned by the
source and the stop points of its two axis rays (bounding box side where a ray
is never blocked).  A segment wavelet is a flat front sweeping perpendicularly
away from an edge the robot waited on.  Everything a front reaches is claimed
at source time + L1 distance; claims become permanent labels in key order.

Why region claims are sound: along a full-speed monotone staircase the robot
crosses position (x, y) at the fixed time t0 + |x-sx| + |y-sy|, so the blocked
part of every edge is a static sub-segment.  A region point could only be cut
off if blocked sub-segments chained across the whole region, which needs
either two touching edges (validate_scene rejects those) or an in-window hit
on an axis ray, and the latter caps the region short of the hit.

Event order at equal keys: settle events run before wavelets.  A split wavelet
re-queried at the same key would otherwise re-find the vertex it was split at
and split again, forever.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .geometry import Scene, ScaledScene, TimedPath
from .rangeindex import CornerWeightedVertices
from .stopindex import _DIR_INFO, StopOracle

DIAGS = ("NE", "NW", "SE", "SW")
_DIAG_SIGNS = {"NE": (1, 1), "NW": (-1, 1), "SE": (1, -1), "SW": (-1, -1)}
_NEAREST_CORNER = {"NE": "SW", "NW": "SE", "SE": "NW", "SW": "NE"}

_RANK_SETTLE, _RANK_SEGMENT, _RANK_POINT, _RANK_FAN = 0, 1, 2, 3


@dataclass
class WaveletStats:
    point_wavelets: int = 0
    segment_wavelets: int = 0
    narrows: int = 0
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
    """Provenance of a flat front moving toward dir on line, departing at key:

    - "piece": accessible part of edge `edge`, reached by staircase from the
      point source parent and departed at the edge's disappearance;
    - "successor": clip of edge `edge`, the next edge blocking the parent
      front, departed at its disappearance;
    - "remainder": columns of the parent front that edge `edge` does not
      block, continuing past its line without waiting (key is the flat
      arrival there).
    """

    __slots__ = ("kind", "dir", "line", "key", "parent", "edge")

    def __init__(self, kind, dir, line, key, parent, edge):
        self.kind = kind
        self.dir = dir
        self.line = line
        self.key = key
        self.parent = parent
        self.edge = edge


class PointWavelet:
    __slots__ = ("origin", "t0", "key", "rect", "dir", "caps", "fresh", "src")

    def __init__(self, origin, t0, key, rect, dir, caps, fresh, src):
        self.origin = origin
        self.t0 = t0
        self.key = key
        self.rect = rect  # (xlo, xhi, ylo, yhi), closed
        self.dir = dir
        self.caps = caps  # (vertical cap edge index or None, horizontal ditto)
        self.fresh = fresh
        self.src = src


class SegWavelet:
    __slots__ = ("lo", "hi", "lo_open", "hi_open", "line", "key", "dir", "node")

    def __init__(self, lo, hi, lo_open, hi_open, line, key, dir, node):
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open
        self.hi_open = hi_open
        self.line = line
        self.key = key
        self.dir = dir
        self.node = node


class _Engine:
    def __init__(self, scene: Scene, trace: bool = False):
        self.sc = ScaledScene(scene)
        self.edges = self.sc.edges
        self.stop = StopOracle(self.edges)
        self.bbox = self.sc.bbox
        self.source = self.sc.source
        self.dest = self.sc.dest
        verts = sorted({p for e in self.edges for p in e.endpoints})
        self.vert_payload = {p: i for i, p in enumerate(verts)}
        self.drm = CornerWeightedVertices([(p, i) for i, p in enumerate(verts)])
        self.labels: Dict[Tuple[int, int], Tuple[int, SrcNode]] = {}
        self.heap: List = []
        self.seq = 0
        self.stats = WaveletStats()
        # swept records (rect, dir, node): an arrangement wavelet's region,
        # its diagonal and source node, or a flat front's swept band, its
        # direction and front node; spm turns them into cells
        self.trace: Optional[List] = [] if trace else None
        self.fan_seen = set()

    # -- queue ------------------------------------------------------------

    def _push(self, key, rank, tie, item):
        self.seq += 1
        heapq.heappush(self.heap, (key, rank, tie, self.seq, item))

    def _claim(self, p, t, parent):
        """Offer p at time t; parent is the claiming wavelet's node."""
        if p in self.labels:
            return
        self._push(t, _RANK_SETTLE, p, ("settle", p, parent))

    # -- wavelet creation ---------------------------------------------------

    def _spawn_arrangement(self, p, t, src) -> List[PointWavelet]:
        """Enqueue the up-to-four diagonal point wavelets departing (p, t)."""
        stops = {d: self.stop.stop_point(p, t, d) for d in ("N", "S", "E", "W")}
        xlo, xhi, ylo, yhi = self.bbox
        made = []
        for d in DIAGS:
            sx, sy = _DIAG_SIGNS[d]
            hstop = stops["E"] if sx > 0 else stops["W"]
            vstop = stops["N"] if sy > 0 else stops["S"]
            xcap = hstop.point[0] if hstop else (xhi if sx > 0 else xlo)
            ycap = vstop.point[1] if vstop else (yhi if sy > 0 else ylo)
            rect = (min(p[0], xcap), max(p[0], xcap), min(p[1], ycap), max(p[1], ycap))
            caps = (
                hstop.edge_index if hstop else None,
                vstop.edge_index if vstop else None,
            )
            w = PointWavelet(p, t, t, rect, d, caps, True, src)
            self._push(t, _RANK_POINT, p, ("pw", w))
            self.stats.point_wavelets += 1
            made.append(w)
        return made

    def _cap_pieces(self, w: PointWavelet, edge_idx: int, vertical_sweep: bool):
        """Accessible part of a fresh cap edge: one flat front waiting out the
        edge, plus wait fans at the piece endpoints.  The cap stops the
        origin's axis ray, so the accessible interval holds the origin's cross
        coordinate, as does the region's side range: the piece is never empty.
        """
        e = self.edges[edge_idx]
        alo, ahi = self.stop.accessible_on(edge_idx, w.origin, w.t0)
        rlo, rhi = (w.rect[0], w.rect[1]) if vertical_sweep else (w.rect[2], w.rect[3])
        alo, ahi = max(alo, rlo), min(ahi, rhi)
        sx, sy = _DIAG_SIGNS[w.dir]
        if vertical_sweep:
            sd = "N" if sy > 0 else "S"
        else:
            sd = "E" if sx > 0 else "W"
        node = SegNode("piece", sd, e.line, e.td, w.src, edge_idx)
        sw = SegWavelet(alo, ahi, False, False, e.line, e.td, sd, node)
        self._push(e.td, _RANK_SEGMENT, (alo, e.line), ("sw", sw))
        self.stats.segment_wavelets += 1
        for c in ([alo] if alo == ahi else [alo, ahi]):
            fp = (c, e.line) if vertical_sweep else (e.line, c)
            if (fp, e.td) not in self.fan_seen:
                self.fan_seen.add((fp, e.td))
                self._push(e.td, _RANK_FAN, fp, ("fan", fp, edge_idx, w.src))

    # -- propagation ---------------------------------------------------------

    def _do_point(self, w: PointWavelet):
        ox, oy = w.origin
        xlo, xhi, ylo, yhi = w.rect
        if self.trace is not None and w.fresh:
            # arrangement cones only: a split or narrowed piece lies inside
            # its arrangement's record with the same node, so the map would
            # drop it
            self.trace.append((w.rect, w.dir, w.src))
        dx, dy = self.dest
        if xlo <= dx <= xhi and ylo <= dy <= yhi:
            self._claim(self.dest, w.t0 + abs(dx - ox) + abs(dy - oy), w.src)
        if w.fresh:
            if w.caps[1] is not None:
                self._cap_pieces(w, w.caps[1], True)
            if w.caps[0] is not None:
                self._cap_pieces(w, w.caps[0], False)
        v = self._split_vertex(w)
        if v is None:
            return
        tprime = w.t0 + abs(v[0] - ox) + abs(v[1] - oy)
        sx, sy = _DIAG_SIGNS[w.dir]
        # A region may be detached from its origin corner (narrowing cuts
        # regions apart), so the column and row parts stay clipped to it.
        r1 = (max(xlo, min(ox, v[0])), min(xhi, max(ox, v[0])), ylo, yhi)
        r2 = (xlo, xhi, max(ylo, min(oy, v[1])), min(yhi, max(oy, v[1])))
        r3 = (
            (v[0], xhi) if sx > 0 else (xlo, v[0]),
            (v[1], yhi) if sy > 0 else (ylo, v[1]),
        )
        for rect, origin, t0 in (
            (r1, w.origin, w.t0),
            (r2, w.origin, w.t0),
            ((r3[0][0], r3[0][1], r3[1][0], r3[1][1]), v, tprime),
        ):
            # Splits keep the parent's root source for path purposes: every
            # claim value telescopes to root time + distance, and staircases
            # are guaranteed from the root, not from an intermediate vertex.
            child = PointWavelet(origin, t0, tprime, rect, w.dir, (None, None), False, w.src)
            self._push(tprime, _RANK_POINT, origin, ("pw", child))
            self.stats.point_wavelets += 1

    def _split_vertex(self, w: PointWavelet):
        """The vertex w's region splits at, claimed from w, or None."""
        hit = self.drm.nearest(w.rect, _NEAREST_CORNER[w.dir])
        if hit is None:
            return None
        v = (hit.x, hit.y)
        self._claim(v, w.t0 + abs(v[0] - w.origin[0]) + abs(v[1] - w.origin[1]), w.src)
        return v

    def _do_segment(self, w: SegWavelet):
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
        dx, dy = self.dest
        cross, perp = (dx, dy) if horizontal else (dy, dx)
        in_span = (w.lo < cross or (not w.lo_open and w.lo == cross)) and (
            cross < w.hi or (not w.hi_open and cross == w.hi)
        )
        if in_span:
            if (s > 0 and w.line < perp <= reach) or (s < 0 and reach <= perp < w.line):
                self._claim(self.dest, w.key + abs(perp - w.line), w.node)
        if horizontal:
            rect = (w.lo, w.hi, min(w.line, reach), max(w.line, reach))
            open_sides = (w.lo_open, w.hi_open, s > 0, s < 0)
        else:
            rect = (min(w.line, reach), max(w.line, reach), w.lo, w.hi)
            open_sides = (s > 0, s < 0, w.lo_open, w.hi_open)
        if self.trace is not None:
            self.trace.append((rect, w.dir, w.node))
        for wp in self.drm.report(rect, open_sides):
            pv = wp.y if horizontal else wp.x
            self._claim((wp.x, wp.y), w.key + abs(pv - w.line), w.node)
        if hit is None:
            return
        clip_lo, clip_hi = max(w.lo, e.lo), min(w.hi, e.hi)
        node = SegNode("successor", w.dir, e.line, e.td, w.node, edge_idx)
        succ = SegWavelet(clip_lo, clip_hi, False, False, e.line, e.td, w.dir, node)
        self._push(e.td, _RANK_SEGMENT, (clip_lo, e.line), ("sw", succ))
        self.stats.segment_wavelets += 1
        if w.lo < clip_lo:
            rn = SegNode("remainder", w.dir, e.line, tau, w.node, edge_idx)
            rw = SegWavelet(w.lo, clip_lo, w.lo_open, True, e.line, tau, w.dir, rn)
            self._push(tau, _RANK_SEGMENT, (w.lo, e.line), ("sw", rw))
            self.stats.segment_wavelets += 1
        if clip_hi < w.hi:
            rn = SegNode("remainder", w.dir, e.line, tau, w.node, edge_idx)
            rw = SegWavelet(clip_hi, w.hi, True, w.hi_open, e.line, tau, w.dir, rn)
            self._push(tau, _RANK_SEGMENT, (clip_hi, e.line), ("sw", rw))
            self.stats.segment_wavelets += 1

    # -- main loop ------------------------------------------------------------

    def run(self, stop_at_dest: bool = True):
        self.labels[self.source] = (0, SrcNode("start", self.source, 0))
        if self.source == self.dest and stop_at_dest:
            return
        if self.source in self.vert_payload:
            # a source on an edge endpoint is settled like any vertex; left
            # live it would be the split vertex of its own wavelets forever
            self.drm.remove(self.source[0], self.source[1], self.vert_payload[self.source])
        self._spawn_arrangement(self.source, 0, self.labels[self.source][1])
        last_key = None
        while self.heap:
            if stop_at_dest and self.dest in self.labels:
                return
            key, rank, tie, seq, item = heapq.heappop(self.heap)
            if last_key is not None and key < last_key:
                raise AssertionError(f"heap popped key {key} after {last_key}")
            last_key = key
            kind = item[0]
            if kind == "settle":
                _, p, parent = item
                if p in self.labels:
                    continue
                node = SrcNode("vertex", p, key, parent)
                self.labels[p] = (key, node)
                if p not in self.vert_payload:
                    continue  # a destination off every edge spawns nothing
                self.drm.remove(p[0], p[1], self.vert_payload[p])
                self._spawn_arrangement(p, key, node)
            elif kind == "pw":
                self._do_point(item[1])
            elif kind == "sw":
                self._do_segment(item[1])
            else:  # "fan"
                _, fp, edge_idx, parent = item
                node = SrcNode("wait", fp, key, parent, host=edge_idx)
                self._spawn_arrangement(fp, key, node)
        if stop_at_dest and self.dest not in self.labels:
            raise AssertionError("queue exhausted before the destination settled")


def run_plan(eng) -> PlanResult:
    """Run a planning engine until the destination settles and witness it."""
    from .pathrec import build_path

    eng.run(stop_at_dest=True)
    return PlanResult(eng.sc.time_out(eng.labels[eng.dest][0]), build_path(eng), eng.stats)


def naive_plan(scene: Scene) -> PlanResult:
    """Minimum arrival time at the destination plus a witness path, by plain
    wavefront propagation (quadratic wavelet count, log-factor queries)."""
    return run_plan(_Engine(scene))
