"""Shadow-transform stop queries in the four axis directions.

A source moving along an axis crosses a perpendicular edge's line at a time
that depends only on its shadow coordinate tau = t - s*u, where u is the
source's travel-axis coordinate and s is +1 for N/E and -1 for S/W.  An edge
on line L with lifetime [ta, td] blocks exactly the rays whose tau falls in
the open window (ta - w, td - w), w = s*L, and whose cross coordinate lies
strictly inside the edge's span (passing an endpoint is always legal, as is
crossing at the appearance or disappearance instant).  Minimizing w over the
ranges containing the shadow point therefore yields the first blocking edge,
and arrival = tau + w.

Weights are floored strictly above s*u so edges behind the source (or sharing
its line) never match.

Built once per scene from integer-scaled edges; all queries are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import IntEdge
from .rangeindex import RectStabber, WeightedRect, _SideRange

DIRS = ("N", "S", "E", "W")

# (sign, edges are horizontal) per direction
_DIR_INFO = {"N": (1, True), "S": (-1, True), "E": (1, False), "W": (-1, False)}


@dataclass(frozen=True)
class StopHit:
    edge_index: int
    point: Tuple[int, int]
    arrival: int


class StopOracle:
    """Direction-indexed first-blocking-edge queries over a fixed edge set.

    Works in scaled integer units (vmax = 1).  Per direction it holds a
    rectangle stabber over the shadow ranges (cross span and tau window both
    open) for single rays, and two boundary-segment indexes for dragged
    segments: one over the low cross ends of the ranges, one over the high
    ends.  A drag over closed span [a, b] stops at an edge iff the open
    overlap of the spans is nonempty, which splits into three indexable
    cases: low end in [a, b), high end in (a, b], or the whole drag strictly
    inside the edge span.
    """

    def __init__(self, edges: Sequence[IntEdge]):
        self.edges = list(edges)
        self._stab = {}
        self._lo_bounds = {}
        self._hi_bounds = {}
        for d in DIRS:
            s, horizontal = _DIR_INFO[d]
            rects, lo_segs, hi_segs = [], [], []
            for i, e in enumerate(self.edges):
                if e.horizontal != horizontal:
                    continue
                w = s * e.line
                ta, td = e.ta - w, e.td - w
                rects.append(WeightedRect(e.lo, e.hi, ta, td, w, i))
                lo_segs.append((e.lo, ta, td, True, True, w, i, i))
                hi_segs.append((e.hi, ta, td, True, True, w, i, i))
            self._stab[d] = RectStabber(rects)
            self._lo_bounds[d] = _SideRange(lo_segs)
            self._hi_bounds[d] = _SideRange(hi_segs)

    def _src(self, p, t, d):
        s, horizontal = _DIR_INFO[d]
        cross, travel = (p[0], p[1]) if horizontal else (p[1], p[0])
        return cross, s * travel, t - s * travel  # cross, floor, tau

    def _hit(self, edge_index: int, cross: int, tau: int, d: str) -> StopHit:
        s, horizontal = _DIR_INFO[d]
        e = self.edges[edge_index]
        arrival = tau + s * e.line
        point = (cross, e.line) if horizontal else (e.line, cross)
        return StopHit(edge_index, point, arrival)

    def stop_point(self, p, t, d: str) -> Optional[StopHit]:
        """First edge blocking a ray from p departing at time t toward d."""
        cross, floor, tau = self._src(p, t, d)
        r = self._stab[d].query((cross, tau), floor)
        if r is None:
            return None
        return self._hit(r.payload, cross, tau, d)

    def stop_drag(self, lo: int, hi: int, line: int, t: int, d: str):
        """First edge blocking a perpendicular segment [lo, hi] on the given
        line, all of it departing at time t toward d.

        Returns (edge_index, arrival) or None.  Columns passing an edge
        endpoint do not stop, so a drag is blocked only when the open overlap
        of the spans is nonempty; a degenerate drag is a single ray.
        """
        s, horizontal = _DIR_INFO[d]
        if lo == hi:
            p = (lo, line) if horizontal else (line, lo)
            h = self.stop_point(p, t, d)
            return None if h is None else (h.edge_index, h.arrival)
        floor = s * line
        tau = t - floor
        best = None
        r = self._stab[d].query((lo, tau), floor)
        if r is not None:
            best = (r.weight, r.payload)
        for idx, blo, bhi, olo, ohi in (
            (0, lo, hi, False, True),
            (1, lo, hi, True, False),
        ):
            side = self._lo_bounds[d] if idx == 0 else self._hi_bounds[d]
            cand = side.query(blo, bhi, olo, ohi, tau, floor)
            if cand is not None and (best is None or (cand[0], cand[1]) < best):
                best = (cand[0], cand[1])
        if best is None:
            return None
        return best[1], tau + best[0]

    def accessible_on(self, edge_index: int, src, t: int) -> List[Tuple[int, int]]:
        """Closed sub-intervals of the edge span reachable from (src, t) while
        the edge exists, assuming unobstructed L1 travel.

        Arrival at cross coordinate c is t + |c - src_cross| + |line - src_travel|;
        the closed window [ta, td] admits |c - src_cross| in [L, R], which is one
        interval when L = 0 and a symmetric pair otherwise.
        """
        e = self.edges[edge_index]
        cross, travel = (src[0], src[1]) if e.horizontal else (src[1], src[0])
        base = t + abs(e.line - travel)
        r = e.td - base
        if r < 0:
            return []
        l = max(e.ta - base, 0)
        if l > r:
            return []
        if l == 0:
            spans = [(cross - r, cross + r)]
        else:
            spans = [(cross - r, cross - l), (cross + l, cross + r)]
        out = []
        for a, b in spans:
            a, b = max(a, e.lo), min(b, e.hi)
            if a <= b:
                out.append((a, b))
        return out
