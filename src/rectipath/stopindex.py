"""Shadow-transform stop queries in the four axis directions, and the one
direction table: ``_GRADS`` gives the sweep's eight directions their
gradients, and ``DIAGS``, ``DIRS`` and ``_DIR_INFO`` are read from it.

A source moving along an axis crosses a perpendicular edge's line at a time
that depends only on its shadow coordinate tau = t - s*u, where u is the
source's travel-axis coordinate and s is +1 for N/E and -1 for S/W.  An edge
on line L with lifetime [ta, td] blocks exactly the rays whose tau falls in
the open window (ta - w, td - w), w = s*L, and whose cross coordinate lies
strictly inside the edge's span (passing an endpoint is always legal, as is
crossing at the appearance or disappearance instant).  Minimizing w over the
ranges containing the shadow point therefore yields the first blocking edge,
and arrival = tau + w.  A perpendicular segment [a, b] dragged along the axis
is stopped by the same edges with the cross test widened to the open overlap
e.lo < b and e.hi > a, which for a == b is the ray's test; so every stop
query is one :class:`~rectipath.rangeindex.RectStabber` query over rows
(w, edge index, cross range, tau range), answering the least (w, edge
index).  Every query coordinate is an integer, so each open range is stored
as the closed one of the integers inside it: e.lo < b and e.hi > a hold
exactly when e.lo + 1 <= b and e.hi - 1 >= a, and likewise for the tau
window.  An edge of span 1 still stops a drag across its gap, and a window
of length 1 stops nothing, its closed range being empty.

Weights are floored strictly above s*u so edges behind the source (or sharing
its line) never match.

A witness hop asks the same stabbers, through the same shadow transform,
for the edges that may block it (:meth:`StopOracle.blockers`).  Take y as
the hop's travel axis.  A full-speed monotone staircase from a, departing
at t0, toward b reaches an edge's line at cross coordinate x at time
c + w + |x - a_x|, where c = t0 - s*a_y.  So the edge can block the hop only
when w lies in [s*a_y, s*b_y), its line on or ahead of a's and short of
b's; when its open span meets the hop's closed cross range; and when its
open tau window meets [c, c + |b_x - a_x|].  Those are the stored closed
ranges that one box meets within one run of weight ranks: one
:meth:`~rectipath.rangeindex.RectStabber.report` of edge indices per travel
axis.  A map target may be fractional, and the closed ranges are exact only
for integer bounds, so every lower bound is floored and every upper one
ceiled; the answer stays a superset of the edges that can block.

A ray's stop hit alone gives the part of its edge that the ray's source
reaches while the edge stands (:meth:`StopOracle.accessible_on`).

Built once per scene from integer-scaled edges; all queries are exact.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import IntEdge
from .rangeindex import RectStabber

# direction -> gradient (gx, gy): a front toward it arrives at c + gx*x + gy*y;
# the diagonals first, in spawn order, which sets the roots' ranks
_GRADS = {
    "NE": (1, 1), "NW": (-1, 1), "SE": (1, -1), "SW": (-1, -1),
    "N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0),
}
DIAGS = tuple(_GRADS)[:4]
DIRS = tuple(_GRADS)[4:]

# (sign, edges are horizontal) per axis direction
_DIR_INFO = {d: (gx + gy, gx == 0) for d, (gx, gy) in _GRADS.items() if d in DIRS}


class StopHit(NamedTuple):
    """The first edge blocking a ray (:meth:`StopOracle.stop_point`): the
    edge's index, the point where the ray meets the edge's line, and the
    arrival there.  A named tuple, immutable like any tuple and built at
    tuple cost: each arrangement spawn of the sweep asks for four."""

    edge_index: int
    point: Tuple[int, int]
    arrival: int


class StopOracle:
    """Direction-indexed first-blocking-edge queries over a fixed edge set.

    Works in scaled integer units (vmax = 1).  Per direction it holds one
    rectangle stabber over the shadow ranges (cross span and tau window,
    each the closed range of the integers strictly inside) that answers rays
    and dragged segments alike.
    """

    def __init__(self, edges: Sequence[IntEdge]):
        self.edges = list(edges)
        rows = {d: [] for d in DIRS}
        for i, e in enumerate(self.edges):
            # the edge's rows toward its two directions, s = 1 (N or E) and
            # s = -1 (S or W), each of weight w = s * line and payload i
            lo, hi, ta, td, line = e.lo + 1, e.hi - 1, e.ta + 1, e.td - 1, e.line
            pos, neg = ("N", "S") if e.horizontal else ("E", "W")
            rows[pos].append((line, i, lo, hi, ta - line, td - line))
            rows[neg].append((-line, i, lo, hi, ta + line, td + line))
        self._stab = {d: RectStabber(rows[d]) for d in DIRS}

    def stop_point(self, p, t, d: str) -> Optional[StopHit]:
        """First edge blocking a ray from p departing at time t toward d."""
        s, horizontal = _DIR_INFO[d]
        cross, travel = (p[0], p[1]) if horizontal else (p[1], p[0])
        floor = s * travel
        tau = t - floor
        r = self._stab[d].query((cross, tau), floor)
        if r is None:
            return None
        w, i = r
        line = self.edges[i].line
        return StopHit(i, (cross, line) if horizontal else (line, cross), tau + w)

    def stop_drag(self, lo: int, hi: int, line: int, t: int, d: str):
        """First edge blocking a perpendicular segment [lo, hi] on the given
        line, all of it departing at time t toward d.

        Returns (edge_index, arrival) or None.  Columns passing an edge
        endpoint do not stop, so a drag is blocked only when the open overlap
        of the spans is nonempty; a degenerate drag is a single ray.
        """
        floor = _DIR_INFO[d][0] * line
        tau = t - floor
        r = self._stab[d].query((lo, tau), floor, hi)
        return None if r is None else (r[1], tau + r[0])

    def blockers(self, a, t0, b) -> List[IntEdge]:
        """The edges that may block a full-speed monotone staircase from a,
        departing at time t0, to b: every edge on a line from a's up to but
        not including b's, whose open span meets the hop's closed cross range
        and whose open window meets the hop's crossing times there.  A
        superset of the edges the staircase router keeps; horizontals first,
        each axis in rank order."""
        out = []
        for travel, dirs in ((1, "NS"), (0, "EW")):  # horizontals, then verticals
            if a[travel] == b[travel]:
                continue  # no line lies in [s*a, s*b)
            s = 1 if b[travel] > a[travel] else -1
            lo, hi = sorted((a[1 - travel], b[1 - travel]))
            c = t0 - s * a[travel]
            box = (math.floor(lo), math.ceil(hi), math.floor(c), math.ceil(c + hi - lo))
            hits = self._stab[dirs[s < 0]].report(box, math.floor(s * a[travel]), math.ceil(s * b[travel]))
            out.extend(self.edges[i] for i in hits)
        return out

    def accessible_on(self, hit: StopHit) -> Tuple[int, int]:
        """Closed part (lo, hi) of the span of the edge that stops a ray, hit
        as :meth:`stop_point` reports it, reachable from the ray's source
        while the edge exists: arrival at cross coordinate c is hit.arrival +
        |c - cross|, cross the hit's, within the closed window up to td."""
        e = self.edges[hit.edge_index]
        cross = hit.point[0] if e.horizontal else hit.point[1]
        r = e.td - hit.arrival
        return max(cross - r, e.lo), min(cross + r, e.hi)
