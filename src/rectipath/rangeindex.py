"""Static and dynamic min-weight range queries used by the planners.

Three structures:

* :class:`RectStabber` -- static set of weighted rectangles, query = minimum
  weight rectangle containing a point, optionally restricted to weights
  strictly above a floor.
* :class:`SegIntersecter` -- static set of weighted axis-parallel segments,
  query = minimum weight segment intersecting an axis-parallel query segment.
* :class:`DynRangeMin` -- weighted points under deletion (and occasional
  insertion), query = minimum weight point in an axis-parallel rectangle.

All are built from sorted arrays and segment trees over elementary pieces, so
a query costs a few binary searches.  Weight ties break by payload id, which
callers choose to make results deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class WeightedRect:
    xlo: int
    xhi: int
    ylo: int
    yhi: int
    weight: int
    payload: int


@dataclass(frozen=True)
class WeightedSegment:
    p1: Tuple[int, int]
    p2: Tuple[int, int]
    weight: int
    payload: int

    @property
    def vertical(self) -> bool:
        # Degenerate (single point) segments count as horizontal.
        return self.p1[0] == self.p2[0] and self.p1[1] != self.p2[1]


@dataclass(frozen=True)
class WeightedPoint:
    x: int
    y: int
    weight: int
    payload: int


class DeleteMissing(KeyError):
    """Raised when deleting a point that is not live in a DynRangeMin."""


# ---------------------------------------------------------------------------
# Elementary-piece segment trees
# ---------------------------------------------------------------------------
#
# For sorted distinct coordinates c_0 < ... < c_{m-1}, piece 2i+1 is the
# singleton [c_i] and the even pieces are the open gaps around them (piece 0
# is (-inf, c_0), piece 2m is (c_{m-1}, +inf)).  Intervals with endpoints in
# the coordinate set map exactly onto runs of pieces; an open end just drops
# its boundary singleton.


class _MinStabTree:
    """Weighted intervals with per-end openness; stab a point with a weight floor.

    Entries are (lo, hi, lo_open, hi_open, weight, payload, item).  Each
    canonical node keeps its entries sorted by (weight, payload), so a stab
    walks one root-to-leaf path and bisects each node list above the floor.
    """

    __slots__ = ("coords", "base", "node_weights", "node_entries")

    def __init__(self, entries):
        coords = sorted({e[0] for e in entries} | {e[1] for e in entries})
        self.coords = coords
        size = 2 * len(coords) + 1
        base = 1
        while base < size:
            base *= 2
        self.base = base
        buckets: List[Optional[list]] = [None] * (2 * base)
        for (lo, hi, lo_open, hi_open, weight, payload, item) in entries:
            a = 2 * bisect_left(coords, lo) + 1 + (1 if lo_open else 0)
            b = 2 * bisect_left(coords, hi) + 2 - (1 if hi_open else 0)
            if a >= b:
                continue
            val = (weight, payload, item)
            stack = [(1, 0, base)]
            while stack:
                node, nlo, nhi = stack.pop()
                if a <= nlo and nhi <= b:
                    if buckets[node] is None:
                        buckets[node] = []
                    buckets[node].append(val)
                    continue
                mid = (nlo + nhi) // 2
                if a < mid:
                    stack.append((2 * node, nlo, mid))
                if b > mid:
                    stack.append((2 * node + 1, mid, nhi))
        self.node_weights: List[Optional[list]] = [None] * (2 * base)
        self.node_entries: List[Optional[list]] = [None] * (2 * base)
        for i, bucket in enumerate(buckets):
            if bucket:
                bucket.sort()
                self.node_weights[i] = [t[0] for t in bucket]
                self.node_entries[i] = bucket

    def piece_of(self, q) -> int:
        j = bisect_left(self.coords, q)
        if j < len(self.coords) and self.coords[j] == q:
            return 2 * j + 1
        return 2 * j

    def stab(self, q, floor=None):
        """Min (weight, payload, item) among entries containing q with weight > floor."""
        if not self.coords:
            return None
        piece = self.piece_of(q)
        best = None
        node, lo, hi = 1, 0, self.base
        while True:
            w = self.node_weights[node]
            if w is not None:
                k = 0 if floor is None else bisect_right(w, floor)
                if k < len(w):
                    cand = self.node_entries[node][k]
                    if best is None or cand < best:
                        best = cand
            if hi - lo == 1:
                return best
            mid = (lo + hi) // 2
            if piece < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid


class RectStabber:
    """Minimum-weight rectangle containing a query point.

    Built once from :class:`WeightedRect` items.  ``x_open`` / ``y_open`` turn
    every rectangle's bounds on that axis into open intervals; the default is
    boundary-inclusive.  ``query`` accepts a weight floor: only rectangles of
    weight strictly above it are considered.

    Outer segment tree over x-pieces; each canonical node holds a
    :class:`_MinStabTree` over the y-spans of its rectangles.
    """

    def __init__(self, rects, *, x_open: bool = False, y_open: bool = False):
        self.rects = list(rects)
        coords = sorted({r.xlo for r in self.rects} | {r.xhi for r in self.rects})
        self.coords = coords
        size = 2 * len(coords) + 1
        base = 1
        while base < size:
            base *= 2
        self.base = base
        buckets: List[Optional[list]] = [None] * (2 * base)
        shift = 1 if x_open else 0
        for idx, r in enumerate(self.rects):
            a = 2 * bisect_left(coords, r.xlo) + 1 + shift
            b = 2 * bisect_left(coords, r.xhi) + 2 - shift
            if a >= b:
                continue
            stack = [(1, 0, base)]
            while stack:
                node, nlo, nhi = stack.pop()
                if a <= nlo and nhi <= b:
                    if buckets[node] is None:
                        buckets[node] = []
                    buckets[node].append(idx)
                    continue
                mid = (nlo + nhi) // 2
                if a < mid:
                    stack.append((2 * node, nlo, mid))
                if b > mid:
                    stack.append((2 * node + 1, mid, nhi))
        self.node_trees: List[Optional[_MinStabTree]] = [None] * (2 * base)
        for i, bucket in enumerate(buckets):
            if bucket:
                self.node_trees[i] = _MinStabTree(
                    [
                        (
                            self.rects[j].ylo,
                            self.rects[j].yhi,
                            y_open,
                            y_open,
                            self.rects[j].weight,
                            self.rects[j].payload,
                            j,
                        )
                        for j in bucket
                    ]
                )

    def query(self, q: Tuple[int, int], floor=None) -> Optional[WeightedRect]:
        """Minimum-weight stored rectangle containing q (ties by payload)."""
        if not self.coords:
            return None
        qx, qy = q
        j = bisect_left(self.coords, qx)
        if j < len(self.coords) and self.coords[j] == qx:
            piece = 2 * j + 1
        else:
            piece = 2 * j
        best = None
        node, lo, hi = 1, 0, self.base
        while True:
            tree = self.node_trees[node]
            if tree is not None:
                cand = tree.stab(qy, floor)
                if cand is not None and (best is None or cand < best):
                    best = cand
            if hi - lo == 1:
                break
            mid = (lo + hi) // 2
            if piece < mid:
                node, hi = 2 * node, mid
            else:
                node, lo = 2 * node + 1, mid
        return None if best is None else self.rects[best[2]]


class _SideRange:
    """Vertical segments indexed for (x-range, y-stab) minimum-weight queries.

    Stores (x, ylo, yhi, y_lo_open, y_hi_open, weight, payload, item).  The
    outer tree is a merge tree over the sorted x positions; every canonical
    node holds a _MinStabTree over its segments' y-spans.  The x-range bounds
    of a query may be open or closed per side.
    """

    def __init__(self, segs):
        segs = sorted(segs, key=lambda s: s[0])
        self.xs = [s[0] for s in segs]
        n = len(segs)
        base = 1
        while base < max(n, 1):
            base *= 2
        self.base = base
        self.node_trees: List[Optional[_MinStabTree]] = [None] * (2 * base)
        # Leaf i holds segment i; internal nodes the union of their children.
        groups: List[Optional[list]] = [None] * (2 * base)
        for i, s in enumerate(segs):
            groups[base + i] = [s]
        for node in range(base - 1, 0, -1):
            l, r = groups[2 * node], groups[2 * node + 1]
            if l or r:
                groups[node] = (l or []) + (r or [])
        for node, grp in enumerate(groups):
            if grp:
                self.node_trees[node] = _MinStabTree(
                    [(s[1], s[2], s[3], s[4], s[5], s[6], s[7]) for s in grp]
                )

    def query(self, xlo, xhi, lo_open, hi_open, qy, floor=None):
        """Min (weight, payload, item) with x in the range and qy inside the y-span."""
        if not self.xs:
            return None
        a = bisect_right(self.xs, xlo) if lo_open else bisect_left(self.xs, xlo)
        b = bisect_left(self.xs, xhi) if hi_open else bisect_right(self.xs, xhi)
        if a >= b:
            return None
        best = None
        # Canonical decomposition of leaf range [a, b).
        a += self.base
        b += self.base
        while a < b:
            if a & 1:
                t = self.node_trees[a]
                if t is not None:
                    cand = t.stab(qy, floor)
                    if cand is not None and (best is None or cand < best):
                        best = cand
                a += 1
            if b & 1:
                b -= 1
                t = self.node_trees[b]
                if t is not None:
                    cand = t.stab(qy, floor)
                    if cand is not None and (best is None or cand < best):
                        best = cand
            a >>= 1
            b >>= 1
        return best


class SegIntersecter:
    """Minimum-weight stored segment intersecting an axis-parallel query segment.

    Closed-set semantics: touching endpoints and collinear overlap both count.
    Perpendicular intersections are answered by one _SideRange per stored
    orientation; collinear overlaps by per-line scans.
    """

    def __init__(self, segs):
        self.segs = list(segs)
        vert, horiz = [], []
        self.v_lines = {}
        self.h_lines = {}
        for idx, s in enumerate(self.segs):
            (x1, y1), (x2, y2) = s.p1, s.p2
            if s.vertical:
                lo, hi = (y1, y2) if y1 <= y2 else (y2, y1)
                vert.append((x1, lo, hi, False, False, s.weight, s.payload, idx))
                self.v_lines.setdefault(x1, []).append((lo, hi, s.weight, s.payload, idx))
            else:
                lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
                horiz.append((y1, lo, hi, False, False, s.weight, s.payload, idx))
                self.h_lines.setdefault(y1, []).append((lo, hi, s.weight, s.payload, idx))
        self.vert_index = _SideRange(vert)
        # Mirrored: horizontal segments keyed by y, spans along x.
        self.horiz_index = _SideRange(horiz)

    @staticmethod
    def _line_scan(group, lo, hi):
        best = None
        for (slo, shi, w, payload, idx) in group:
            if slo <= hi and lo <= shi:
                cand = (w, payload, idx)
                if best is None or cand < best:
                    best = cand
        return best

    def query(self, p1: Tuple[int, int], p2: Tuple[int, int]) -> Optional[WeightedSegment]:
        """Minimum-weight stored segment meeting the closed query segment p1-p2."""
        (x1, y1), (x2, y2) = p1, p2
        best = None
        if x1 == x2 and y1 != y2:
            lo, hi = (y1, y2) if y1 <= y2 else (y2, y1)
            # vs horizontal: stored y in [lo, hi], x-span contains x1
            cand = self.horiz_index.query(lo, hi, False, False, x1)
            if cand is not None:
                best = cand
            g = self.v_lines.get(x1)
            if g:
                cand = self._line_scan(g, lo, hi)
                if cand is not None and (best is None or cand < best):
                    best = cand
        else:
            lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
            cand = self.vert_index.query(lo, hi, False, False, y1)
            if cand is not None:
                best = cand
            g = self.h_lines.get(y1)
            if g:
                cand = self._line_scan(g, lo, hi)
                if cand is not None and (best is None or cand < best):
                    best = cand
        return None if best is None else self.segs[best[2]]


# ---------------------------------------------------------------------------
# Dynamic range minimum over weighted points
# ---------------------------------------------------------------------------


class _KdNode:
    __slots__ = ("pt", "key", "left", "right", "parent", "alive", "live", "best", "bbox")

    def __init__(self, pt: WeightedPoint):
        self.pt = pt
        self.key = (pt.weight, pt.payload, pt.x, pt.y)
        self.left = None
        self.right = None
        self.parent = None
        self.alive = True
        self.live = 1
        self.best = self.key
        self.bbox = (pt.x, pt.x, pt.y, pt.y)


def _build_kd(pts: List[WeightedPoint], axis: int, parent) -> Optional[_KdNode]:
    if not pts:
        return None
    pts.sort(key=(lambda p: (p.x, p.y)) if axis == 0 else (lambda p: (p.y, p.x)))
    mid = len(pts) // 2
    node = _KdNode(pts[mid])
    node.parent = parent
    node.left = _build_kd(pts[:mid], 1 - axis, node)
    node.right = _build_kd(pts[mid + 1 :], 1 - axis, node)
    xs = [node.pt.x]
    ys = [node.pt.y]
    for ch in (node.left, node.right):
        if ch is not None:
            node.live += ch.live
            node.best = min(node.best, ch.best)
            xs.extend((ch.bbox[0], ch.bbox[1]))
            ys.extend((ch.bbox[2], ch.bbox[3]))
    node.bbox = (min(xs), max(xs), min(ys), max(ys))
    return node


_CLOSED = (False, False, False, False)


def _inside(x, y, rect, open_sides) -> bool:
    xlo, xhi, ylo, yhi = rect
    olx, ohx, oly, ohy = open_sides
    if (x <= xlo if olx else x < xlo) or (x >= xhi if ohx else x > xhi):
        return False
    if (y <= ylo if oly else y < ylo) or (y >= yhi if ohy else y > yhi):
        return False
    return True


class DynRangeMin:
    """Minimum-weight live point inside a rectangle, under delete and insert.

    A static kd-tree (subtree live counts, min keys and bounding boxes) serves
    the initial points; deletions mark nodes dead and fix the ancestor path.
    Inserts go to an overlay list that is folded into a rebuilt tree once it
    outgrows the tree.  Query rectangles may be open per side.
    """

    def __init__(self, points=()):
        pts = list(points)
        self.root = _build_kd(pts, 0, None) if pts else None
        self._index = {}
        self._register(self.root)
        self.overlay: List[WeightedPoint] = []

    def _register(self, node):
        stack = [node] if node else []
        while stack:
            n = stack.pop()
            self._index[(n.pt.x, n.pt.y, n.pt.payload)] = n
            if n.left:
                stack.append(n.left)
            if n.right:
                stack.append(n.right)

    def __len__(self):
        return (self.root.live if self.root else 0) + len(self.overlay)

    def insert(self, pt: WeightedPoint) -> None:
        self.overlay.append(pt)
        tree_live = self.root.live if self.root else 0
        if len(self.overlay) > 32 and len(self.overlay) > tree_live:
            pts = self._live_points()
            self.root = _build_kd(pts, 0, None) if pts else None
            self._index = {}
            self._register(self.root)
            self.overlay = []

    def _live_points(self) -> List[WeightedPoint]:
        out = list(self.overlay)
        stack = [self.root] if self.root else []
        while stack:
            n = stack.pop()
            if n.alive:
                out.append(n.pt)
            if n.left and n.left.live:
                stack.append(n.left)
            if n.right and n.right.live:
                stack.append(n.right)
        return out

    def delete(self, x, y, payload) -> None:
        """Remove the live point identified by position and payload."""
        node = self._index.get((x, y, payload))
        if node is not None and node.alive:
            node.alive = False
            n = node
            while n is not None:
                n.live -= 1
                best = n.key if n.alive else None
                for ch in (n.left, n.right):
                    if ch is not None and ch.live and (best is None or ch.best < best):
                        best = ch.best
                n.best = best  # None only on fully dead subtrees, never visited
                n = n.parent
            return
        for i, p in enumerate(self.overlay):
            if (p.x, p.y, p.payload) == (x, y, payload):
                self.overlay.pop(i)
                return
        raise DeleteMissing((x, y, payload))

    def query(self, rect, open_sides=_CLOSED) -> Optional[WeightedPoint]:
        """Minimum (weight, payload) live point inside rect, or None."""
        best = None
        best_pt = None
        for p in self.overlay:
            if _inside(p.x, p.y, rect, open_sides):
                key = (p.weight, p.payload, p.x, p.y)
                if best is None or key < best:
                    best, best_pt = key, p
        xlo, xhi, ylo, yhi = rect
        stack = [self.root] if (self.root and self.root.live) else []
        while stack:
            n = stack.pop()
            bxlo, bxhi, bylo, byhi = n.bbox
            if bxlo > xhi or bxhi < xlo or bylo > yhi or byhi < ylo:
                continue
            if best is not None and n.best >= best:
                continue
            if n.alive and _inside(n.pt.x, n.pt.y, rect, open_sides):
                key = n.key
                if best is None or key < best:
                    best, best_pt = key, n.pt
            for ch in (n.left, n.right):
                if ch is not None and ch.live:
                    stack.append(ch)
        return best_pt

    def report(self, rect, open_sides=_CLOSED) -> List[WeightedPoint]:
        """All live points inside rect, in no particular order."""
        out = [p for p in self.overlay if _inside(p.x, p.y, rect, open_sides)]
        xlo, xhi, ylo, yhi = rect
        stack = [self.root] if (self.root and self.root.live) else []
        while stack:
            n = stack.pop()
            bxlo, bxhi, bylo, byhi = n.bbox
            if bxlo > xhi or bxhi < xlo or bylo > yhi or byhi < ylo:
                continue
            if n.alive and _inside(n.pt.x, n.pt.y, rect, open_sides):
                out.append(n.pt)
            for ch in (n.left, n.right):
                if ch is not None and ch.live:
                    stack.append(ch)
        return out


# ---------------------------------------------------------------------------
# Corner-weighted vertex lookup
# ---------------------------------------------------------------------------

CORNERS = ("SW", "SE", "NW", "NE")


class CornerWeightedVertices:
    """Four DynRangeMin instances over the same vertices, one per board corner.

    The copy for corner c weighs every vertex by its L1 distance to c, so the
    minimum-weight vertex in a query rectangle is the one nearest the matching
    corner of that rectangle (the constant offset between the rectangle corner
    and the board corner does not change the argmin).  Payload ids must be
    assigned in lexicographic (x, y) order for ties to resolve lexicographically.
    """

    def __init__(self, bbox, vertices):
        xlo, xhi, ylo, yhi = bbox
        self.bbox = bbox
        self.trees = {}
        corner_pos = {
            "SW": (xlo, ylo),
            "SE": (xhi, ylo),
            "NW": (xlo, yhi),
            "NE": (xhi, yhi),
        }
        for corner in CORNERS:
            cx, cy = corner_pos[corner]
            pts = [
                WeightedPoint(x, y, abs(x - cx) + abs(y - cy), payload)
                for (x, y), payload in vertices
            ]
            self.trees[corner] = DynRangeMin(pts)

    def __len__(self):
        return len(self.trees["SW"])

    def remove(self, x, y, payload) -> None:
        for corner in CORNERS:
            self.trees[corner].delete(x, y, payload)

    def nearest(self, rect, corner: str, open_sides=_CLOSED) -> Optional[WeightedPoint]:
        """Vertex in rect nearest the given corner of rect (ties lexicographic)."""
        return self.trees[corner].query(rect, open_sides)

    def report(self, rect, open_sides=_CLOSED) -> List[WeightedPoint]:
        return self.trees["SW"].report(rect, open_sides)
