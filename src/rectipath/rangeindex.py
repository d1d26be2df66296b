"""Static and dynamic min-weight range queries used by the planners and the map.

Three structures, plus the static index the stop oracle builds on:

* :class:`RectStabber` -- static set of weighted rectangles, query = minimum
  weight rectangle whose interior holds a point, optionally restricted to
  weights strictly above a floor (the stop oracle's ray queries).
* :class:`RectEnvelope` -- the same query with no floor and closed bounds,
  answered from the rectangles' lower envelope painted at build time: one
  bisect per tree node instead of an inner tree (the map's point location).
* :class:`CornerWeightedVertices` -- a fixed vertex set under deletion, query
  = vertex in a rectangle nearest one of its corners, among the live vertices
  or among all of them, the latter optionally leaving out one vertex.
* :class:`_SideRange` -- static vertical segments, query = minimum weight
  segment in an x range whose y span contains a point.

All are built from sorted arrays and segment trees, so a query costs a few
binary searches: the stabbing structures and the envelope over elementary
pieces, each a bottom-up tree whose query walks from one leaf to the root,
the vertex lookup over one static segment tree on the x order of its points
(:class:`_XTree`) whose nodes keep y-ordered min arrays, O(log^2 n) per
query and per deletion.  Weight ties break by payload id, which callers
choose to make results deterministic.
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
class WeightedPoint:
    x: int
    y: int
    weight: int
    payload: int


class DeleteMissing(KeyError):
    """Raised when removing a vertex that is not live."""


# ---------------------------------------------------------------------------
# Elementary-piece segment trees
# ---------------------------------------------------------------------------
#
# For sorted distinct coordinates c_0 < ... < c_{m-1}, piece 2i+1 is the
# singleton [c_i] and the even pieces are the open gaps around them (piece 0
# is (-inf, c_0), piece 2m is (c_{m-1}, +inf)).  Intervals with endpoints in
# the coordinate set map exactly onto runs of pieces; an open end just drops
# its boundary singleton.


def _spread(buckets, a, b, val) -> None:
    """Append val to buckets[v] (a dict of lists) for the canonical nodes v
    of leaf range [a, b) of a bottom-up segment tree; a leaf's ancestors are
    exactly the canonical nodes of every range that holds it."""
    while a < b:
        if a & 1:
            buckets.setdefault(a, []).append(val)
            a += 1
        if b & 1:
            b -= 1
            buckets.setdefault(b, []).append(val)
        a >>= 1
        b >>= 1


class _MinStabTree:
    """Weighted intervals with per-end openness; stab a point with a weight floor.

    Entries are (lo, hi, lo_open, hi_open, weight, payload, item).  A
    bottom-up segment tree over the 2m+1 elementary pieces, like
    :class:`RectEnvelope`'s: the leaf of piece p is base + p with base =
    2m+1, :func:`_spread` sends every interval to its canonical nodes, and
    each node keeps its entries sorted by (weight, payload).  A stab walks
    from its leaf up to the root and bisects each node list above the floor.
    """

    __slots__ = ("coords", "base", "node_weights", "node_entries")

    def __init__(self, entries):
        coords = sorted({e[0] for e in entries} | {e[1] for e in entries})
        self.coords = coords
        at = {c: 2 * i for i, c in enumerate(coords)}
        self.base = base = 2 * len(coords) + 1
        buckets = {}
        for (lo, hi, lo_open, hi_open, weight, payload, item) in entries:
            a = base + at[lo] + 1 + lo_open
            b = base + at[hi] + 2 - hi_open
            _spread(buckets, a, b, (weight, payload, item))
        self.node_weights: List[Optional[list]] = [None] * (2 * base)
        self.node_entries: List[Optional[list]] = [None] * (2 * base)
        for v, bucket in buckets.items():
            bucket.sort()
            self.node_weights[v] = [t[0] for t in bucket]
            self.node_entries[v] = bucket

    def piece_of(self, q) -> int:
        j = bisect_left(self.coords, q)
        if j < len(self.coords) and self.coords[j] == q:
            return 2 * j + 1
        return 2 * j

    def stab(self, q, floor=None):
        """Min (weight, payload, item) among entries containing q with weight > floor."""
        best = None
        v = self.base + self.piece_of(q)
        node_weights = self.node_weights
        while v:
            w = node_weights[v]
            if w is not None:
                k = 0 if floor is None else bisect_right(w, floor)
                if k < len(w):
                    cand = self.node_entries[v][k]
                    if best is None or cand < best:
                        best = cand
            v >>= 1
        return best


class RectStabber:
    """Minimum-weight rectangle containing a query point in its interior.

    Built once from :class:`WeightedRect` items; bounds are open on both
    axes.  ``query`` accepts a weight floor: only rectangles of weight
    strictly above it are considered.

    Outer bottom-up segment tree over the x pieces, built and walked like
    :class:`_MinStabTree`'s; each node holds a :class:`_MinStabTree` over
    the open y-spans of its rectangles.
    """

    def __init__(self, rects):
        self.rects = list(rects)
        coords = sorted({r.xlo for r in self.rects} | {r.xhi for r in self.rects})
        self.coords = coords
        at = {c: 2 * i for i, c in enumerate(coords)}
        self.base = base = 2 * len(coords) + 1
        buckets = {}
        for idx, r in enumerate(self.rects):
            _spread(buckets, base + at[r.xlo] + 2, base + at[r.xhi] + 1, idx)
        self.node_trees: List[Optional[_MinStabTree]] = [None] * (2 * base)
        rs = self.rects
        for v, bucket in buckets.items():
            self.node_trees[v] = _MinStabTree(
                [(rs[j].ylo, rs[j].yhi, True, True, rs[j].weight, rs[j].payload, j) for j in bucket]
            )

    def query(self, q: Tuple[int, int], floor=None) -> Optional[WeightedRect]:
        """Minimum-weight stored rectangle whose interior holds q (ties by payload)."""
        qx, qy = q
        xs = self.coords
        j = bisect_left(xs, qx)
        v = self.base + 2 * j + (j < len(xs) and xs[j] == qx)
        node_trees = self.node_trees
        best = None
        while v:
            tree = node_trees[v]
            if tree is not None:
                cand = tree.stab(qy, floor)
                if cand is not None and (best is None or cand < best):
                    best = cand
            v >>= 1
        return None if best is None else self.rects[best[2]]


class RectEnvelope:
    """Minimum (weight, payload) closed rectangle containing a query point.

    A segment tree over the elementary x pieces, like :class:`RectStabber`'s,
    but every node stores its rectangles' lower envelope along y instead of
    an inner tree.  The rectangles are ranked once by (weight, payload) and
    sent to their canonical nodes in rank order, so each node sees them
    sorted; a node then paints its y pieces, the first painter of a piece
    winning it, and keeps its sorted y breakpoints plus one winning rank per
    piece.  A query bisects x once for its leaf and walks up to the root
    with one y bisect per node, keeping the smallest rank: O(log^2 n) plain
    comparisons.  No weight floor and no open bounds.
    """

    __slots__ = ("rects", "xs", "base", "nodes")

    def __init__(self, rects):
        rects = sorted(rects, key=lambda r: (r.weight, r.payload))
        self.rects = rects
        xs = sorted({r.xlo for r in rects} | {r.xhi for r in rects})
        self.xs = xs
        xpos = {x: i for i, x in enumerate(xs)}
        # bottom-up segment tree over the 2m+1 x pieces: leaf of piece p is
        # base + p, so a query walks up from its leaf (see _spread)
        self.base = base = 2 * len(xs) + 1
        buckets = {}
        for rank, r in enumerate(rects):
            _spread(buckets, base + 2 * xpos[r.xlo] + 1, base + 2 * xpos[r.xhi] + 2, rank)
        none = len(rects)
        nodes: List[Optional[tuple]] = [None] * (2 * base)
        for v, ranks in buckets.items():
            spans = [(rects[k].ylo, rects[k].yhi) for k in ranks]
            ys = sorted({y for span in spans for y in span})
            ypos = {y: i for i, y in enumerate(ys)}
            # piece 2i+1 is the singleton ys[i], piece 2i the gap below it;
            # closed spans only paint pieces 1 .. 2m-1
            win = [none] * (2 * len(ys))
            nxt = list(range(2 * len(ys)))  # next unpainted piece at or after
            nxt.append(len(nxt))
            left = len(win) - 1
            for k, (ylo, yhi) in zip(ranks, spans):
                p, last = 2 * ypos[ylo] + 1, 2 * ypos[yhi] + 1
                while True:
                    while nxt[p] != p:
                        nxt[p] = nxt[nxt[p]]
                        p = nxt[p]
                    if p > last:
                        break
                    win[p] = k
                    nxt[p] = p + 1
                    left -= 1
                if not left:
                    break
            nodes[v] = (ys, win)
        self.nodes = nodes

    def query(self, q) -> Optional[WeightedRect]:
        """Minimum (weight, payload) stored rectangle containing q, or None."""
        qx, qy = q
        xs = self.xs
        j = bisect_left(xs, qx)
        v = self.base + 2 * j + (j < len(xs) and xs[j] == qx)
        nodes = self.nodes
        best = none = len(self.rects)
        while v:
            node = nodes[v]
            if node is not None:
                ys, win = node
                k = bisect_left(ys, qy)
                if k < len(ys):
                    r = win[2 * k + (ys[k] == qy)]
                    if r < best:
                        best = r
            v >>= 1
        return None if best == none else self.rects[best]


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


# ---------------------------------------------------------------------------
# Range minimum over a fixed point set: one x segment tree, several views
# ---------------------------------------------------------------------------

_CLOSED = (False, False, False, False)
_DEAD = float("inf")  # key of a deleted point, above every live key


def _span_min(a, b, lo, hi):
    """min(b, a[lo:hi]) on a bottom-up min array a (leaves at len(a) // 2)."""
    while lo < hi:
        if lo & 1:
            if a[lo] < b:
                b = a[lo]
            lo += 1
        if hi & 1:
            hi -= 1
            if a[hi] < b:
                b = a[hi]
        lo >>= 1
        hi >>= 1
    return b


class _XTree:
    """Static segment tree over the x order of a fixed point set.

    Leaf i holds the i-th point in (x, y, payload) order.  Node v (children
    2v and 2v+1, leaves at n..2n-1) keeps the leaf ids of its points in y
    order, and ``pos[i]`` lists leaf i's place in every node on its way up.
    This layout is built once per point set.  A *view* puts one key per point
    on it: one bottom-up min array per node over that node's y order.  A
    rectangle query bisects x for the O(log n) canonical nodes, bisects y in
    each and takes a range minimum there, O(log^2 n) in all, and serves any
    number of views from the same spans.  Deleting a point from a view clears
    its leaf in the nodes above it, walking up each node's array only while
    that node's minimum changes.

    A key is weight * n + leaf id, so keys compare like (weight, x, y,
    payload) tuples.  Weights must be integers.
    """

    __slots__ = ("n", "points", "leaf_of", "xs", "node_ids", "node_ys", "pos")

    def __init__(self, points):
        """points: distinct (x, y, payload) triples, in any order."""
        pts = sorted(points)
        n = len(pts)
        self.n = n
        self.points = pts
        self.leaf_of = {p: i for i, p in enumerate(pts)}
        self.xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        ids: List[Optional[list]] = [None] * (2 * n)
        for i in range(n):
            ids[n + i] = [i]
        for v in range(n - 1, 0, -1):
            # timsort merges the two y-ordered runs in linear time
            ids[v] = sorted(ids[2 * v] + ids[2 * v + 1], key=ys.__getitem__)
        self.node_ids = ids
        self.node_ys = [None] + [list(map(ys.__getitem__, ids[v])) for v in range(1, 2 * n)]
        pos: List[list] = [[] for _ in range(n)]
        for v in range(2 * n - 1, 0, -1):  # ancestors come in decreasing order
            for j, i in enumerate(ids[v]):
                pos[i].append(j)
        self.pos = pos

    def view(self, weights) -> list:
        """Per-node min arrays over the keys of the given per-leaf weights."""
        n = self.n
        keys = [w * n + i for i, w in enumerate(weights)]
        get = keys.__getitem__
        arrays: List[Optional[list]] = [None] * n
        for v in range(1, n):
            ids = self.node_ids[v]
            m = len(ids)
            a = [None] * m
            a += map(get, ids)
            hi = m
            while hi > 1:
                lo = (hi + 1) >> 1
                a[lo:hi] = map(min, a[2 * lo : 2 * hi : 2], a[2 * lo + 1 : 2 * hi : 2])
                hi = lo
            arrays[v] = a
        arrays += [[None, k] for k in keys]  # leaves
        return arrays

    def clear(self, views, i) -> None:
        """Delete leaf i from each of the views."""
        v = self.n + i
        for p in self.pos[i]:
            k0 = len(self.node_ys[v]) + p
            for view in views:
                a = view[v]
                a[k0] = _DEAD
                k = k0 >> 1
                while k:
                    l, r = a[2 * k], a[2 * k + 1]
                    m = l if l < r else r
                    if m == a[k]:
                        break
                    a[k] = m
                    k >>= 1
            v >>= 1

    def nodes(self, rect, open_sides=_CLOSED) -> List[int]:
        """Canonical nodes of rect's x range."""
        xlo, xhi = rect[0], rect[1]
        xs = self.xs
        a = bisect_right(xs, xlo) if open_sides[0] else bisect_left(xs, xlo)
        b = bisect_left(xs, xhi) if open_sides[1] else bisect_right(xs, xhi)
        out = []
        a += self.n
        b += self.n
        while a < b:
            if a & 1:
                out.append(a)
                a += 1
            if b & 1:
                b -= 1
                out.append(b)
            a >>= 1
            b >>= 1
        return out

    def mins(self, views, rect, open_sides=_CLOSED, skip=None) -> list:
        """Minimum key of each view over the points inside rect (_DEAD if
        none).  ``skip``, a leaf id or None, is left out of views[0] only:
        in the one canonical node above that leaf the y span is split around
        the leaf's place, so the pass stays one pass."""
        ylo, yhi = rect[2], rect[3]
        oly, ohy = open_sides[2], open_sides[3]
        node_ys = self.node_ys
        best = [_DEAD] * len(views)
        if skip is not None:
            leaf = self.n + skip
            depth = leaf.bit_length()
        for v in self.nodes(rect, open_sides):
            ys = node_ys[v]
            lo = bisect_right(ys, ylo) if oly else bisect_left(ys, ylo)
            hi = bisect_left(ys, yhi) if ohy else bisect_right(ys, yhi)
            if lo >= hi:
                continue
            m = len(ys)
            cut = -1
            if skip is not None:
                k = depth - v.bit_length()
                if k >= 0 and leaf >> k == v:
                    cut = self.pos[skip][k]
                    if not lo <= cut < hi:
                        cut = -1
            for j, view in enumerate(views):
                a = view[v]
                b = best[j]
                if a[1] >= b:
                    continue
                if cut >= 0 and j == 0:
                    best[0] = _span_min(a, _span_min(a, b, lo + m, cut + m), cut + 1 + m, hi + m)
                    continue
                if hi - lo == m:
                    best[j] = a[1]
                    continue
                lo2, hi2 = lo + m, hi + m
                while lo2 < hi2:
                    if lo2 & 1:
                        if a[lo2] < b:
                            b = a[lo2]
                        lo2 += 1
                    if hi2 & 1:
                        hi2 -= 1
                        if a[hi2] < b:
                            b = a[hi2]
                    lo2 >>= 1
                    hi2 >>= 1
                best[j] = b
        return best

    def leaves(self, view, rect, open_sides=_CLOSED) -> List[int]:
        """Leaf ids of the points inside rect, in no particular order,
        skipping the nodes where view holds no key below _DEAD."""
        ylo, yhi = rect[2], rect[3]
        oly, ohy = open_sides[2], open_sides[3]
        out: List[int] = []
        for v in self.nodes(rect, open_sides):
            if view[v][1] == _DEAD:
                continue
            ys = self.node_ys[v]
            lo = bisect_right(ys, ylo) if oly else bisect_left(ys, ylo)
            hi = bisect_left(ys, yhi) if ohy else bisect_right(ys, yhi)
            out += self.node_ids[v][lo:hi]
        return out

    def points_of(self, keys, pts) -> list:
        """pts[leaf] for the leaf of each key, None for _DEAD."""
        n = self.n
        return [None if k == _DEAD else pts[k % n] for k in keys]


# ---------------------------------------------------------------------------
# Corner-weighted vertex lookup
# ---------------------------------------------------------------------------

CORNERS = ("SW", "SE", "NW", "NE")


class CornerWeightedVertices:
    """Nearest vertex toward a corner of a query rectangle, over a fixed
    vertex set under deletion.

    One :class:`_XTree` over the vertices carries two views per board corner
    c, both weighing a vertex by its L1 distance to c: the live view loses
    each removed vertex, the settled view keeps them all.  The minimum-weight
    vertex in a query rectangle is the one nearest the matching corner of that
    rectangle (the constant offset between the rectangle corner and the board
    corner does not change the argmin).  Ties resolve lexicographically by
    (x, y).
    """

    def __init__(self, bbox, vertices):
        xlo, xhi, ylo, yhi = bbox
        self.bbox = bbox
        self.tree = tree = _XTree([(x, y, payload) for (x, y), payload in vertices])
        self.alive = bytearray(b"\x01") * tree.n
        self.live_count = tree.n
        self.points = {}  # corner -> WeightedPoint per leaf
        self.live = {}
        self.settled = {}
        corner_pos = {"SW": (xlo, ylo), "SE": (xhi, ylo), "NW": (xlo, yhi), "NE": (xhi, yhi)}
        for corner in CORNERS:
            cx, cy = corner_pos[corner]
            weights = [abs(x - cx) + abs(y - cy) for x, y, _ in tree.points]
            self.points[corner] = [
                WeightedPoint(x, y, w, payload) for (x, y, payload), w in zip(tree.points, weights)
            ]
            self.settled[corner] = view = tree.view(weights)
            self.live[corner] = [None] + [a[:] for a in view[1:]]

    def __len__(self):
        return self.live_count

    def remove(self, x, y, payload) -> None:
        """Take a vertex out of the live views."""
        i = self.tree.leaf_of.get((x, y, payload))
        if i is None or not self.alive[i]:
            raise DeleteMissing((x, y, payload))
        self.alive[i] = 0
        self.live_count -= 1
        self.tree.clear([self.live[corner] for corner in CORNERS], i)

    def nearest(self, rect, corner: str, open_sides=_CLOSED, settled: bool = False, skip=None):
        """Live vertex in rect nearest the given corner of rect (ties
        lexicographic), or None.  With settled=True, the pair (nearest vertex
        removed or not, nearest live vertex), both from one pass over rect's
        spans; ``skip``, an (x, y, payload) vertex, is then left out of the
        first answer only (a vertex the caller stands on), while the live
        answer still counts it."""
        tree = self.tree
        if settled:
            leaf = None if skip is None else tree.leaf_of[skip]
            keys = tree.mins((self.settled[corner], self.live[corner]), rect, open_sides, leaf)
            return tuple(tree.points_of(keys, self.points[corner]))
        keys = tree.mins((self.live[corner],), rect, open_sides)
        return tree.points_of(keys, self.points[corner])[0]

    def report(self, rect, open_sides=_CLOSED) -> List[WeightedPoint]:
        """All live vertices inside rect, in no particular order."""
        alive, pts = self.alive, self.points["SW"]
        return [pts[i] for i in self.tree.leaves(self.live["SW"], rect, open_sides) if alive[i]]
