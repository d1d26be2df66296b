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

The stabbing structures and the envelope are built from sorted arrays and
segment trees over elementary pieces, each a bottom-up tree whose query
walks from one leaf to the root with a binary search per node.  The vertex
lookup instead keeps its V points as bits of Python ints, one prefix bitset
per position of the x and of the y order in each of two rank spaces
(:class:`_RankSpace`).  A query costs four binary searches and a few
big-int operations on V bits, a deletion two such operations; each is
word-parallel (CPython's int digits hold 30 bits, so about V / 30 digit
steps).  The bitsets take about V^2 / 2 bytes.  Weight ties break by payload id, which callers choose to
make results deterministic.
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
# Corner-weighted vertex lookup
# ---------------------------------------------------------------------------

_CLOSED = (False, False, False, False)
CORNERS = ("SW", "SE", "NW", "NE")


def _prefixes(ranks) -> List[int]:
    """out[k] has bit r set for each of the first k ranks."""
    out = [0]
    acc = 0
    for r in ranks:
        acc |= 1 << r
        out.append(acc)
    return out


def _pick(bits, by_rank, start):
    """by_rank at the lowest set bit of bits, or None if there is none; with
    ``start`` given, at the lowest set bit of the highest group instead."""
    if not bits:
        return None
    g = 0 if start is None else start[bits.bit_length() - 1]
    bits >>= g
    return by_rank[(bits & -bits).bit_length() - 1 + g]


class _RankSpace:
    """A fixed point set ranked by (d, x, y, payload) for one diagonal
    coordinate d, each point one bit of a Python int.

    ``px[k]`` holds the bits of the first k points in x order and ``py[k]``
    those of the first k in y order, so the points of an x range [a, b) and
    a y range [c, d) of those orders are ``(px[b] ^ px[a]) & (py[d] ^
    py[c])``.  ``live`` holds the points not yet removed, and ``start[r]``
    is the first rank whose d equals rank r's.
    """

    __slots__ = ("rank", "start", "px", "py", "live")

    def __init__(self, diag, y_order):
        """diag[i]: d of point i, points numbered in (x, y, payload) order;
        y_order: the point numbers in y order."""
        n = len(diag)
        order = sorted(range(n), key=lambda i: (diag[i], i))
        self.rank = rank = [0] * n
        self.start = start = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
            start[r] = start[r - 1] if r and diag[order[r - 1]] == diag[i] else r
        self.px = _prefixes(rank)
        self.py = _prefixes(rank[i] for i in y_order)
        self.live = (1 << n) - 1


class CornerWeightedVertices:
    """Nearest vertex toward a corner of a query rectangle, over a fixed
    vertex set under deletion.

    A vertex in the rectangle is nearest its SW corner when x + y is least,
    nearest NE when x + y is greatest, and nearest SE or NW when y - x is
    least or greatest.  So two :class:`_RankSpace` s, on x + y and on y - x,
    answer all four corners: a query masks the rectangle's vertices in the
    corner's space, with the live bits or without, and takes the lowest set
    bit (SW, SE) or, for NE and NW, the lowest bit of the highest diagonal
    group present.  Either way the answer is least by (L1 distance to the
    corner, x, y, payload).  Each vertex reports its weight as its L1
    distance to the matching corner of ``bbox``, which holds every vertex.
    """

    def __init__(self, bbox, vertices):
        xlo, xhi, ylo, yhi = bbox
        self.bbox = bbox
        pts = sorted((x, y, payload) for (x, y), payload in vertices)
        self.index = {p: i for i, p in enumerate(pts)}
        self.live_count = len(pts)
        self.xs = [p[0] for p in pts]
        y_order = sorted(range(len(pts)), key=lambda i: (pts[i][1], i))
        self.ys = [pts[i][1] for i in y_order]
        self.plus = _RankSpace([x + y for x, y, _ in pts], y_order)
        self.minus = _RankSpace([y - x for x, y, _ in pts], y_order)
        corner_pos = {"SW": (xlo, ylo), "SE": (xhi, ylo), "NW": (xlo, yhi), "NE": (xhi, yhi)}
        self.corners = {}  # corner -> (space, WeightedPoint per rank, space.start or None)
        for corner in CORNERS:
            space = self.plus if corner in ("SW", "NE") else self.minus
            cx, cy = corner_pos[corner]
            by_rank: List[Optional[WeightedPoint]] = [None] * len(pts)
            for (x, y, payload), r in zip(pts, space.rank):
                by_rank[r] = WeightedPoint(x, y, abs(x - cx) + abs(y - cy), payload)
            self.corners[corner] = (space, by_rank, space.start if corner in ("NE", "NW") else None)

    def __len__(self):
        return self.live_count

    def remove(self, x, y, payload) -> None:
        """Take a vertex out of the live set."""
        i = self.index.get((x, y, payload))
        if i is None or not self.plus.live >> self.plus.rank[i] & 1:
            raise DeleteMissing((x, y, payload))
        self.live_count -= 1
        for space in (self.plus, self.minus):
            space.live &= ~(1 << space.rank[i])

    def _mask(self, space, rect, open_sides) -> int:
        """Bits of space's vertices inside rect, removed or not."""
        xlo, xhi, ylo, yhi = rect
        olx, ohx, oly, ohy = open_sides
        xs, ys = self.xs, self.ys
        a = bisect_right(xs, xlo) if olx else bisect_left(xs, xlo)
        b = bisect_left(xs, xhi) if ohx else bisect_right(xs, xhi)
        c = bisect_right(ys, ylo) if oly else bisect_left(ys, ylo)
        d = bisect_left(ys, yhi) if ohy else bisect_right(ys, yhi)
        if a >= b or c >= d:
            return 0
        return (space.px[b] ^ space.px[a]) & (space.py[d] ^ space.py[c])

    def nearest(self, rect, corner: str, open_sides=_CLOSED, settled: bool = False, skip=None):
        """Live vertex in rect nearest the given corner of rect (ties
        lexicographic), or None.  With settled=True, the pair (nearest vertex
        removed or not, nearest live vertex), from one mask; ``skip``, an
        (x, y, payload) vertex, is then left out of the first answer only (a
        vertex the caller stands on), while the live answer still counts it."""
        space, by_rank, start = self.corners[corner]
        m = self._mask(space, rect, open_sides)
        live = _pick(m & space.live, by_rank, start)
        if not settled:
            return live
        if skip is not None:
            m &= ~(1 << space.rank[self.index[skip]])
        return _pick(m, by_rank, start), live

    def report(self, rect, open_sides=_CLOSED) -> List[WeightedPoint]:
        """All live vertices inside rect, in no particular order."""
        m = self._mask(self.plus, rect, open_sides) & self.plus.live
        by_rank = self.corners["SW"][1]
        out = []
        while m:
            low = m & -m
            out.append(by_rank[low.bit_length() - 1])
            m ^= low
        return out
