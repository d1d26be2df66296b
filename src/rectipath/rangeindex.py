"""Static and dynamic min-weight range queries used by the planners and the map.

Three structures:

* :class:`RectStabber` -- static set of weighted rectangles with open
  bounds, query = minimum weight rectangle whose interior meets a point or
  a closed horizontal segment, optionally restricted to weights strictly
  above a floor (every stop query of the stop oracle).
* :class:`RectEnvelope` -- minimum weight closed rectangle holding a point,
  with no floor, answered from the rectangles' lower envelope painted at
  build time (the map's point location).
* :class:`CornerWeightedVertices` -- a fixed vertex set under deletion, query
  = vertex in a rectangle nearest one of its corners, among the live vertices
  or among all of them, the latter optionally leaving out one vertex.

The envelope is a bottom-up segment tree over elementary x pieces whose
query walks from one leaf to the root with a binary search per node.  The
stabber and the vertex lookup keep their items as bits of Python ints
instead: the stabber one prefix bitset per position of four sorted orders
of its R rectangles, the vertex lookup one per position of the x and of
the y order in each of two rank spaces (:class:`_RankSpace`) of its V
points.  A query costs four binary searches and a few big-int operations
on R or V bits, a deletion two such operations.  An order of N items
keeps N + 1 prefixes, each about as long as the highest rank it holds, so
nearly N bits: about N^2 / 8 bytes as CPython ints.
Weight ties break by payload id, which callers choose to make results
deterministic.
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


@dataclass(frozen=True, slots=True)
class Vertex:
    x: int
    y: int
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


class RectEnvelope:
    """Minimum (weight, payload) closed rectangle containing a query point.

    A bottom-up segment tree over the elementary x pieces whose every node
    stores its rectangles' lower envelope along y.  The rectangles are
    ranked once by (weight, payload) and sent to their canonical nodes in
    rank order, so each node sees them sorted; a node then paints its y pieces, the first painter of a piece
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


# ---------------------------------------------------------------------------
# Rank bitsets
# ---------------------------------------------------------------------------
#
# A fixed item set is ranked once and each item is one bit of a Python int.
# A condition that holds on a prefix of some sorted order of the items is
# the prefix bitset at one bisect of that order, and conditions combine by
# AND.  Each big-int operation is word-parallel: CPython's int digits hold
# 30 bits, so it takes about N / 30 digit steps for N items.

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


class RectStabber:
    """Minimum-weight rectangle whose open interior meets a query.

    Built once from :class:`WeightedRect` items; bounds are open on both
    axes.  The rectangles are ranked by (weight, payload), input order
    breaking the last ties, and each is one bit of a Python int.  Each of
    the four conditions ``xlo < b``, ``xhi > a``, ``ylo < y`` and ``yhi >
    y`` holds on a prefix of one sorted order of the rectangles, so one
    prefix bitset per order (:func:`_prefixes`) gives its rectangles by one
    bisect.  A query ANDs the four prefixes and shifts out the ranks of
    weight up to the floor; the lowest set bit left is the answer.
    """

    __slots__ = ("rects", "weights", "keys", "prefixes")

    def __init__(self, rects):
        rects = sorted(rects, key=lambda r: (r.weight, r.payload))
        self.rects = rects
        self.weights = [r.weight for r in rects]
        self.keys = []
        self.prefixes = []
        # conditions xlo < b, -xhi < -a, ylo < y and -yhi < -y, each
        # holding on the first bisect_left(keys, bound) ranks of its order
        for key in (
            lambda r: r.xlo,
            lambda r: -r.xhi,
            lambda r: r.ylo,
            lambda r: -r.yhi,
        ):
            order = sorted(range(len(rects)), key=lambda k: key(rects[k]))
            self.keys.append([key(rects[k]) for k in order])
            self.prefixes.append(_prefixes(order))

    def query(self, q: Tuple[int, int], floor=None, b=None) -> Optional[WeightedRect]:
        """Minimum-weight stored rectangle (ties by payload) whose interior
        meets the closed x range [q[0], b] at height q[1], by default the
        point q; with a floor, only rectangles of weight above it count."""
        a, y = q
        if b is None:
            b = a
        (kxlo, kxhi, kylo, kyhi), (pxlo, pxhi, pylo, pyhi) = self.keys, self.prefixes
        bits = (
            pxlo[bisect_left(kxlo, b)]
            & pxhi[bisect_left(kxhi, -a)]
            & pylo[bisect_left(kylo, y)]
            & pyhi[bisect_left(kyhi, -y)]
        )
        skip = 0 if floor is None else bisect_right(self.weights, floor)
        bits >>= skip
        if not bits:
            return None
        return self.rects[(bits & -bits).bit_length() - 1 + skip]


class _RankSpace:
    """A fixed point set ranked by (d, x, y, payload) for one diagonal
    coordinate d, each point one bit of a Python int.

    ``px[k]`` holds the bits of the first k points in x order and ``py[k]``
    those of the first k in y order, so the points of an x range [a, b) and
    a y range [c, d) of those orders are ``(px[b] ^ px[a]) & (py[d] ^
    py[c])``.  ``live`` holds the points not yet removed, ``start[r]`` is
    the first rank whose d equals rank r's, and ``by_rank[r]`` is the point
    of rank r.
    """

    __slots__ = ("rank", "start", "by_rank", "px", "py", "live")

    def __init__(self, diag, y_order, points):
        """diag[i]: d of point i, points numbered in (x, y, payload) order;
        y_order: the point numbers in y order; points: the points."""
        n = len(diag)
        order = sorted(range(n), key=lambda i: (diag[i], i))
        self.rank = rank = [0] * n
        self.start = start = [0] * n
        self.by_rank = [points[i] for i in order]
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
    corner, x, y, payload).  Answers are :class:`Vertex` items.
    """

    def __init__(self, vertices):
        pts = sorted((x, y, payload) for (x, y), payload in vertices)
        self.index = {p: i for i, p in enumerate(pts)}
        self.xs = [p[0] for p in pts]
        y_order = sorted(range(len(pts)), key=lambda i: (pts[i][1], i))
        self.ys = [pts[i][1] for i in y_order]
        points = [Vertex(*p) for p in pts]
        self.plus = _RankSpace([x + y for x, y, _ in pts], y_order, points)
        self.minus = _RankSpace([y - x for x, y, _ in pts], y_order, points)
        self.corners = {  # corner -> (space, space.start or None)
            "SW": (self.plus, None),
            "NE": (self.plus, self.plus.start),
            "SE": (self.minus, None),
            "NW": (self.minus, self.minus.start),
        }

    def remove(self, x, y, payload) -> None:
        """Take a vertex out of the live set."""
        i = self.index.get((x, y, payload))
        if i is None or not self.plus.live >> self.plus.rank[i] & 1:
            raise DeleteMissing((x, y, payload))
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
        space, start = self.corners[corner]
        m = self._mask(space, rect, open_sides)
        live = _pick(m & space.live, space.by_rank, start)
        if not settled:
            return live
        if skip is not None:
            m &= ~(1 << space.rank[self.index[skip]])
        return _pick(m, space.by_rank, start), live

    def report(self, rect, open_sides=_CLOSED) -> List[Vertex]:
        """All live vertices inside rect, in no particular order."""
        m = self._mask(self.plus, rect, open_sides) & self.plus.live
        by_rank = self.plus.by_rank
        out = []
        while m:
            low = m & -m
            out.append(by_rank[low.bit_length() - 1])
            m ^= low
        return out
