"""Static and dynamic min-weight range queries used by the planners and the map.

Two structures:

* :class:`RectStabber` -- static set of weighted closed rectangles, query =
  minimum weight rectangle holding a point or meeting a closed horizontal
  segment, optionally restricted to weights strictly above a floor.  It
  answers every stop query of the stop oracle (whose open shadow windows it
  stores as closed integer rectangles) and the map's point location.
* :class:`CornerWeightedVertices` -- a fixed vertex set under deletion, query
  = vertex in a rectangle nearest one of its corners, among the live vertices
  or among all of them, the latter optionally leaving out one vertex.

Both keep their items as bits of Python ints: the stabber one prefix
bitset per distinct key of four sorted orders of its R rectangles, the
vertex lookup one per position of the x and of the y order in each of two
rank spaces (:class:`_RankSpace`) of its V points.  A query costs four
binary searches and a few big-int operations on R or V bits, a deletion
two such operations.  An order of N items keeps up to N + 1 prefixes, each
about as long as the highest rank it holds, so nearly N bits: up to about
N^2 / 8 bytes as CPython ints.
Weight ties break by payload id, which callers choose to make results
deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True, slots=True)
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


def _key_prefixes(keyed) -> Tuple[list, List[int]]:
    """Sorted distinct keys and their prefixes from (key, rank) pairs sorted
    by key: out[j] has the bits of the ranks whose key is at most the j-th
    distinct key (out[0] none), so out[bisect_right(keys, v)] holds those
    of key at most v."""
    keys: list = []
    out = [0]
    acc = 0
    for key, r in keyed:
        acc |= 1 << r
        if keys and keys[-1] == key:
            out[-1] = acc
        else:
            keys.append(key)
            out.append(acc)
    return keys, out


def _pick(bits, by_rank, start):
    """by_rank at the lowest set bit of bits, or None if there is none; with
    ``start`` given, at the lowest set bit of the highest group instead."""
    if not bits:
        return None
    g = 0 if start is None else start[bits.bit_length() - 1]
    bits >>= g
    return by_rank[(bits & -bits).bit_length() - 1 + g]


class RectStabber:
    """Minimum-weight closed rectangle holding a point or meeting a
    horizontal segment.

    Built once from :class:`WeightedRect` items.  The rectangles are ranked
    by (weight, payload), input order breaking the last ties, and each is
    one bit of a Python int.  Each of the four conditions ``xlo <= b``,
    ``xhi >= a``, ``ylo <= y`` and ``yhi >= y`` holds on a prefix of one
    sorted order of the rectangles, and a bisect_right of the bound always
    ends that prefix at the end of a run of equal keys; so each order keeps
    its sorted distinct keys and one prefix bitset per distinct key
    (:func:`_key_prefixes`).  A query ANDs the four prefixes and shifts out
    the ranks of weight up to the floor; the lowest set bit left is the
    answer.
    """

    __slots__ = ("rects", "weights", "keys", "prefixes")

    def __init__(self, rects):
        rects = sorted(rects, key=lambda r: (r.weight, r.payload))
        self.rects = rects
        self.weights = [r.weight for r in rects]
        self.keys = []
        self.prefixes = []
        # conditions xlo <= b, -xhi <= -a, ylo <= y and -yhi <= -y
        for key in (
            [r.xlo for r in rects],
            [-r.xhi for r in rects],
            [r.ylo for r in rects],
            [-r.yhi for r in rects],
        ):
            keys, prefixes = _key_prefixes(sorted(zip(key, range(len(rects)))))
            self.keys.append(keys)
            self.prefixes.append(prefixes)

    def query(self, q: Tuple[int, int], floor=None, b=None) -> Optional[WeightedRect]:
        """Minimum-weight stored rectangle (ties by payload) that meets the
        closed x range [q[0], b] at height q[1], by default the point q;
        with a floor, only rectangles of weight above it count."""
        a, y = q
        if b is None:
            b = a
        (kxlo, kxhi, kylo, kyhi), (pxlo, pxhi, pylo, pyhi) = self.keys, self.prefixes
        bits = (
            pxlo[bisect_right(kxlo, b)]
            & pxhi[bisect_right(kxhi, -a)]
            & pylo[bisect_right(kylo, y)]
            & pyhi[bisect_right(kyhi, -y)]
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
