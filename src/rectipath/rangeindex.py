"""Static and dynamic min-weight range queries used by the planners and the map.

Two structures:

* :class:`RectStabber` -- static set of weighted closed rectangles, query =
  minimum weight rectangle holding a point or meeting a closed horizontal
  segment, optionally restricted to weights strictly above a floor.  It
  answers every stop query of the stop oracle (whose open shadow windows it
  stores as closed integer rectangles) and the map's point location.
* :class:`CornerWeightedVertices` -- a fixed set of distinct points under
  deletion, query = the point in a closed rectangle nearest one of its
  corners, among all of them (optionally leaving one out) and among the
  live ones, both from one pass.

Both keep their items as bits of Python ints and one prefix bitset per
distinct key of each sorted order they bisect: the stabber four orders of
its R rectangles, the vertex lookup the x and the y order in each of two
rank spaces (:class:`_RankSpace`) of its V points.  A query costs four
binary searches and a few big-int operations on R or V bits, a deletion
two such operations.  An order of N items with K distinct keys keeps K + 1
prefixes, each about as long as the highest rank it holds, so up to about
K * N / 8 bytes as CPython ints.  The stabber breaks weight ties by payload
id, which callers choose to make results deterministic.
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

CORNERS = ("SW", "SE", "NW", "NE")


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
    """A fixed point set ranked by (d, x, y) for one diagonal coordinate d,
    each point one bit of a Python int.

    ``xs`` and ``ys`` are the sorted distinct x and y coordinates and
    ``px[k]`` and ``py[k]`` the bits of the points whose x, or y, is at most
    the k-th of them (:func:`_key_prefixes`), so the points of a closed x
    range and a closed y range are two prefix differences ANDed.  ``live``
    holds the points not yet removed, ``start[r]`` is the first rank whose d
    equals rank r's, and ``by_rank[r]`` is the point of rank r.
    """

    __slots__ = ("rank", "start", "by_rank", "xs", "ys", "px", "py", "live")

    def __init__(self, diag, points, y_order):
        """diag[i]: d of points[i], the points in (x, y) order; y_order: the
        point numbers in (y, x) order."""
        n = len(points)
        order = sorted(range(n), key=diag.__getitem__)  # stable: ties by (x, y)
        self.rank = rank = [0] * n
        self.start = start = [0] * n
        self.by_rank = [points[i] for i in order]
        for r, i in enumerate(order):
            rank[i] = r
            start[r] = start[r - 1] if r and diag[order[r - 1]] == diag[i] else r
        self.xs, self.px = _key_prefixes(zip([p[0] for p in points], rank))
        self.ys, self.py = _key_prefixes((points[i][1], rank[i]) for i in y_order)
        self.live = (1 << n) - 1


class CornerWeightedVertices:
    """Nearest vertex toward a corner of a closed query rectangle, over a
    fixed set of distinct (x, y) points under deletion.

    A vertex in the rectangle is nearest its SW corner when x + y is least,
    nearest NE when x + y is greatest, and nearest SE or NW when y - x is
    least or greatest.  So two :class:`_RankSpace` s, on x + y and on y - x,
    answer all four corners: a query masks the rectangle's vertices in the
    corner's space and takes the lowest set bit (SW, SE) or, for NE and NW,
    the lowest bit of the highest diagonal group present.  Either way the
    answer is least by (L1 distance to the corner, x, y).  Answers are the
    points themselves.
    """

    def __init__(self, points):
        pts = sorted(set(points))
        self.index = {p: i for i, p in enumerate(pts)}
        y_order = sorted(range(len(pts)), key=lambda i: pts[i][1])  # stable: ties by x
        self.plus = _RankSpace([x + y for x, y in pts], pts, y_order)
        self.minus = _RankSpace([y - x for x, y in pts], pts, y_order)
        self.corners = {  # corner -> (space, space.start or None)
            "SW": (self.plus, None),
            "NE": (self.plus, self.plus.start),
            "SE": (self.minus, None),
            "NW": (self.minus, self.minus.start),
        }

    def remove(self, p) -> None:
        """Take the vertex at point p out of the live set."""
        i = self.index.get(p)
        if i is None or not self.plus.live >> self.plus.rank[i] & 1:
            raise DeleteMissing(p)
        for space in (self.plus, self.minus):
            space.live &= ~(1 << space.rank[i])

    def _mask(self, space, rect) -> int:
        """Bits of space's vertices inside the closed rect, removed or not;
        none when the rect is empty or inverted."""
        xlo, xhi, ylo, yhi = rect
        xs, ys = space.xs, space.ys
        a, b = bisect_left(xs, xlo), bisect_right(xs, xhi)
        c, d = bisect_left(ys, ylo), bisect_right(ys, yhi)
        if a >= b or c >= d:
            return 0
        return (space.px[b] ^ space.px[a]) & (space.py[d] ^ space.py[c])

    def nearest(self, rect, corner: str, skip=None):
        """The pair (vertex in the closed rect nearest the given corner,
        removed or not; nearest live vertex there), from one mask, or
        (None, None) when rect holds no live vertex.  The point ``skip`` is
        left out of the first answer only (a vertex the caller stands on);
        the live answer still counts it."""
        space, start = self.corners[corner]
        m = self._mask(space, rect)
        lm = m & space.live
        if not lm:
            return None, None
        i = self.index.get(skip)
        if i is not None:
            m &= ~(1 << space.rank[i])
        return _pick(m, space.by_rank, start), _pick(lm, space.by_rank, start)

    def report(self, rect) -> List[Tuple[int, int]]:
        """All live vertices inside the closed rect, in no particular order."""
        m = self._mask(self.plus, rect) & self.plus.live
        by_rank = self.plus.by_rank
        out = []
        while m:
            low = m & -m
            out.append(by_rank[low.bit_length() - 1])
            m ^= low
        return out
