"""Static and dynamic min-weight range queries used by the planners and the map.

Two structures:

* :class:`RectStabber` -- static set of weighted closed rectangles, query =
  minimum weight rectangle holding a point or meeting a closed horizontal
  segment, optionally restricted to weights strictly above a floor, and
  report = every rectangle meeting a closed box within a weight range.  It
  answers every stop query of the stop oracle (whose open shadow windows it
  stores as closed integer rectangles), the oracle's blocker query for
  witness hops, and the map's point location.
* :class:`CornerWeightedVertices` -- a fixed set of distinct points under
  deletion, query = the first point of a bitset of its points in a corner's
  order (for a rectangle's points, the one nearest that corner), among all
  of them and among the live ones, both from one pass, and report = every
  live point in a closed rectangle.  The bitsets are masks of the index's
  own: a closed rectangle's points, a rectangle's strict interior, and the
  points at or after a given one in a corner's order, which the narrowing
  sweep's lineages shrink their sets with.

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
    answer.  A closed box [a, b] x [c, d] meets a rectangle when ``xlo <=
    b``, ``xhi >= a``, ``ylo <= d`` and ``yhi >= c``: the same four orders
    at other bounds, so a report ANDs four prefixes too and keeps every set
    bit within its weight range.
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

    def report(self, box, wlo, whi) -> List[WeightedRect]:
        """Every stored rectangle that meets the closed box (xlo, xhi, ylo,
        yhi) and whose weight lies in [wlo, whi), in rank order.  The weight
        range is the run of ranks between two bisects of the weights."""
        skip = bisect_left(self.weights, wlo)
        n = bisect_left(self.weights, whi) - skip
        if n <= 0:
            return []
        xlo, xhi, ylo, yhi = box
        (kxlo, kxhi, kylo, kyhi), (pxlo, pxhi, pylo, pyhi) = self.keys, self.prefixes
        bits = (
            pxlo[bisect_right(kxlo, xhi)]
            & pxhi[bisect_right(kxhi, -xlo)]
            & pylo[bisect_right(kylo, yhi)]
            & pyhi[bisect_right(kyhi, -ylo)]
        ) >> skip & ((1 << n) - 1)
        rects = self.rects
        out = []
        while bits:
            low = bits & -bits
            out.append(rects[low.bit_length() - 1 + skip])
            bits ^= low
        return out


class _RankSpace:
    """A fixed point set ranked by (d, x, y) for one diagonal coordinate d,
    each point one bit of a Python int.

    ``xs`` and ``ys`` are the sorted distinct x and y coordinates and
    ``px[k]`` and ``py[k]`` the bits of the points whose x, or y, is at most
    the k-th of them (:func:`_key_prefixes`), so the points of a closed x
    range and a closed y range are two prefix differences ANDed.  ``live``
    holds the points not yet removed, ranks ``start[r]`` up to ``stop[r]``
    (exclusive) are those whose d equals rank r's, and ``by_rank[r]`` is the
    point of rank r.
    """

    __slots__ = ("rank", "start", "stop", "by_rank", "xs", "ys", "px", "py", "live")

    def __init__(self, diag, points, y_order):
        """diag[i]: d of points[i], the points in (x, y) order; y_order: the
        point numbers in (y, x) order."""
        n = len(points)
        order = sorted(range(n), key=diag.__getitem__)  # stable: ties by (x, y)
        self.rank = rank = [0] * n
        self.start = start = [0] * n
        self.stop = stop = [n] * n
        self.by_rank = [points[i] for i in order]
        for r, i in enumerate(order):
            rank[i] = r
            start[r] = start[r - 1] if r and diag[order[r - 1]] == diag[i] else r
        for r in range(n - 2, -1, -1):
            stop[r] = stop[r + 1] if start[r + 1] == start[r] else r + 1
        self.xs, self.px = _key_prefixes(zip([p[0] for p in points], rank))
        self.ys, self.py = _key_prefixes((points[i][1], rank[i]) for i in y_order)
        self.live = (1 << n) - 1


class CornerWeightedVertices:
    """Nearest vertex toward a corner of a closed query rectangle, over a
    fixed set of distinct (x, y) points under deletion.

    A vertex in the rectangle is nearest its SW corner when x + y is least,
    nearest NE when x + y is greatest, and nearest SE or NW when y - x is
    least or greatest.  So two :class:`_RankSpace` s, on x + y and on y - x,
    answer all four corners: a query takes a bitset of the corner's space,
    such as the rectangle's vertices (:meth:`region`), and picks its lowest
    set bit (SW, SE) or, for NE and NW, the lowest bit of the highest
    diagonal group present.  Either way the answer is least by (L1 distance
    to the corner, x, y).  Answers are the points themselves.
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

    def _mask(self, space, rect, strict=False) -> int:
        """Bits of space's vertices inside the closed rect, removed or not,
        or with strict set only those inside its open interior; none when
        the rect (or its interior) holds no point."""
        xlo, xhi, ylo, yhi = rect
        xs, ys = space.xs, space.ys
        if strict:
            a, b = bisect_right(xs, xlo), bisect_left(xs, xhi)
            c, d = bisect_right(ys, ylo), bisect_left(ys, yhi)
        else:
            a, b = bisect_left(xs, xlo), bisect_right(xs, xhi)
            c, d = bisect_left(ys, ylo), bisect_right(ys, yhi)
        if a >= b or c >= d:
            return 0
        return (space.px[b] ^ space.px[a]) & (space.py[d] ^ space.py[c])

    def _without(self, space, bits: int, p) -> int:
        """bits without the point p's bit; unchanged when p is no vertex."""
        i = self.index.get(p)
        return bits if i is None else bits & ~(1 << space.rank[i])

    def region(self, rect, corner: str, skip=None) -> int:
        """Bits, in the given corner's rank space, of the vertices inside the
        closed rect, removed or not, with the point ``skip`` left out."""
        space = self.corners[corner][0]
        return self._without(space, self._mask(space, rect), skip)

    def interior(self, rect, corner: str) -> int:
        """Bits, in the given corner's rank space, of the vertices strictly
        inside the rect; those on its boundary are left out."""
        return self._mask(self.corners[corner][0], rect, strict=True)

    def suffix(self, p, corner: str) -> int:
        """Bits, in the given corner's rank space, of the vertices at or
        after the vertex at point p in the corner's order: by L1 distance to
        the corner, then (x, y), the order in which :meth:`nearest` picks
        them.  For SW and SE that is every rank from p's on; for NE and NW,
        whose order takes the diagonal groups from the highest down, it is
        every lower group and the ranks from p's to the end of its own."""
        space, start = self.corners[corner]
        r = space.rank[self.index[p]]
        if start is None:
            return -1 << r
        return ((1 << start[r]) - 1) | ((1 << space.stop[r]) - 1) >> r << r

    def live(self, bits: int, corner: str, skip=None) -> int:
        """The live vertices of a bitset of the given corner's rank space,
        with the point ``skip`` left out."""
        space = self.corners[corner][0]
        return self._without(space, bits & space.live, skip)

    def nearest(self, bits: int, corner: str):
        """The pair (first vertex of a bitset of the given corner's rank
        space, such as :meth:`region` makes, removed or not; first live
        vertex there), first in the corner's order, or (None, None) when the
        bitset holds no live vertex."""
        space, start = self.corners[corner]
        lm = bits & space.live
        if not lm:
            return None, None
        return _pick(bits, space.by_rank, start), _pick(lm, space.by_rank, start)

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
