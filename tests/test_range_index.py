import itertools
import random
from fractions import Fraction

import pytest

from rectipath.geometry import ScaledScene
from rectipath.oracle import bench_scene
from rectipath.rangeindex import (
    CornerWeightedVertices,
    DeleteMissing,
    RectStabber,
)
from rectipath.stopindex import DIAGS


# ----- rectangle stabbing ---------------------------------------------------


def brute_stab(rects, q, floor=None, b=None):
    """Minimum (weight, payload) of the rows (weight, payload, xlo, xhi, ylo,
    yhi) whose closed rectangle holds q, or with b given meets the closed x
    range [q[0], b] at height q[1]."""
    if b is None:
        b = q[0]
    return min(
        (
            (w, p)
            for w, p, xlo, xhi, ylo, yhi in rects
            if (floor is None or w > floor) and xlo <= b and xhi >= q[0] and ylo <= q[1] <= yhi
        ),
        default=None,
    )


def test_rect_stab_basics():
    rects = [
        (5, 0, 0, 4, 0, 4),  # A
        (3, 1, 2, 6, 2, 6),  # B
    ]
    st = RectStabber(rects)
    assert st.query((3, 3))[1] == 1
    assert st.query((1, 1))[1] == 0
    assert st.query((7, 7)) is None
    assert st.query((3, 3), floor=3)[1] == 0  # weight must exceed the floor
    assert st.query((3, 3), floor=5) is None


def test_rect_stab_bounds_are_closed():
    st = RectStabber([(1, 0, 0, 4, 0, 4), (0, 1, 6, 6, 0, 9)])
    assert st.query((0, 2))[1] == 0
    assert st.query((2, 4))[1] == 0
    assert st.query((4, 0))[1] == 0
    assert st.query((2, 2))[1] == 0
    assert st.query((6, 5))[1] == 1  # a segment holds its own points
    assert st.query((-1, 2)) is None
    assert st.query((5, 2)) is None
    assert st.query((2, 5)) is None
    # a drag meets what it touches at either end
    assert st.query((-3, 2), b=0)[1] == 0
    assert st.query((5, 2), b=6)[1] == 1
    assert st.query((5, 2), b=5) is None
    assert st.query((4, 5), b=7)[1] == 1
    # a rectangle whose low bound passes its high one holds nothing
    st = RectStabber([(0, 0, 3, 2, 0, 4), (0, 1, 0, 4, 3, 2)])
    for x in range(-1, 6):
        for y in range(-1, 6):
            assert st.query((x, y)) is None
    assert st.query((2, 1), b=3)[1] == 0  # only a drag across the gap


def test_rect_stab_random_vs_linear():
    rng = random.Random(41)
    for rep in range(250):
        rects = []
        for i in range(rng.randrange(0, 24)):
            x1, x2 = sorted(rng.randrange(0, 30) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 30) for _ in range(2))
            rects.append((rng.randrange(0, 8), i, x1, x2, y1, y2))
        st = RectStabber(rects)
        for _ in range(20):
            if rects and rng.random() < 0.5:
                # on and beside the bounds, where open and closed differ
                r = rng.choice(rects)
                q = (
                    rng.choice(r[2:4]) + rng.choice((-1, 0, 1)),
                    rng.choice(r[4:6]) + rng.choice((-1, 0, 1)),
                )
            else:
                q = (rng.randrange(-2, 32), rng.randrange(-2, 32))
            floor = rng.choice([None, rng.randrange(0, 8)])
            assert st.query(q, floor) == brute_stab(rects, q, floor)
            # the closed x range [q[0], b], its far end on, beside or
            # between rectangle bounds
            if rects and rng.random() < 0.7:
                b = rng.choice(rects)[3] if rng.random() < 0.5 else rng.choice(rects)[2]
                b = max(q[0], b + rng.choice((-1, 0, 1)))
            else:
                b = q[0] + rng.randrange(0, 6)
            assert st.query(q, floor, b) == brute_stab(rects, q, floor, b), (q, b)


def test_rect_stab_shared_bounds_vs_linear():
    # Hundreds of rectangles on five coordinates per axis, so every key of
    # every order is shared by dozens of ranks and each prefix covers a
    # whole group; queries and drag ends sit on and beside the group keys.
    rng = random.Random(42)
    coords = (0, 5, 10, 15, 20)
    for rep in range(6):
        rects = []
        for i in range(rng.randrange(150, 300)):
            x1, x2 = sorted(rng.choice(coords) for _ in range(2))
            y1, y2 = sorted(rng.choice(coords) for _ in range(2))
            rects.append((rng.randrange(0, 40), rng.randrange(0, 100), x1, x2, y1, y2))
        st = RectStabber(rects)
        for keys, prefixes in zip(st.keys, st.prefixes):
            assert len(keys) <= len(coords) and len(prefixes) == len(keys) + 1
            assert prefixes[-1] == (1 << len(rects)) - 1
        for _ in range(400):
            a = rng.choice(coords) + rng.choice((-1, 0, 0, 1))
            b = max(a, rng.choice(coords) + rng.choice((-1, 0, 0, 1)))
            y = rng.choice(coords) + rng.choice((-1, 0, 0, 1))
            floor = rng.choice([None, rng.randrange(0, 40)])
            assert st.query((a, y), floor) == brute_stab(rects, (a, y), floor), (a, y)
            assert st.query((a, y), floor, b) == brute_stab(rects, (a, y), floor, b), (a, b, y)


def brute_report(rects, box, wlo, whi):
    """The payloads of the rows whose rectangle meets the closed box and
    whose weight is in [wlo, whi), by (weight, payload)."""
    xlo, xhi, ylo, yhi = box
    hits = sorted(
        (w, p) for w, p, rxlo, rxhi, rylo, ryhi in rects
        if wlo <= w < whi and rxlo <= xhi and rxhi >= xlo and rylo <= yhi and ryhi >= ylo
    )
    return [p for _w, p in hits]


def test_rect_report_vs_linear():
    # Weights drawn from a few values, so runs of tied weights share ranks
    # that the weight range must take or leave whole; box bounds and weight
    # bounds sit on, beside and between the rectangles' own, and some
    # rectangles are empty (low bound past high), as the stop oracle stores
    # a span or window of length 1.
    rng = random.Random(43)
    for rep in range(200):
        rects = []
        for i in range(rng.randrange(0, 40)):
            x1, x2 = sorted(rng.randrange(0, 20) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 20) for _ in range(2))
            if rng.random() < 0.1:
                x1, x2 = x1 + 1, x1
            rects.append((rng.randrange(0, 6), rng.randrange(0, 50), x1, x2, y1, y2))
        st = RectStabber(rects)

        def bound(axis):
            if rects and rng.random() < 0.7:
                r = rng.choice(rects)
                return rng.choice(r[2:4] if axis == 0 else r[4:6]) + rng.choice((-1, 0, 1))
            return rng.randrange(-2, 22)

        for _ in range(30):
            xlo, xhi = sorted((bound(0), bound(0)))
            ylo, yhi = sorted((bound(1), bound(1)))
            if rng.random() < 0.5:  # between bounds: a half-unit box
                xlo, xhi = xlo + Fraction(1, 2), xhi + Fraction(1, 2)
            wlo = rng.randrange(-1, 7)
            whi = wlo + rng.randrange(-1, 5)
            box = (xlo, xhi, ylo, yhi)
            got = st.report(box, wlo, whi)
            assert got == brute_report(rects, box, wlo, whi), (box, wlo, whi)


# ----- the map's point location ---------------------------------------------
#
# The map asks a stabber for the lower envelope of a class's closed cells at
# a point: the minimum (weight, payload) rectangle holding it, no floor, at
# integer or fractional coordinates.


def _envelope_matches(rects, points):
    st = RectStabber(rects)
    for q in points:
        assert st.query(q) == brute_stab(rects, q), q


def _near(rects):
    """Every rectangle corner and the points just beside it, integer and
    fractional."""
    h = Fraction(1, 3)
    out = set()
    for r in rects:
        for x in r[2:4]:
            for y in r[4:6]:
                for dx in (-1, -h, 0, h, 1):
                    for dy in (-1, -h, 0, h, 1):
                        out.add((x + dx, y + dy))
    return sorted(out)


def test_envelope_empty_and_degenerate():
    assert RectStabber([]).query((0, 0)) is None
    rects = [
        (1, 0, 3, 3, 3, 3),  # a point
        (2, 1, 0, 6, 5, 5),  # a horizontal segment
        (0, 2, 4, 4, 0, 9),  # a vertical segment
    ]
    st = RectStabber(rects)
    assert st.query((3, 3))[1] == 0
    assert st.query((4, 5))[1] == 2
    assert st.query((5, 5))[1] == 1
    assert st.query((3, Fraction(10, 3))) is None
    assert st.query((4, Fraction(1, 2)))[1] == 2
    _envelope_matches(rects, _near(rects))


def test_envelope_equal_weights_break_by_payload():
    rects = [(7, 5, 0, 4, 0, 4), (7, 3, 2, 6, 2, 6), (8, 0, 2, 2, 0, 9)]
    st = RectStabber(rects)
    assert st.query((3, 3))[1] == 3
    assert st.query((1, 1))[1] == 5
    assert st.query((2, 2))[1] == 3
    assert st.query((2, 8))[1] == 0
    _envelope_matches(rects, _near(rects))


def test_envelope_random_vs_linear():
    rng = random.Random(47)
    for rep in range(300):
        rects = []
        for i in range(rng.randrange(0, 30)):
            x1, x2 = sorted(rng.randrange(0, 25) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 25) for _ in range(2))
            rects.append((rng.randrange(0, 6), rng.randrange(0, 40), x1, x2, y1, y2))
        points = [(rng.randrange(-2, 27), rng.randrange(-2, 27)) for _ in range(20)]
        if rep % 10 == 0:
            points += _near(rects)
        _envelope_matches(rects, points)


# ----- corner-weighted vertex lookup ----------------------------------------


def _nearest(cw, rect, corner):
    return cw.nearest(cw.region(rect, corner), corner)[1]


def test_nearest_vertex_examples():
    cw = CornerWeightedVertices([(1, 1), (2, 5), (6, 2)])
    assert _nearest(cw, (0, 7, 0, 7), "SW") == (1, 1)
    assert _nearest(cw, (0, 7, 0, 7), "NE") == (6, 2)
    empty = CornerWeightedVertices([])
    assert _nearest(empty, (0, 7, 0, 7), "SW") is None


def test_nearest_vertex_tie_is_lexicographic():
    # (1,3) and (3,1) tie on SW distance; lexicographic (x, y) order decides.
    cw = CornerWeightedVertices([(3, 1), (1, 3)])
    assert _nearest(cw, (0, 9, 0, 9), "SW") == (1, 3)


def test_empty_or_inverted_rect_masks_nothing():
    # Every rect whose low bound passes its high bound on either axis, over
    # a grid of points and bounds on, between and beside them, masks no
    # vertex in either space, live or removed.
    pts = [(x, y) for x in range(0, 8, 2) for y in range(0, 8, 2)]
    cw = CornerWeightedVertices(pts)
    cw.remove((2, 2))
    for xlo, xhi, ylo, yhi in itertools.product(range(-1, 9), repeat=4):
        if xlo <= xhi and ylo <= yhi:
            continue
        rect = (xlo, xhi, ylo, yhi)
        assert cw._mask(cw.plus, rect) == cw._mask(cw.minus, rect) == 0, rect
        assert cw.report(rect) == []
        for corner in DIAGS:
            assert cw.nearest(cw.region(rect, corner, (2, 2)), corner) == (None, None)
    # a rect between the points holds none of them
    assert cw.report((3, 3, 0, 6)) == [] and cw.nearest(cw.region((1, 1, 1, 1), "SW"), "SW") == (None, None)


def test_nearest_vertex_translation_invariance():
    rng = random.Random(44)
    for rep in range(60):
        pts = sorted({(rng.randrange(0, 30), rng.randrange(0, 30)) for _ in range(10)})
        cw = CornerWeightedVertices(pts)
        dx, dy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        cw2 = CornerWeightedVertices([(x + dx, y + dy) for x, y in pts])
        for corner in ("SW", "SE", "NW", "NE"):
            r = (2, 20, 4, 27)
            a = _nearest(cw, r, corner)
            b = _nearest(cw2, (2 + dx, 20 + dx, 4 + dy, 27 + dy), corner)
            if a is None:
                assert b is None
            else:
                assert b == (a[0] + dx, a[1] + dy)


def test_nearest_vertex_brute_force():
    rng = random.Random(45)
    corner_of = {
        "SW": lambda r: (r[0], r[2]),
        "SE": lambda r: (r[1], r[2]),
        "NW": lambda r: (r[0], r[3]),
        "NE": lambda r: (r[1], r[3]),
    }
    for rep in range(150):
        pts = sorted({(rng.randrange(0, 30), rng.randrange(0, 30)) for _ in range(rng.randrange(1, 14))})
        cw = CornerWeightedVertices(pts)
        for corner in ("SW", "SE", "NW", "NE"):
            x1, x2 = sorted(rng.randrange(0, 31) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 31) for _ in range(2))
            got = _nearest(cw, (x1, x2, y1, y2), corner)
            cx, cy = corner_of[corner]((x1, x2, y1, y2))
            inside = [p for p in pts if x1 <= p[0] <= x2 and y1 <= p[1] <= y2]
            if not inside:
                assert got is None
            else:
                want = min(inside, key=lambda p: (abs(p[0] - cx) + abs(p[1] - cy), p))
                assert got == want


CLOSED = (False, False, False, False)


def _in_rect(p, rect, sides):
    (x, y), (xlo, xhi, ylo, yhi) = p, rect
    olx, ohx, oly, ohy = sides
    return (
        (xlo < x if olx else xlo <= x)
        and (x < xhi if ohx else x <= xhi)
        and (ylo < y if oly else ylo <= y)
        and (y < yhi if ohy else y <= yhi)
    )


def _closed(rect, sides):
    """The closed rect of the integers inside rect with the given sides
    open, as callers pass it; inverted when no integer is left."""
    (xlo, xhi, ylo, yhi), (olx, ohx, oly, ohy) = rect, sides
    return (xlo + olx, xhi - ohx, ylo + oly, yhi - ohy)


def test_index_under_removal_vs_linear_scan():
    # Hundreds of points on a small grid, so that many share a column or a
    # row, removed one by one while both answers for every corner of a
    # closed rect (and of its region bitset with one vertex left out) and
    # reports on the closed rects of every openness are checked.
    rng = random.Random(46)
    corner_of = {
        "SW": lambda r: (r[0], r[2]),
        "SE": lambda r: (r[1], r[2]),
        "NW": lambda r: (r[0], r[3]),
        "NE": lambda r: (r[1], r[3]),
    }
    all_sides = list(itertools.product((False, True), repeat=4))
    for _ in range(2):
        pts = sorted({(rng.randrange(0, 24), rng.randrange(0, 24)) for _ in range(320)})
        assert len(pts) >= 200
        cw = CornerWeightedVertices(pts)
        live = set(pts)
        order = list(pts)
        rng.shuffle(order)
        for step, gone in enumerate(order):
            x1, x2 = sorted(rng.randrange(-1, 25) for _ in range(2))
            y1, y2 = sorted(rng.randrange(-1, 25) for _ in range(2))
            rect = (x1, x2, y1, y2)
            for corner, at in corner_of.items():
                cx, cy = at(rect)

                def nearest(cands):
                    inside = [p for p in cands if _in_rect(p, rect, CLOSED)]
                    return min(inside, key=lambda p: (abs(p[0] - cx) + abs(p[1] - cy), p), default=None)

                want_live = nearest(live)
                # a region with no live vertex answers (None, None)
                want_all = nearest(pts) if want_live is not None else None
                assert cw.nearest(cw.region(rect, corner), corner) == (want_all, want_live)
                # one vertex left out of the region: mostly the one the
                # first answer would give, else any vertex, live or removed
                out = want_all if want_all is not None and rng.random() < 0.7 else rng.choice(pts)
                live_rest = nearest([p for p in live if p != out])
                want_rest = nearest([p for p in pts if p != out]) if live_rest is not None else None
                assert cw.nearest(cw.region(rect, corner, out), corner) == (want_rest, live_rest)
            if step % 8 == 0:
                for s in all_sides:
                    want_pts = sorted(p for p in live if _in_rect(p, rect, s))
                    assert sorted(cw.report(_closed(rect, s))) == want_pts
            cw.remove(gone)
            live.discard(gone)
            assert sorted(cw.report((-1, 25, -1, 25))) == sorted(live)
        with pytest.raises(DeleteMissing):
            cw.remove(gone)
        with pytest.raises(DeleteMissing):
            cw.remove((-5, -5))
        assert cw.nearest(cw.region((0, 23, 0, 23), "SW"), "SW") == (None, None)


_CORNER_AT = {
    "SW": lambda r: (r[0], r[2]),
    "SE": lambda r: (r[1], r[2]),
    "NW": lambda r: (r[0], r[3]),
    "NE": lambda r: (r[1], r[3]),
}


def _scan(pts, rect, corner):
    """The point in the closed rect least by (L1 distance to the corner, x,
    y), by a linear scan."""
    cx, cy = _CORNER_AT[corner](rect)
    inside = [p for p in pts if _in_rect(p, rect, CLOSED)]
    return min(inside, key=lambda p: (abs(p[0] - cx) + abs(p[1] - cy), p), default=None)


def test_nearest_vertex_ties_on_both_diagonals():
    # Three vertices on x + y = 4: a tie for SW and NE everywhere; each
    # corner takes the least (x, y) of its nearest line.
    small = CornerWeightedVertices([(1, 3), (3, 1), (2, 2)])
    box = (0, 4, 0, 4)
    assert [_nearest(small, box, c) for c in DIAGS] == [(1, 3), (1, 3), (3, 1), (1, 3)]
    small.remove((1, 3))
    assert [_nearest(small, box, c) for c in DIAGS] == [(2, 2), (2, 2), (3, 1), (2, 2)]
    small.remove((2, 2))
    assert _nearest(small, box, "NW") == _nearest(small, box, "NE") == (3, 1)
    assert small.nearest(small.region(box, "NE", (2, 2)), "NE") == ((1, 3), (3, 1))

    # Every point of a 5 x 5 grid: every x + y line is an SW/NE tie and
    # every y - x line an SE/NW tie, checked against a scan before and after
    # each removal, live or removed, with a vertex skipped.
    rng = random.Random(48)
    pts = [(x, y) for x in range(5) for y in range(5)]
    cw = CornerWeightedVertices(pts)
    live = list(pts)
    order = list(pts)
    rng.shuffle(order)
    for gone in order + [None]:
        for x1, x2, y1, y2 in itertools.product(range(5), repeat=4):
            if x1 > x2 or y1 > y2 or rng.random() < 0.8:
                continue
            rect = (x1, x2, y1, y2)
            for corner in DIAGS:
                want_all = _scan(pts, rect, corner)
                want_live = _scan(live, rect, corner)
                assert _nearest(cw, rect, corner) == want_live
                skip = want_all if want_all is not None and rng.random() < 0.5 else rng.choice(pts)
                want_rest = _scan([p for p in pts if p != skip], rect, corner)
                live_rest = _scan([p for p in live if p != skip], rect, corner)
                want = (want_rest if live_rest is not None else None, live_rest)
                assert cw.nearest(cw.region(rect, corner, skip), corner) == want
        if gone is not None:
            cw.remove(gone)
            live.remove(gone)


def test_vertex_index_on_a_bench_scene_vs_linear_scan():
    # The 800 vertices of bench_scene(1, 400), removed in random order,
    # under rects whose bounds sit on vertex coordinates: both answers for
    # every corner and a skipped vertex, and reports on the closed rects of
    # every openness checked every 16 removals.
    sc = ScaledScene(bench_scene(1, 400))
    pts = sorted({p for e in sc.edges for p in e.endpoints})
    cw = CornerWeightedVertices(pts)
    rng = random.Random(49)
    all_sides = list(itertools.product((False, True), repeat=4))
    live = set(pts)
    order = list(pts)
    rng.shuffle(order)
    for step, gone in enumerate(order):
        x1, x2 = sorted(rng.choice(pts)[0] for _ in range(2))
        y1, y2 = sorted(rng.choice(pts)[1] for _ in range(2))
        rect = (x1, x2, y1, y2)
        inside_all = [p for p in pts if _in_rect(p, rect, CLOSED)]
        inside_live = [p for p in inside_all if p in live]
        for corner in DIAGS:
            want_all = _scan(inside_all, rect, corner)
            want_live = _scan(inside_live, rect, corner)
            assert _nearest(cw, rect, corner) == want_live
            skip = want_all if want_all is not None and rng.random() < 0.7 else rng.choice(pts)
            want_rest = _scan([p for p in inside_all if p != skip], rect, corner)
            live_rest = _scan([p for p in inside_live if p != skip], rect, corner)
            want = (want_rest if live_rest is not None else None, live_rest)
            assert cw.nearest(cw.region(rect, corner, skip), corner) == want
        if step % 16 == 0:
            for sides in all_sides:
                want = sorted(p for p in live if _in_rect(p, rect, sides))
                assert sorted(cw.report(_closed(rect, sides))) == want
        cw.remove(gone)
        live.discard(gone)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    assert cw.report((min(xs), max(xs), min(ys), max(ys))) == []


# ----- the bitsets of a sweep lineage ---------------------------------------

# the order in which a corner's nearest-vertex query picks points: by L1
# distance to the corner (a diagonal coordinate), then (x, y)
_CORNER_ORDER = {
    "SW": lambda p: (p[0] + p[1], p),
    "NE": lambda p: (-p[0] - p[1], p),
    "SE": lambda p: (p[1] - p[0], p),
    "NW": lambda p: (p[0] - p[1], p),
}


def _points_of(cw, bits, corner):
    """The points of a bitset of the corner's rank space, in corner order."""
    by_rank = cw.corners[corner][0].by_rank
    pts = [p for r, p in enumerate(by_rank) if bits >> r & 1]
    return sorted(pts, key=_CORNER_ORDER[corner])


def _lineage_point_sets():
    rng = random.Random(50)
    # ties on one diagonal only: x + y = 6 for SW and NE, none for SE and NW
    yield [(x, 6 - x) for x in range(7)]
    yield [(x, 6 - x) for x in range(7)] + [(0, 0), (6, 6), (2, 1), (5, 3)]
    # ties on y - x = 1 only, for SE and NW
    yield [(x, x + 1) for x in range(6)] + [(3, 0), (0, 5)]
    # every line of a grid ties
    yield [(x, y) for x in range(5) for y in range(5)]
    for _ in range(6):
        yield sorted({(rng.randrange(0, 12), rng.randrange(0, 12)) for _ in range(40)})


def test_suffix_mask_is_the_corner_order_from_a_vertex():
    # For every corner and vertex, the suffix mask holds exactly the
    # vertices at or after it in a sorted list of the corner's order, and a
    # nearest-vertex query on a bitset so cut picks that vertex first.
    for pts in _lineage_point_sets():
        cw = CornerWeightedVertices(pts)
        for corner in DIAGS:
            order = sorted(pts, key=_CORNER_ORDER[corner])
            every = cw.region((-1, 99, -1, 99), corner)
            assert _points_of(cw, every, corner) == order
            for i, p in enumerate(order):
                suffix = cw.suffix(p, corner)
                assert _points_of(cw, every & suffix, corner) == order[i:], (corner, p)
                assert cw.nearest(every & suffix, corner) == (p, p)


def test_interior_mask_leaves_the_boundary_out():
    # Strict-interior masks of rects spanning, touching and missing the
    # points, degenerate ones included, against a scan, for all four corners.
    rng = random.Random(51)
    for pts in _lineage_point_sets():
        cw = CornerWeightedVertices(pts)
        xs = sorted({p[0] for p in pts}) + [-1, 99]
        ys = sorted({p[1] for p in pts}) + [-1, 99]
        for _ in range(60):
            x1, x2 = sorted(rng.choice(xs) + rng.choice((0, 0, 1)) for _ in range(2))
            y1, y2 = sorted(rng.choice(ys) + rng.choice((0, 0, 1)) for _ in range(2))
            rect = (x1, x2, y1, y2)
            inside = [p for p in pts if x1 < p[0] < x2 and y1 < p[1] < y2]
            closed = [p for p in pts if x1 <= p[0] <= x2 and y1 <= p[1] <= y2]
            for corner in DIAGS:
                key = _CORNER_ORDER[corner]
                assert _points_of(cw, cw.interior(rect, corner), corner) == sorted(inside, key=key)
                # a cut keeps the boundary: the closed rect minus the interior
                kept = cw.region(rect, corner) & ~cw.interior(rect, corner)
                want = sorted(set(closed) - set(inside), key=key)
                assert _points_of(cw, kept, corner) == want, (rect, corner)


def test_region_bitsets_under_removal():
    # A region bitset with a vertex left out, its live part (with another
    # vertex left out), and both picks of a nearest-vertex query on it,
    # against a scan as vertices go.
    rng = random.Random(52)
    pts = [(x, y) for x in range(6) for y in range(6)]
    cw = CornerWeightedVertices(pts)
    live = set(pts)
    order = list(pts)
    rng.shuffle(order)
    for gone in order:
        x1, x2 = sorted(rng.randrange(-1, 7) for _ in range(2))
        y1, y2 = sorted(rng.randrange(-1, 7) for _ in range(2))
        rect = (x1, x2, y1, y2)
        skip = rng.choice(pts)
        closed = [p for p in pts if x1 <= p[0] <= x2 and y1 <= p[1] <= y2 and p != skip]
        for corner in DIAGS:
            key = _CORNER_ORDER[corner]
            bits = cw.region(rect, corner, skip)
            assert _points_of(cw, bits, corner) == sorted(closed, key=key)
            live_in = sorted((p for p in closed if p in live), key=key)
            assert _points_of(cw, cw.live(bits, corner), corner) == live_in
            other = rng.choice(pts)
            assert _points_of(cw, cw.live(bits, corner, other), corner) == [p for p in live_in if p != other]
            want = (min(closed, key=key), live_in[0]) if live_in else (None, None)
            assert cw.nearest(bits, corner) == want
        cw.remove(gone)
        live.discard(gone)
