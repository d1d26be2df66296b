import itertools
import random
from fractions import Fraction

import pytest

from rectipath.geometry import ScaledScene
from rectipath.oracle import bench_scene
from rectipath.rangeindex import (
    CORNERS,
    CornerWeightedVertices,
    DeleteMissing,
    RectStabber,
    WeightedRect,
)


# ----- rectangle stabbing ---------------------------------------------------


def brute_stab(rects, q, floor=None, b=None):
    """Minimum (weight, payload) closed rectangle holding q, or with b given
    meeting the closed x range [q[0], b] at height q[1]."""
    best = None
    if b is None:
        b = q[0]
    for r in rects:
        if floor is not None and r.weight <= floor:
            continue
        if r.xlo <= b and r.xhi >= q[0] and r.ylo <= q[1] <= r.yhi:
            if best is None or (r.weight, r.payload) < (best.weight, best.payload):
                best = r
    return best


def _key(r):
    return None if r is None else (r.weight, r.payload)


def test_rect_stab_basics():
    rects = [
        WeightedRect(0, 4, 0, 4, 5, 0),  # A
        WeightedRect(2, 6, 2, 6, 3, 1),  # B
    ]
    st = RectStabber(rects)
    assert st.query((3, 3)).payload == 1
    assert st.query((1, 1)).payload == 0
    assert st.query((7, 7)) is None
    assert st.query((3, 3), floor=3).payload == 0  # weight must exceed the floor
    assert st.query((3, 3), floor=5) is None


def test_rect_stab_bounds_are_closed():
    st = RectStabber([WeightedRect(0, 4, 0, 4, 1, 0), WeightedRect(6, 6, 0, 9, 0, 1)])
    assert st.query((0, 2)).payload == 0
    assert st.query((2, 4)).payload == 0
    assert st.query((4, 0)).payload == 0
    assert st.query((2, 2)).payload == 0
    assert st.query((6, 5)).payload == 1  # a segment holds its own points
    assert st.query((-1, 2)) is None
    assert st.query((5, 2)) is None
    assert st.query((2, 5)) is None
    # a drag meets what it touches at either end
    assert st.query((-3, 2), b=0).payload == 0
    assert st.query((5, 2), b=6).payload == 1
    assert st.query((5, 2), b=5) is None
    assert st.query((4, 5), b=7).payload == 1
    # a rectangle whose low bound passes its high one holds nothing
    st = RectStabber([WeightedRect(3, 2, 0, 4, 0, 0), WeightedRect(0, 4, 3, 2, 0, 1)])
    for x in range(-1, 6):
        for y in range(-1, 6):
            assert st.query((x, y)) is None
    assert st.query((2, 1), b=3).payload == 0  # only a drag across the gap


def test_rect_stab_random_vs_linear():
    rng = random.Random(41)
    for rep in range(250):
        rects = []
        for i in range(rng.randrange(0, 24)):
            x1, x2 = sorted(rng.randrange(0, 30) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 30) for _ in range(2))
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 8), i))
        st = RectStabber(rects)
        for _ in range(20):
            if rects and rng.random() < 0.5:
                # on and beside the bounds, where open and closed differ
                r = rng.choice(rects)
                q = (
                    rng.choice((r.xlo, r.xhi)) + rng.choice((-1, 0, 1)),
                    rng.choice((r.ylo, r.yhi)) + rng.choice((-1, 0, 1)),
                )
            else:
                q = (rng.randrange(-2, 32), rng.randrange(-2, 32))
            floor = rng.choice([None, rng.randrange(0, 8)])
            assert _key(st.query(q, floor)) == _key(brute_stab(rects, q, floor))
            # the closed x range [q[0], b], its far end on, beside or
            # between rectangle bounds
            if rects and rng.random() < 0.7:
                b = rng.choice(rects).xhi if rng.random() < 0.5 else rng.choice(rects).xlo
                b = max(q[0], b + rng.choice((-1, 0, 1)))
            else:
                b = q[0] + rng.randrange(0, 6)
            assert _key(st.query(q, floor, b)) == _key(brute_stab(rects, q, floor, b)), (q, b)


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
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 40), rng.randrange(0, 100)))
        st = RectStabber(rects)
        for keys, prefixes in zip(st.keys, st.prefixes):
            assert len(keys) <= len(coords) and len(prefixes) == len(keys) + 1
            assert prefixes[-1] == (1 << len(rects)) - 1
        for _ in range(400):
            a = rng.choice(coords) + rng.choice((-1, 0, 0, 1))
            b = max(a, rng.choice(coords) + rng.choice((-1, 0, 0, 1)))
            y = rng.choice(coords) + rng.choice((-1, 0, 0, 1))
            floor = rng.choice([None, rng.randrange(0, 40)])
            assert _key(st.query((a, y), floor)) == _key(brute_stab(rects, (a, y), floor)), (a, y)
            assert _key(st.query((a, y), floor, b)) == _key(brute_stab(rects, (a, y), floor, b)), (a, b, y)


# ----- the map's point location ---------------------------------------------
#
# The map asks a stabber for the lower envelope of a class's closed cells at
# a point: the minimum (weight, payload) rectangle holding it, no floor, at
# integer or fractional coordinates.


def _envelope_matches(rects, points):
    st = RectStabber(rects)
    for q in points:
        assert _key(st.query(q)) == _key(brute_stab(rects, q)), q


def _near(rects):
    """Every rectangle corner and the points just beside it, integer and
    fractional."""
    h = Fraction(1, 3)
    out = set()
    for r in rects:
        for x in (r.xlo, r.xhi):
            for y in (r.ylo, r.yhi):
                for dx in (-1, -h, 0, h, 1):
                    for dy in (-1, -h, 0, h, 1):
                        out.add((x + dx, y + dy))
    return sorted(out)


def test_envelope_empty_and_degenerate():
    assert RectStabber([]).query((0, 0)) is None
    rects = [
        WeightedRect(3, 3, 3, 3, 1, 0),  # a point
        WeightedRect(0, 6, 5, 5, 2, 1),  # a horizontal segment
        WeightedRect(4, 4, 0, 9, 0, 2),  # a vertical segment
    ]
    st = RectStabber(rects)
    assert st.query((3, 3)).payload == 0
    assert st.query((4, 5)).payload == 2
    assert st.query((5, 5)).payload == 1
    assert st.query((3, Fraction(10, 3))) is None
    assert st.query((4, Fraction(1, 2))).payload == 2
    _envelope_matches(rects, _near(rects))


def test_envelope_equal_weights_break_by_payload():
    rects = [WeightedRect(0, 4, 0, 4, 7, 5), WeightedRect(2, 6, 2, 6, 7, 3), WeightedRect(2, 2, 0, 9, 8, 0)]
    st = RectStabber(rects)
    assert st.query((3, 3)).payload == 3
    assert st.query((1, 1)).payload == 5
    assert st.query((2, 2)).payload == 3
    assert st.query((2, 8)).payload == 0
    _envelope_matches(rects, _near(rects))


def test_envelope_random_vs_linear():
    rng = random.Random(47)
    for rep in range(300):
        rects = []
        for i in range(rng.randrange(0, 30)):
            x1, x2 = sorted(rng.randrange(0, 25) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 25) for _ in range(2))
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 6), rng.randrange(0, 40)))
        points = [(rng.randrange(-2, 27), rng.randrange(-2, 27)) for _ in range(20)]
        if rep % 10 == 0:
            points += _near(rects)
        _envelope_matches(rects, points)


# ----- corner-weighted vertex lookup ----------------------------------------


def _nearest(cw, rect, corner):
    hit = cw.nearest(rect, corner)
    return None if hit is None else (hit.x, hit.y)


def test_nearest_vertex_examples():
    verts = [((1, 1), 0), ((2, 5), 1), ((6, 2), 2)]
    cw = CornerWeightedVertices(verts)
    assert _nearest(cw, (0, 7, 0, 7), "SW") == (1, 1)
    assert _nearest(cw, (0, 7, 0, 7), "NE") == (6, 2)
    empty = CornerWeightedVertices([])
    assert _nearest(empty, (0, 7, 0, 7), "SW") is None


def test_nearest_vertex_tie_is_lexicographic():
    # (1,3) and (3,1) tie on SW distance; lexicographic (x, y) order decides,
    # provided payloads follow that order.
    verts = [((1, 3), 0), ((3, 1), 1)]
    cw = CornerWeightedVertices(verts)
    assert _nearest(cw, (0, 9, 0, 9), "SW") == (1, 3)


def test_nearest_vertex_translation_invariance():
    rng = random.Random(44)
    for rep in range(60):
        pts = sorted({(rng.randrange(0, 30), rng.randrange(0, 30)) for _ in range(10)})
        verts = [(p, i) for i, p in enumerate(pts)]
        cw = CornerWeightedVertices(verts)
        dx, dy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        shifted = [((x + dx, y + dy), i) for (x, y), i in verts]
        cw2 = CornerWeightedVertices(shifted)
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
        cw = CornerWeightedVertices([(p, i) for i, p in enumerate(pts)])
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


def _in_rect(p, rect, sides):
    (x, y), (xlo, xhi, ylo, yhi) = p, rect
    olx, ohx, oly, ohy = sides
    return (
        (xlo < x if olx else xlo <= x)
        and (x < xhi if ohx else x <= xhi)
        and (ylo < y if oly else ylo <= y)
        and (y < yhi if ohy else y <= yhi)
    )


def test_index_under_removal_vs_linear_scan():
    # Hundreds of points on a small grid, so that many share a column or a
    # row, removed one by one while both views of every corner (with and
    # without a vertex left out of the settled one) and reports under every
    # openness are checked.
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
        payload = {p: i for i, p in enumerate(pts)}
        cw = CornerWeightedVertices(list(payload.items()))
        live = set(pts)
        order = list(pts)
        rng.shuffle(order)
        for step, gone in enumerate(order):
            x1, x2 = sorted(rng.randrange(-1, 25) for _ in range(2))
            y1, y2 = sorted(rng.randrange(-1, 25) for _ in range(2))
            rect = (x1, x2, y1, y2)
            sides = rng.choice(all_sides)
            for corner, at in corner_of.items():
                cx, cy = at(rect)

                def nearest(cands):
                    inside = [p for p in cands if _in_rect(p, rect, sides)]
                    return min(inside, key=lambda p: (abs(p[0] - cx) + abs(p[1] - cy), p), default=None)

                want_all, want_live = nearest(pts), nearest(live)
                got_all, got_live = cw.nearest(rect, corner, sides, settled=True)
                assert (None if got_all is None else (got_all.x, got_all.y)) == want_all
                assert (None if got_live is None else (got_live.x, got_live.y)) == want_live
                hit = cw.nearest(rect, corner, sides)
                assert (None if hit is None else (hit.x, hit.y)) == want_live
                # one vertex left out of the settled answer only: mostly the
                # one it would give, else any vertex, live or removed
                out = want_all if want_all is not None and rng.random() < 0.7 else rng.choice(pts)
                got_all, got_live = cw.nearest(rect, corner, sides, settled=True, skip=(out[0], out[1], payload[out]))
                want_rest = nearest([p for p in pts if p != out])
                assert (None if got_all is None else (got_all.x, got_all.y)) == want_rest
                assert (None if got_live is None else (got_live.x, got_live.y)) == want_live
            if step % 8 == 0:
                for s in all_sides:
                    want_pts = sorted(p for p in live if _in_rect(p, rect, s))
                    assert sorted((p.x, p.y) for p in cw.report(rect, s)) == want_pts
            cw.remove(gone[0], gone[1], payload[gone])
            live.discard(gone)
            assert sorted((p.x, p.y) for p in cw.report((-1, 25, -1, 25))) == sorted(live)
        with pytest.raises(DeleteMissing):
            cw.remove(gone[0], gone[1], payload[gone])
        assert cw.nearest((0, 23, 0, 23), "SW") is None
        assert cw.nearest((0, 23, 0, 23), "SW", settled=True)[0] is not None


_CORNER_AT = {
    "SW": lambda r: (r[0], r[2]),
    "SE": lambda r: (r[1], r[2]),
    "NW": lambda r: (r[0], r[3]),
    "NE": lambda r: (r[1], r[3]),
}


def _scan(verts, rect, sides, corner):
    """(x, y, payload) of the vertex in rect least by (L1 distance to the
    corner, x, y, payload), by a linear scan of (x, y, payload) triples."""
    cx, cy = _CORNER_AT[corner](rect)
    inside = [v for v in verts if _in_rect(v[:2], rect, sides)]
    return min(inside, key=lambda v: (abs(v[0] - cx) + abs(v[1] - cy), v), default=None)


def _triple(hit):
    return None if hit is None else (hit.x, hit.y, hit.payload)


def test_nearest_vertex_ties_on_both_diagonals():
    # Four vertices on x + y = 4, two of them at (2, 2): a tie for SW and NE
    # everywhere and for NW at (2, 2); each corner takes the least (x, y,
    # payload) of its nearest line.
    small = CornerWeightedVertices([((1, 3), 9), ((3, 1), 2), ((2, 2), 7), ((2, 2), 4)])
    box = (0, 4, 0, 4)
    assert [_triple(small.nearest(box, c)) for c in CORNERS] == [(1, 3, 9), (3, 1, 2), (1, 3, 9), (1, 3, 9)]
    small.remove(1, 3, 9)
    assert [_triple(small.nearest(box, c)) for c in CORNERS] == [(2, 2, 4), (3, 1, 2), (2, 2, 4), (2, 2, 4)]
    small.remove(2, 2, 4)
    assert _triple(small.nearest(box, "NW")) == _triple(small.nearest(box, "NE")) == (2, 2, 7)
    got = small.nearest(box, "NE", settled=True, skip=(2, 2, 7))
    assert [_triple(h) for h in got] == [(1, 3, 9), (2, 2, 7)]

    # Every point of a 5 x 5 grid, five of them twice under a second
    # payload, with payloads in no coordinate order: every x + y line is an
    # SW/NE tie and every y - x line an SE/NW tie, checked against a scan
    # before and after each removal, live or settled, with a vertex skipped.
    rng = random.Random(48)
    triples = [(x, y, 0) for x in range(5) for y in range(5)]
    triples += [(x, y, 1) for x, y in ((2, 2), (1, 3), (3, 1), (0, 4), (4, 4))]
    payloads = list(range(len(triples)))
    rng.shuffle(payloads)
    verts = [(x, y, p * 2 + dup) for (x, y, dup), p in zip(triples, payloads)]
    cw = CornerWeightedVertices([((x, y), p) for x, y, p in verts])
    live = list(verts)
    order = list(verts)
    rng.shuffle(order)
    all_sides = list(itertools.product((False, True), repeat=4))
    for gone in order + [None]:
        for x1, x2, y1, y2 in itertools.product(range(5), repeat=4):
            if x1 > x2 or y1 > y2 or rng.random() < 0.8:
                continue
            rect, sides = (x1, x2, y1, y2), rng.choice(all_sides)
            for corner in CORNERS:
                want_all = _scan(verts, rect, sides, corner)
                want_live = _scan(live, rect, sides, corner)
                assert _triple(cw.nearest(rect, corner, sides)) == want_live
                skip = want_all if want_all is not None and rng.random() < 0.5 else rng.choice(verts)
                got_all, got_live = cw.nearest(rect, corner, sides, settled=True, skip=skip)
                assert _triple(got_all) == _scan([v for v in verts if v != skip], rect, sides, corner)
                assert _triple(got_live) == want_live
        if gone is not None:
            cw.remove(*gone)
            live.remove(gone)


def test_vertex_index_on_a_bench_scene_vs_linear_scan():
    # The 800 vertices of bench_scene(1, 400), removed in random order,
    # under rects whose bounds sit on vertex coordinates, every openness,
    # both views and a skipped vertex; reports checked every 16 removals.
    sc = ScaledScene(bench_scene(1, 400))
    pts = sorted({p for e in sc.edges for p in e.endpoints})
    verts = [(x, y, i) for i, (x, y) in enumerate(pts)]
    cw = CornerWeightedVertices([((x, y), i) for x, y, i in verts])
    rng = random.Random(49)
    all_sides = list(itertools.product((False, True), repeat=4))
    live = set(verts)
    order = list(verts)
    rng.shuffle(order)
    for step, gone in enumerate(order):
        x1, x2 = sorted(rng.choice(verts)[0] for _ in range(2))
        y1, y2 = sorted(rng.choice(verts)[1] for _ in range(2))
        rect = (x1, x2, y1, y2)
        for sides in all_sides if step % 16 == 0 else [rng.choice(all_sides)]:
            inside_all = [v for v in verts if _in_rect(v[:2], rect, sides)]
            inside_live = [v for v in inside_all if v in live]
            for corner in CORNERS:
                want_all = _scan(inside_all, rect, sides, corner)
                want_live = _scan(inside_live, rect, sides, corner)
                assert _triple(cw.nearest(rect, corner, sides)) == want_live
                skip = want_all if want_all is not None and rng.random() < 0.7 else rng.choice(verts)
                got_all, got_live = cw.nearest(rect, corner, sides, settled=True, skip=skip)
                assert _triple(got_all) == _scan([v for v in inside_all if v != skip], rect, sides, corner)
                assert _triple(got_live) == want_live
            if step % 16 == 0:
                assert sorted(_triple(p) for p in cw.report(rect, sides)) == sorted(inside_live)
        cw.remove(*gone)
        live.discard(gone)
    xs, ys = [v[0] for v in verts], [v[1] for v in verts]
    assert cw.report((min(xs), max(xs), min(ys), max(ys))) == []
