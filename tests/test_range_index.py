import random

import pytest

from rectipath.rangeindex import (
    CornerWeightedVertices,
    DeleteMissing,
    DynRangeMin,
    RectStabber,
    SegIntersecter,
    WeightedPoint,
    WeightedRect,
    WeightedSegment,
)


# ----- rectangle stabbing ---------------------------------------------------


def brute_stab(rects, q, floor=None, x_open=False, y_open=False):
    best = None
    for r in rects:
        if floor is not None and r.weight <= floor:
            continue
        inx = r.xlo < q[0] < r.xhi if x_open else r.xlo <= q[0] <= r.xhi
        iny = r.ylo < q[1] < r.yhi if y_open else r.ylo <= q[1] <= r.yhi
        if inx and iny and (best is None or (r.weight, r.payload) < (best.weight, best.payload)):
            best = r
    return best


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


def test_rect_stab_boundary_inclusive_by_default():
    st = RectStabber([WeightedRect(0, 4, 0, 4, 1, 0)])
    assert st.query((0, 4)) is not None
    assert st.query((4, 0)) is not None
    op = RectStabber([WeightedRect(0, 4, 0, 4, 1, 0)], x_open=True, y_open=True)
    assert op.query((0, 2)) is None
    assert op.query((2, 4)) is None
    assert op.query((2, 2)) is not None


def test_rect_stab_random_vs_linear():
    rng = random.Random(41)
    for rep in range(250):
        rects = []
        for i in range(rng.randrange(0, 24)):
            x1, x2 = sorted(rng.randrange(0, 30) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 30) for _ in range(2))
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 8), i))
        xo, yo = rng.random() < 0.5, rng.random() < 0.5
        st = RectStabber(rects, x_open=xo, y_open=yo)
        for _ in range(20):
            q = (rng.randrange(-2, 32), rng.randrange(-2, 32))
            floor = rng.choice([None, rng.randrange(0, 8)])
            got = st.query(q, floor)
            want = brute_stab(rects, q, floor, xo, yo)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.weight, got.payload) == (want.weight, want.payload)


# ----- segment intersection -------------------------------------------------


def seg_points(s):
    return s.p1, s.p2


def brute_intersect(segs, p1, p2):
    def closed_meet(a1, a2, b1, b2):
        # Axis-parallel closed segments; standard box + collinearity test.
        ax1, ax2 = sorted((a1[0], a2[0]))
        ay1, ay2 = sorted((a1[1], a2[1]))
        bx1, bx2 = sorted((b1[0], b2[0]))
        by1, by2 = sorted((b1[1], b2[1]))
        if ax1 > bx2 or bx1 > ax2 or ay1 > by2 or by1 > ay2:
            return False
        # Overlapping bounding boxes of axis-parallel segments intersect unless
        # both are degenerate in different lines, which the box test already
        # rules out.
        return True

    best = None
    for s in segs:
        if closed_meet(p1, p2, s.p1, s.p2):
            if best is None or (s.weight, s.payload) < (best.weight, best.payload):
                best = s
    return best


def test_seg_intersect_basics():
    segs = [
        WeightedSegment((0, 5), (10, 5), 5, 0),  # h1
        WeightedSegment((0, 8), (4, 8), 8, 1),  # h2
    ]
    si = SegIntersecter(segs)
    assert si.query((2, 0), (2, 9)).payload == 0
    assert si.query((6, 6), (6, 9)) is None
    assert si.query((0, 5), (1, 5)).payload == 0  # collinear touch counts


def test_seg_intersect_vertical_store():
    segs = [
        WeightedSegment((3, 0), (3, 10), 2, 0),
        WeightedSegment((5, 2), (5, 4), 1, 1),
    ]
    si = SegIntersecter(segs)
    assert si.query((0, 3), (9, 3)).payload == 1
    assert si.query((0, 7), (9, 7)).payload == 0
    assert si.query((4, 0), (4, 9)) is None
    assert si.query((3, 3), (3, 5)).payload == 0  # collinear with a vertical


def test_seg_intersect_random_vs_linear():
    rng = random.Random(42)
    for rep in range(250):
        segs = []
        for i in range(rng.randrange(0, 24)):
            a = rng.randrange(0, 30)
            b, c = sorted(rng.randrange(0, 30) for _ in range(2))
            if rng.random() < 0.5:
                segs.append(WeightedSegment((b, a), (c, a), rng.randrange(0, 8), i))
            else:
                segs.append(WeightedSegment((a, b), (a, c), rng.randrange(0, 8), i))
        si = SegIntersecter(segs)
        for _ in range(20):
            a = rng.randrange(0, 30)
            b, c = sorted(rng.randrange(0, 30) for _ in range(2))
            p1, p2 = ((b, a), (c, a)) if rng.random() < 0.5 else ((a, b), (a, c))
            got = si.query(p1, p2)
            want = brute_intersect(segs, p1, p2)
            assert (got is None) == (want is None), (segs, p1, p2)
            if got is not None:
                assert (got.weight, got.payload) == (want.weight, want.payload)


# ----- dynamic range minimum ------------------------------------------------


def test_drmin_basics():
    d = DynRangeMin()
    d.insert(WeightedPoint(1, 1, 2, 0))
    d.insert(WeightedPoint(3, 3, 1, 1))
    assert d.query((0, 4, 0, 4)).payload == 1
    d.delete(3, 3, 1)
    assert d.query((0, 4, 0, 4)).payload == 0
    assert d.query((10, 11, 10, 11)) is None
    with pytest.raises(DeleteMissing):
        d.delete(3, 3, 1)


def test_drmin_open_sides():
    d = DynRangeMin([WeightedPoint(0, 0, 1, 0), WeightedPoint(2, 2, 2, 1)])
    assert d.query((0, 2, 0, 2)).payload == 0
    assert d.query((0, 2, 0, 2), open_sides=(True, False, True, False)).payload == 1
    assert d.query((0, 2, 0, 2), open_sides=(True, True, True, True)) is None


def test_drmin_report():
    pts = [WeightedPoint(i, i, i, i) for i in range(6)]
    d = DynRangeMin(pts)
    d.delete(2, 2, 2)
    got = sorted(p.payload for p in d.report((1, 4, 0, 9)))
    assert got == [1, 3, 4]


def test_drmin_random_sequences():
    rng = random.Random(43)
    for rep in range(300):
        d = DynRangeMin()
        live = {}
        next_id = 0
        for _ in range(rng.randrange(1, 40)):
            op = rng.random()
            if op < 0.45 or not live:
                p = WeightedPoint(
                    rng.randrange(0, 20), rng.randrange(0, 20), rng.randrange(0, 10), next_id
                )
                next_id += 1
                d.insert(p)
                live[(p.x, p.y, p.payload)] = p
            elif op < 0.65:
                key = rng.choice(list(live))
                d.delete(*key)
                del live[key]
            else:
                x1, x2 = sorted(rng.randrange(-1, 22) for _ in range(2))
                y1, y2 = sorted(rng.randrange(-1, 22) for _ in range(2))
                got = d.query((x1, x2, y1, y2))
                want = None
                for p in live.values():
                    if x1 <= p.x <= x2 and y1 <= p.y <= y2:
                        if want is None or (p.weight, p.payload) < (want.weight, want.payload):
                            want = p
                assert (got is None) == (want is None)
                if got is not None:
                    assert (got.weight, got.payload) == (want.weight, want.payload)


def test_drmin_survives_rebuild():
    d = DynRangeMin()
    for i in range(200):
        d.insert(WeightedPoint(i % 17, i % 13, i % 7, i))
    for i in range(0, 200, 3):
        d.delete(i % 17, i % 13, i)
    want = [(i % 7, i) for i in range(200) if i % 3 and i % 17 <= 8]
    got = d.query((0, 8, 0, 99))
    assert (got.weight, got.payload) == min(want)


# ----- corner-weighted vertex lookup ----------------------------------------


def _nearest(cw, rect, corner):
    hit = cw.nearest(rect, corner)
    return None if hit is None else (hit.x, hit.y)


def test_nearest_vertex_examples():
    verts = [((1, 1), 0), ((2, 5), 1), ((6, 2), 2)]
    cw = CornerWeightedVertices((0, 7, 0, 7), verts)
    assert _nearest(cw, (0, 7, 0, 7), "SW") == (1, 1)
    assert _nearest(cw, (0, 7, 0, 7), "NE") == (6, 2)
    empty = CornerWeightedVertices((0, 7, 0, 7), [])
    assert _nearest(empty, (0, 7, 0, 7), "SW") is None


def test_nearest_vertex_tie_is_lexicographic():
    # (1,3) and (3,1) tie on SW distance; lexicographic (x, y) order decides,
    # provided payloads follow that order.
    verts = [((1, 3), 0), ((3, 1), 1)]
    cw = CornerWeightedVertices((0, 9, 0, 9), verts)
    assert _nearest(cw, (0, 9, 0, 9), "SW") == (1, 3)


def test_nearest_vertex_translation_invariance():
    rng = random.Random(44)
    for rep in range(60):
        pts = sorted({(rng.randrange(0, 30), rng.randrange(0, 30)) for _ in range(10)})
        verts = [(p, i) for i, p in enumerate(pts)]
        bbox = (-5, 35, -5, 35)
        cw = CornerWeightedVertices(bbox, verts)
        dx, dy = rng.randrange(-50, 50), rng.randrange(-50, 50)
        shifted = [((x + dx, y + dy), i) for (x, y), i in verts]
        cw2 = CornerWeightedVertices((-5 + dx, 35 + dx, -5 + dy, 35 + dy), shifted)
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
        cw = CornerWeightedVertices((0, 30, 0, 30), [(p, i) for i, p in enumerate(pts)])
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
