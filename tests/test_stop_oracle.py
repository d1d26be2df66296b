import random

from rectipath.geometry import IntEdge
from rectipath.stopindex import DIRS, StopOracle


def hedge(i, x1, x2, y, ta, td):
    return IntEdge(id=i, horizontal=True, line=y, lo=min(x1, x2), hi=max(x1, x2), ta=ta, td=td)


def vedge(i, y1, y2, x, ta, td):
    return IntEdge(id=i, horizontal=False, line=x, lo=min(y1, y2), hi=max(y1, y2), ta=ta, td=td)


def test_stop_point_examples():
    so = StopOracle([hedge(0, 2, 8, 5, 3, 7)])
    hit = so.stop_point((4, 1), 2, "N")
    assert hit.point == (4, 5) and hit.arrival == 6
    so = StopOracle([hedge(0, -5, 5, 5, 6, 20)])
    assert so.stop_point((0, 0), 0, "N") is None  # ray passes at 5, before appearance
    so = StopOracle([])
    assert so.stop_point((0, 0), 0, "N") is None


def test_stop_point_boundary_times_pass():
    # Crossing exactly at appearance or disappearance is legal, so no stop.
    so = StopOracle([hedge(0, -5, 5, 5, 5, 9)])
    assert so.stop_point((0, 0), 0, "N") is None
    so = StopOracle([hedge(0, -5, 5, 5, 1, 5)])
    assert so.stop_point((0, 0), 0, "N") is None
    so = StopOracle([hedge(0, -5, 5, 5, 1, 6)])
    hit = so.stop_point((0, 0), 0, "N")
    assert hit is not None and hit.arrival == 5


def test_stop_point_tip_rays_pass():
    so = StopOracle([hedge(0, 0, 6, 5, 0, 99)])
    assert so.stop_point((0, 0), 0, "N") is None  # through the left tip
    assert so.stop_point((6, 0), 0, "N") is None
    assert so.stop_point((3, 0), 0, "N").arrival == 5


def test_stop_point_floor_excludes_own_line():
    edges = [hedge(0, 0, 10, 5, 0, 20), hedge(1, 0, 10, 9, 0, 20)]
    so = StopOracle(edges)
    hit = so.stop_point((5, 5), 6, "N")  # departing perpendicular off edge 0
    assert hit.edge_index == 1 and hit.arrival == 10


def test_stop_point_all_directions():
    edges = [
        hedge(0, -4, 4, 6, 0, 20),
        hedge(1, -4, 4, -6, 0, 20),
        vedge(2, -4, 4, 6, 0, 20),
        vedge(3, -4, 4, -6, 0, 20),
    ]
    so = StopOracle(edges)
    assert so.stop_point((0, 0), 0, "N").point == (0, 6)
    assert so.stop_point((0, 0), 0, "S").point == (0, -6)
    assert so.stop_point((0, 0), 0, "E").point == (6, 0)
    assert so.stop_point((0, 0), 0, "W").point == (-6, 0)
    for d in DIRS:
        assert so.stop_point((0, 0), 0, d).arrival == 6


def brute_stop_point(edges, p, t, d):
    sign, horiz = {"N": (1, True), "S": (-1, True), "E": (1, False), "W": (-1, False)}[d]
    cross, travel = (p[0], p[1]) if horiz else (p[1], p[0])
    best = None
    for i, e in enumerate(edges):
        if e.horizontal != horiz:
            continue
        w = sign * e.line
        if w <= sign * travel or not (e.lo < cross < e.hi):
            continue
        arrival = t + (w - sign * travel)
        if e.ta < arrival < e.td:
            if best is None or (w, i) < best[:2]:
                best = (w, i, arrival)
    return best


def brute_stop_drag(edges, lo, hi, line, t, d):
    sign, horiz = {"N": (1, True), "S": (-1, True), "E": (1, False), "W": (-1, False)}[d]
    best = None
    for i, e in enumerate(edges):
        if e.horizontal != horiz:
            continue
        w = sign * e.line
        if w <= sign * line:
            continue
        if lo == hi:
            if not (e.lo < lo < e.hi):
                continue
        elif not (e.lo < hi and e.hi > lo):  # open span overlap
            continue
        arrival = t + (w - sign * line)
        if e.ta < arrival < e.td:
            if best is None or (w, i) < best[:2]:
                best = (w, i, arrival)
    return best


def random_edges(rng, n):
    out = []
    for i in range(n):
        a = rng.randrange(-20, 20)
        b = a + rng.randrange(1, 10)
        line = rng.randrange(-20, 20)
        ta = rng.randrange(0, 40)
        td = ta + rng.randrange(1, 25)
        if rng.random() < 0.5:
            out.append(hedge(i, a, b, line, ta, td))
        else:
            out.append(vedge(i, a, b, line, ta, td))
    return out


def test_stop_point_matches_brute_force():
    rng = random.Random(46)
    for rep in range(400):
        edges = random_edges(rng, rng.randrange(0, 12))
        so = StopOracle(edges)
        for _ in range(8):
            p = (rng.randrange(-22, 22), rng.randrange(-22, 22))
            t = rng.randrange(0, 50)
            d = rng.choice(DIRS)
            got = so.stop_point(p, t, d)
            want = brute_stop_point(edges, p, t, d)
            assert (got is None) == (want is None), (edges, p, t, d)
            if got is not None:
                assert (got.edge_index, got.arrival) == (want[1], want[2])


def test_stop_drag_matches_brute_force():
    rng = random.Random(47)
    for rep in range(400):
        edges = random_edges(rng, rng.randrange(0, 12))
        so = StopOracle(edges)
        for _ in range(8):
            lo = rng.randrange(-22, 22)
            hi = lo + rng.randrange(0, 12)
            line = rng.randrange(-22, 22)
            t = rng.randrange(0, 50)
            d = rng.choice(DIRS)
            got = so.stop_drag(lo, hi, line, t, d)
            want = brute_stop_drag(edges, lo, hi, line, t, d)
            assert (got is None) == (want is None), (edges, lo, hi, line, t, d)
            if got is not None:
                assert got == (want[1], want[2])


def test_accessible_examples():
    so = StopOracle([hedge(0, -5, 5, 5, 0, 20)])
    assert so.accessible_on(0, (0, 0), 0) == [(-5, 5)]
    so = StopOracle([hedge(0, -5, 5, 5, 0, 7)])
    assert so.accessible_on(0, (0, 0), 0) == [(-2, 2)]
    so = StopOracle([hedge(0, -5, 5, 5, 6, 7)])
    assert so.accessible_on(0, (0, 0), 0) == [(-2, -1), (1, 2)]
    so = StopOracle([hedge(0, -5, 5, 5, 0, 4)])
    assert so.accessible_on(0, (0, 0), 0) == []


def test_accessible_window_is_closed():
    so = StopOracle([hedge(0, -9, 9, 5, 8, 11)])
    # base arrival 5; |c| between 3 and 6, both ends inclusive
    assert so.accessible_on(0, (0, 0), 0) == [(-6, -3), (3, 6)]
    so = StopOracle([hedge(0, -9, 9, 5, 8, 8)])
    # degenerate: IntEdge allows ta == td here even though scenes forbid it
    assert so.accessible_on(0, (0, 0), 0) == [(-3, -3), (3, 3)]


def test_accessible_matches_pointwise_scan():
    rng = random.Random(48)
    for rep in range(300):
        e = random_edges(rng, 1)[0]
        so = StopOracle([e])
        p = (rng.randrange(-22, 22), rng.randrange(-22, 22))
        t = rng.randrange(0, 50)
        spans = so.accessible_on(0, p, t)
        cross, travel = (p[0], p[1]) if e.horizontal else (p[1], p[0])
        for c in range(e.lo - 1, e.hi + 2):
            member = any(a <= c <= b for a, b in spans)
            arrival = t + abs(c - cross) + abs(e.line - travel)
            want = e.lo <= c <= e.hi and e.ta <= arrival <= e.td
            assert member == want, (e, p, t, c, spans)


def test_stop_drag_examples():
    so = StopOracle([hedge(0, -5, 5, 5, 0, 20)])
    assert so.stop_drag(-2, 2, 0, 0, "N") == (0, 5)
    so = StopOracle([hedge(0, 0, 5, 5, 0, 20)])
    assert so.stop_drag(-2, 2, 0, 0, "N") == (0, 5)
    so = StopOracle([hedge(0, -5, 5, 5, 0, 3)])
    assert so.stop_drag(-2, 2, 0, 0, "N") is None


def test_stop_drag_tip_only_overlap_passes():
    # Drag [0, 5] against an edge spanning [5, 9]: only the tip column touches,
    # so the drag slides past; a nearer such edge must not mask a true blocker.
    edges = [hedge(0, 5, 9, 3, 0, 99), hedge(1, -9, 9, 7, 0, 99)]
    so = StopOracle(edges)
    assert so.stop_drag(0, 5, 0, 0, "N") == (1, 7)
    assert so.stop_drag(0, 5, 0, 0, "S") is None
