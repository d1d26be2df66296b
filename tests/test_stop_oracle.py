import random

import pytest

from rectipath.geometry import IntEdge, ScaledScene
from rectipath.oracle import bench_scene
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


def test_stop_hit_is_an_immutable_record():
    hit = StopOracle([hedge(3, 2, 8, 5, 3, 7)]).stop_point((4, 1), 2, "N")
    assert (hit.edge_index, hit.point, hit.arrival) == (0, (4, 5), 6)
    assert hit == (0, (4, 5), 6)
    for field in ("edge_index", "point", "arrival"):
        with pytest.raises(AttributeError):
            setattr(hit, field, 0)


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


def test_stop_queries_on_a_bench_scene_vs_brute_force():
    # About a hundred edges per direction, so the stabbers' bitsets span
    # several 30-bit digits.  Rays and drags start on and beside edge ends
    # and reach an edge ahead on and beside its window ends.
    edges = ScaledScene(bench_scene(1, 200)).edges
    so = StopOracle(edges)
    rng = random.Random(50)
    info = {"N": (1, True), "S": (-1, True), "E": (1, False), "W": (-1, False)}
    for _ in range(3000):
        d = rng.choice(DIRS)
        sign, horiz = info[d]
        e, e2 = (rng.choice([e for e in edges if e.horizontal == horiz]) for _ in range(2))
        lo = rng.choice((e.lo, e.hi)) + rng.choice((-1, 0, 1))
        gap = rng.choice((0, 0, 1, rng.randrange(1, 60)))
        line = e.line - sign * gap
        t = rng.choice((e.ta, e.td)) + rng.choice((-1, 0, 1)) - gap
        p = (lo, line) if horiz else (line, lo)
        got = so.stop_point(p, t, d)
        want = brute_stop_point(edges, p, t, d)
        assert (None if got is None else (got.edge_index, got.arrival)) == (
            None if want is None else want[1:]
        ), (p, t, d)
        hi = rng.choice((e2.lo, e2.hi, lo + rng.randrange(0, 40))) + rng.choice((-1, 0, 1))
        lo, hi = min(lo, hi), max(lo, hi)
        got = so.stop_drag(lo, hi, line, t, d)
        want = brute_stop_drag(edges, lo, hi, line, t, d)
        assert got == (None if want is None else want[1:]), (lo, hi, line, t, d)


def test_narrow_spans_and_windows_vs_brute_force():
    # The oracle stores each open span and window as the closed range of the
    # integers inside it, which is empty for length 1.  Edges of span 1 and
    # 2 with windows of length 1 and 2, in every direction, each alone and
    # in front of a wide edge that must not be masked: rays at and beside
    # the span and window ends, and drags that cover only a span-1 edge's
    # gap or reach one of its ends.
    info = {"N": (1, True), "S": (-1, True), "E": (1, False), "W": (-1, False)}
    cases = 0
    for d in DIRS:
        sign, horiz = info[d]
        make = hedge if horiz else vedge
        for span in (1, 2):
            for length in (1, 2):
                near = make(0, 0, span, 4 * sign, 10, 10 + length)
                far = make(1, -5, 8, 9 * sign, 0, 99)
                for edges in ([near], [near, far]):
                    so = StopOracle(edges)
                    for t in range(4, 10 + length + 2):
                        for c in range(-1, span + 2):
                            p = (c, 0) if horiz else (0, c)
                            got = so.stop_point(p, t, d)
                            want = brute_stop_point(edges, p, t, d)
                            assert (None if got is None else (got.edge_index, got.arrival)) == (
                                None if want is None else want[1:]
                            ), (edges, p, t, d)
                        for lo in range(-2, span + 2):
                            for hi in range(lo, span + 3):
                                got = so.stop_drag(lo, hi, 0, t, d)
                                want = brute_stop_drag(edges, lo, hi, 0, t, d)
                                assert got == (None if want is None else want[1:]), (edges, lo, hi, t, d)
                                cases += 1
    # a drag across just the gap of a span-1 edge stops inside its window,
    # a ray through either end of it never does, and a window of length 1
    # stops nothing
    so = StopOracle([hedge(0, 3, 4, 5, 0, 9)])
    assert so.stop_drag(3, 4, 0, 0, "N") == (0, 5)
    assert so.stop_drag(0, 3, 0, 0, "N") is None
    assert so.stop_point((3, 0), 0, "N") is None and so.stop_point((4, 0), 0, "N") is None
    so = StopOracle([hedge(0, -9, 9, 5, 4, 5)])
    assert all(so.stop_point((0, 0), t, "N") is None for t in range(-2, 4))
    assert all(so.stop_drag(-3, 3, 0, t, "N") is None for t in range(-2, 4))
    so = StopOracle([hedge(0, -9, 9, 5, 4, 6)])
    assert [t for t in range(-2, 4) if so.stop_point((0, 0), t, "N") is not None] == [0]
    assert cases > 1000


def test_accessible_examples():
    # asked only for an edge that stops the axis ray from the source
    so = StopOracle([hedge(0, -5, 5, 5, 0, 20)])
    assert so.accessible_on(0, (0, 0), 0) == (-5, 5)
    so = StopOracle([hedge(0, -5, 5, 5, 0, 7)])
    assert so.accessible_on(0, (0, 0), 0) == (-2, 2)
    for e, src in (
        (hedge(0, -5, 5, 5, 6, 7), (0, 0)),  # the ray passes before it appears
        (hedge(0, -5, 5, 5, 0, 4), (0, 0)),  # ... or after it vanished
        (hedge(0, -5, 5, 5, 0, 5), (0, 0)),  # ... or at the vanishing instant
        (hedge(0, 0, 5, 5, 0, 20), (0, 0)),  # ... or through its tip
    ):
        so = StopOracle([e])
        assert so.stop_point(src, 0, "N") is None
        with pytest.raises(ValueError):
            so.accessible_on(0, src, 0)


def test_accessible_window_is_closed():
    so = StopOracle([hedge(0, -9, 9, 5, 2, 8)])
    # base arrival 5; |c| up to 3, reached exactly at the disappearance
    assert so.accessible_on(0, (0, 0), 0) == (-3, 3)
    # clipped to the span on one side only
    assert so.accessible_on(0, (7, 0), 0) == (4, 9)
    so = StopOracle([vedge(0, -9, 9, -4, 0, 12)])
    assert so.accessible_on(0, (0, 1), 3) == (-4, 6)


def test_accessible_matches_pointwise_scan():
    # every ray stop_point reports as blocked: the interval is exactly the
    # span columns reached inside the closed window; every other ray raises
    rng = random.Random(48)
    blocked = 0
    for rep in range(800):
        e = random_edges(rng, 1)[0]
        so = StopOracle([e])
        cross = rng.randrange(e.lo - 1, e.hi + 2)
        gap = rng.randrange(1, 12)
        travel = e.line + rng.choice((-gap, gap))
        p = (cross, travel) if e.horizontal else (travel, cross)
        t = max(0, e.ta - gap + rng.randrange(-3, e.td - e.ta + 4))  # near the window
        d = ("N" if travel < e.line else "S") if e.horizontal else ("E" if travel < e.line else "W")
        if so.stop_point(p, t, d) is None:
            with pytest.raises(ValueError):
                so.accessible_on(0, p, t)
            continue
        blocked += 1
        lo, hi = so.accessible_on(0, p, t)
        for c in range(e.lo - 1, e.hi + 2):
            arrival = t + abs(c - cross) + abs(e.line - travel)
            want = e.lo <= c <= e.hi and e.ta <= arrival <= e.td
            assert (lo <= c <= hi) == want, (e, p, t, c, (lo, hi))
    assert blocked >= 150  # 207 of the 800 rays


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
