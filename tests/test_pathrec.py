"""Staircase routing by the interval row sweep, against the grid search it
replaced and the crossing rule of validate_path, and witness failures that
raise instead of asserting."""

import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from rectipath.geometry import IntEdge, ScaledScene, Scene, ValidationReport, _crossing_issues, validate_path
from rectipath.oracle import bench_scene, random_scene
from rectipath.pathrec import WitnessError, _route, _staircase
from rectipath.spm import build_spm
from rectipath.stopindex import StopOracle


def _grid_route(edges, a, t0, b, forced):
    """Reference: reachability sweep over the full grid of edge lines, edge
    ends and window-crossing columns/rows in the box between a and b (the
    route search before the row sweep).  Same contract as pathrec._route; a
    straight hop is a grid of one column or one row."""
    sx = 1 if b[0] >= a[0] else -1
    sy = 1 if b[1] >= a[1] else -1
    mx, nx = min(a[0], b[0]), max(a[0], b[0])
    my, ny = min(a[1], b[1]), max(a[1], b[1])
    xs = {a[0], b[0]}
    ys = {a[1], b[1]}
    vert = {}
    horiz = {}
    for e in edges:
        if e.horizontal:
            exlo, exhi, eylo, eyhi = e.lo, e.hi, e.line, e.line
        else:
            exlo, exhi, eylo, eyhi = e.line, e.line, e.lo, e.hi
        if exhi < mx or exlo > nx or eyhi < my or eylo > ny:
            continue
        (horiz if e.horizontal else vert).setdefault(e.line, []).append(e)
        xs.update((exlo, exhi))
        ys.update((eylo, eyhi))
        if e.horizontal:
            base = t0 + abs(e.line - a[1])
            for bound in (e.ta, e.td):
                if bound >= base:
                    xs.add(a[0] + sx * (bound - base))
        else:
            base = t0 + abs(e.line - a[0])
            for bound in (e.ta, e.td):
                if bound >= base:
                    ys.add(a[1] + sy * (bound - base))
    cols = sorted(x for x in xs if mx <= x <= nx)
    rows = sorted(y for y in ys if my <= y <= ny)
    if sx < 0:
        cols.reverse()
    if sy < 0:
        rows.reverse()
    ni, nj = len(cols), len(rows)

    def step_east_ok(i, j, t):
        y = rows[j]
        return not any(e.lo < y < e.hi and e.ta < t < e.td for e in vert.get(cols[i], ()))

    def step_north_ok(i, j, t):
        x = cols[i]
        return not any(e.lo < x < e.hi and e.ta < t < e.td for e in horiz.get(rows[j], ()))

    par = [[None] * nj for _ in range(ni)]
    par[0][0] = "."
    for i in range(ni):
        for j in range(nj):
            if par[i][j] is None:
                continue
            t = t0 + abs(cols[i] - a[0]) + abs(rows[j] - a[1])
            if i + 1 < ni and par[i + 1][j] is None and not (i == 0 and j == 0 and forced == "y"):
                if step_east_ok(i, j, t):
                    par[i + 1][j] = "E"
            if j + 1 < nj and par[i][j + 1] is None and not (i == 0 and j == 0 and forced == "x"):
                if step_north_ok(i, j, t):
                    par[i][j + 1] = "N"
    if par[ni - 1][nj - 1] is None:
        return None
    steps = []
    i, j = ni - 1, nj - 1
    while (i, j) != (0, 0):
        d = par[i][j]
        steps.append((cols[i], rows[j], d))
        if d == "E":
            i -= 1
        else:
            j -= 1
    steps.reverse()
    corners = [(steps[k][0], steps[k][1]) for k in range(len(steps) - 1) if steps[k][2] != steps[k + 1][2]]
    corners.append(b)
    return corners


def _check_staircase(sc, a, t0, b, forced, corners):
    """A legal full-speed monotone staircase from (a, t0) ending at b, each
    leg checked by validate_path's crossing rule in scene units."""
    assert corners and corners[-1] == b
    pts = [a] + corners
    lo_x, hi_x = min(a[0], b[0]), max(a[0], b[0])
    lo_y, hi_y = min(a[1], b[1]), max(a[1], b[1])
    sx = 1 if b[0] >= a[0] else -1
    sy = 1 if b[1] >= a[1] else -1
    t = t0
    for k, (p, q) in enumerate(zip(pts, pts[1:])):
        assert p != q or a == b
        assert p[0] == q[0] or p[1] == q[1], (p, q)
        assert (q[0] - p[0]) * sx >= 0 and (q[1] - p[1]) * sy >= 0, (p, q)
        assert lo_x <= q[0] <= hi_x and lo_y <= q[1] <= hi_y, q
        if k == 0:
            if forced == "x":
                assert p[1] == q[1]
            elif forced == "y":
                assert p[0] == q[0]
        rep = ValidationReport()
        _crossing_issues(rep, sc.scene, sc.point_out(p), sc.point_out(q), sc.time_out(t))
        assert rep.ok, (p, q, t, rep)
        t += abs(q[0] - p[0]) + abs(q[1] - p[1])


@pytest.mark.parametrize("seed", range(4))
def test_route_agrees_with_the_grid_reference(seed):
    # Free hops, straight hops along a column or a row, and hops from an
    # edge's end along its own line (a wait's host line), each under every
    # forced first axis; a fifth of the targets are moved off the integer
    # grid along the hop, as map queries may be.
    rng = random.Random(seed)
    found = missed = straight = refused = 0
    for s in range(15):
        sc = ScaledScene(random_scene(100 * seed + s, rng.choice((6, 15, 30, 45))))
        edges = sc.edges
        stop = StopOracle(edges)
        xlo, xhi, ylo, yhi = sc.bbox
        verts = [p for e in edges for p in e.endpoints] + [sc.source, sc.dest]

        def point():
            if rng.random() < 0.5:
                return rng.choice(verts)
            return (rng.randint(xlo, xhi), rng.randint(ylo, yhi))

        for _ in range(30):
            a, b = point(), point()
            r = rng.random()
            if r < 0.2:
                b = (a[0], b[1])
            elif r < 0.4:
                b = (b[0], a[1])
            elif r < 0.55 and edges:
                e = rng.choice(edges)
                a = rng.choice(e.endpoints)
                c = rng.randint(xlo, xhi) if e.horizontal else rng.randint(ylo, yhi)
                b = (c, e.line) if e.horizontal else (e.line, c)
            if rng.random() < 0.2:
                off = Fraction(rng.randint(1, 3), 4)
                b = (b[0], b[1] + off) if a[0] == b[0] else (b[0] + off, b[1])
            if a == b:
                continue
            t0 = rng.randint(0, 100)
            is_straight = a[0] == b[0] or a[1] == b[1]
            straight += is_straight
            for forced in (None, "x", "y"):
                got = _route(stop, a, t0, b, forced)
                want = _grid_route(edges, a, t0, b, forced)
                assert (got is None) == (want is None), (a, t0, b, forced, got, want)
                if got is None:
                    missed += 1
                else:
                    found += 1
                    _check_staircase(sc, a, t0, b, forced, got)
                if is_straight and forced == ("x" if a[0] == b[0] else "y"):
                    assert got is None, (a, t0, b, forced, got)  # across the hop's only axis
                    refused += 1
    assert found and missed and straight > 200 and refused == straight


class _BoxScan:
    """Reference edge source for the router: a scan for every edge whose
    closed extent meets the closed box of the hop."""

    def __init__(self, edges):
        self.edges = edges

    def blockers(self, a, t0, b):
        mx, nx = min(a[0], b[0]), max(a[0], b[0])
        my, ny = min(a[1], b[1]), max(a[1], b[1])
        out = []
        for e in self.edges:
            if e.horizontal:
                if my <= e.line <= ny and e.lo <= nx and mx <= e.hi:
                    out.append(e)
            elif mx <= e.line <= nx and e.lo <= ny and my <= e.hi:
                out.append(e)
        return out


def _kept(e, a, t0, b):
    """Whether the row sweep turns edge e into a fence or a wall of the hop
    from (a, t0) to b: on a line in [0, h) (or [0, w)) and blocking an open
    interval that meets the hop's closed cross range."""
    sx = 1 if b[0] >= a[0] else -1
    sy = 1 if b[1] >= a[1] else -1
    w, h = sx * (b[0] - a[0]), sy * (b[1] - a[1])
    if e.horizontal:
        s, t, cross, depth, span, along = sy, 1, 0, h, w, sx
    else:
        s, t, cross, depth, span, along = sx, 0, 1, w, h, sy
    d = s * (e.line - a[t])
    lo, hi = sorted((along * (e.lo - a[cross]), along * (e.hi - a[cross])))
    p, q = max(lo, e.ta - t0 - d), min(hi, e.td - t0 - d)
    return 0 <= d < depth and p < q and 0 < q and p < span


@pytest.mark.parametrize("seed", range(3))
def test_blockers_hold_every_edge_the_route_keeps(seed):
    # Free and straight hops (w = 0 or h = 0), from vertices, edge ends and
    # lattice points to integer and half-unit targets: the edges the row
    # sweep turns into fences or walls are all among the oracle's
    # candidates, and the routes under every forced first axis are those
    # the box scan gives.
    rng = random.Random(1000 + seed)
    kept = candidates = boxed = 0
    for s in range(12):
        sc = ScaledScene(random_scene(500 * seed + s, rng.choice((8, 20, 40))))
        stop, scan = StopOracle(sc.edges), _BoxScan(sc.edges)
        xlo, xhi, ylo, yhi = sc.bbox
        verts = [p for e in sc.edges for p in e.endpoints] + [sc.source]
        for _ in range(40):
            a = rng.choice(verts) if rng.random() < 0.6 else (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
            b = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
            r = rng.random()
            if r < 0.2:
                b = (a[0], b[1])
            elif r < 0.4:
                b = (b[0], a[1])
            if rng.random() < 0.4:  # half-unit targets along either axis or both
                half = Fraction(1, 2)
                b = rng.choice(((b[0] + half, b[1]), (b[0], b[1] + half), (b[0] + half, b[1] + half)))
            if a == b:
                continue
            t0 = rng.randint(0, 60)
            got = stop.blockers(a, t0, b)
            must = [e for e in sc.edges if _kept(e, a, t0, b)]
            assert set(must) <= set(got), (a, t0, b)
            kept += len(must)
            candidates += len(got)
            boxed += len(scan.blockers(a, t0, b))
            for forced in (None, "x", "y"):
                assert _route(stop, a, t0, b, forced) == _route(scan, a, t0, b, forced), (a, t0, b, forced)
    assert 0 < kept < candidates < boxed


def test_a_wait_departs_perpendicular_to_its_host():
    # The robot sat at (5, 5), the east end of edge 0, from time 10 to 20.
    # It leaves north first.  Where only an east-first staircase exists (the
    # wall at x = 7 appears at 22, so only a crossing at y = 5 passes), or
    # the target is on the host's own line, the hop raises instead of
    # leaving sideways or early.
    host = IntEdge(id=0, horizontal=True, line=5, lo=-5, hi=5, ta=0, td=20)
    wall = IntEdge(id=1, horizontal=False, line=7, lo=3, hi=9, ta=22, td=30)
    tris = [[(5, 5), 10, 20]]
    _staircase(StopOracle([host]), tris, (8, 7), host=0)
    assert tris[1][0] == (5, 7) and tris[-1] == [(8, 7), 25, 25]
    for edges, target in (([host, wall], (8, 7)), ([host], (8, 5)), ([host], (2, 5))):
        with pytest.raises(WitnessError, match="no staircase"):
            _staircase(StopOracle(edges), [[(5, 5), 10, 20]], target, host=0)
    assert _route(StopOracle([host, wall]), (5, 5), 20, (8, 7), None) is not None
    tris = [[(5, 5), 20, 20]]  # no wait, so any first axis
    _staircase(StopOracle([host, wall]), tris, (8, 7), host=0)
    assert tris[-1] == [(8, 7), 25, 25]


def _serve_lattice(scene, seed, side=28):
    """The query lattice of the map benchmark: one integer x per vertical
    strip, one y per horizontal strip, minus points on an edge or the source."""
    rng = random.Random(seed * 7919 + 17)
    xlo, xhi, ylo, yhi = scene.bbox

    def strips(lo, hi):
        return [rng.randint(lo + (hi - lo) * i // side, lo + (hi - lo) * (i + 1) // side - 1) for i in range(side)]

    xs, ys = strips(xlo, xhi), strips(ylo, yhi)
    on_edge = lambda p: any(e.contains_point(p) for e in scene.edges)  # noqa: E731
    return [(x, y) for x in xs for y in ys if (x, y) != scene.source and not on_edge((x, y))]


def test_map_witnesses_on_the_serve_lattice_are_valid():
    scene = bench_scene(1, 200)
    m = build_spm(scene)
    points = _serve_lattice(scene, 1)
    assert len(points) > 700
    for p in points:
        t, path = m.query(p)
        assert t == m.arrival(p)
        rep = validate_path(Scene(scene.edges, scene.vmax, scene.source, p), path, t)
        assert rep.ok, (p, rep)


def test_map_witnesses_at_half_unit_points_are_valid():
    # Fractional map targets: the blocker query floors and ceils its bounds
    # around them.  Half a unit off the serve lattice along x, along y and
    # along both.
    scene = bench_scene(1, 200)
    m = build_spm(scene)
    half = Fraction(1, 2)
    on_edge = lambda p: any(e.contains_point(p) for e in scene.edges)  # noqa: E731
    lattice = _serve_lattice(scene, 2)
    points = [(x + half, y) for x, y in lattice[0::3]] + [(x, y + half) for x, y in lattice[1::3]]
    points += [(x + half, y + half) for x, y in lattice[2::3]]
    points = [p for p in points if not on_edge(p)]
    assert len(points) > 700
    for p in points:
        t, path = m.query(p)
        assert t == m.arrival(p) and path.waypoints[-1].point == p
        rep = validate_path(Scene(scene.edges, scene.vmax, scene.source, p), path, t)
        assert rep.ok, (p, rep)


_NO_ROUTE = textwrap.dedent(
    """
    import rectipath
    from rectipath import pathrec
    from rectipath.geometry import Scene, TransientEdge

    pathrec._route = lambda *args: None
    scene = Scene([TransientEdge(0, (5, 5), (5, 8), 0, 1)], 1, (0, 0), (3, 4))
    for make in (lambda: rectipath.fast_plan(scene), lambda: rectipath.build_spm(scene).query((2, 3))):
        try:
            make()
        except rectipath.WitnessError as exc:
            print("WitnessError", exc)
        else:
            print("returned")
    """
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
def test_a_missing_staircase_raises_witness_error(flags):
    out = subprocess.run(
        [sys.executable, *flags, "-c", _NO_ROUTE],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.splitlines()
    assert len(out) == 2
    assert all(line.startswith("WitnessError no staircase") for line in out), out
