"""Turn wavefront provenance into concrete timed paths.

Every settled label and map cell carries a provenance chain, a node whose
parent links lead back to the start: staircase hops between point sources
(start, settled vertices, wait points) and flat hops along waited-out edges.
Replay needs only the chain and the scene's edge list.  Materializing a
staircase hop is a small grid search: inside the monotone rectangle between
the two points every position is crossed at the fixed time departure + L1
distance, so each edge blocks a static interval of crossing columns and a
legal staircase exists on the grid of edge lines and blocked-interval
boundaries.

A real wait must depart perpendicular to its host edge.  When every
perpendicular-first staircase is blocked, the wait is slid along its host to
the route's first corner: sliding on the host line is always free (an edge
crossing the host line in its interior would intersect it, which valid scenes
forbid), the relocated point is still on the host, and all later crossing
times are unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .engine import SrcNode
from .geometry import TimedPath, Waypoint

Tri = List  # [point, arrive, depart], mutable while building


def build_path(engine) -> TimedPath:
    sc = engine.sc
    t, node = engine.labels[engine.dest]
    tris = _from_source(engine.edges, node)
    assert tris[-1][0] == engine.dest and tris[-1][1] == t
    wps = tuple(Waypoint(sc.point_out(p), sc.time_out(a), sc.time_out(b)) for p, a, b in tris)
    return TimedPath(wps)


def _host_of(src_node):
    return src_node.host if src_node.kind == "wait" else None


def _from_source(edges, node) -> List[Tri]:
    """Timed points from the start to the point source node."""
    return _replay(edges, ("src", node))


def _from_flat(edges, node, cross, target_perp) -> List[Tri]:
    """Timed points from the start to where the flat front node reaches
    the line perp = target_perp at crossing coordinate cross."""
    return _replay(edges, ("flat", node, cross, target_perp))


def _replay(edges, item) -> List[Tri]:
    """Walk a provenance chain back to its start, then replay it forward.

    item is ("src", SrcNode) or ("flat", SegNode, cross, target_perp).  The
    steps still to replay are kept on a list, not on the call stack, so long
    chains need no recursion depth.
    """
    todo = []
    while True:
        if item[0] == "src":
            node = item[1]
            if node.kind == "start":
                break
            if node.kind == "wait":
                todo.append(("wait", node))
                item = ("src", node.parent)
            elif isinstance(node.parent, SrcNode):  # claimed by a point wavelet
                todo.append(("arrived", node))
                todo.append(("vertex", node))
                item = ("src", node.parent)
            else:  # claimed by a flat front
                horizontal = node.parent.dir in ("N", "S")
                cross = node.point[0] if horizontal else node.point[1]
                perp = node.point[1] if horizontal else node.point[0]
                todo.append(("arrived", node))
                item = ("flat", node.parent, cross, perp)
        else:
            _, seg, cross, perp = item
            if seg.kind == "remainder":
                item = ("flat", seg.parent, cross, perp)
                continue
            todo.append(("front", seg, cross, perp))
            if seg.kind == "piece":
                todo.append(("piece", seg, cross))
                item = ("src", seg.parent)
            else:  # successor: the parent front reaches its line first
                item = ("flat", seg.parent, cross, seg.line)
    tris = [[node.point, 0, 0]]
    for step in reversed(todo):
        kind, node = step[0], step[1]
        if kind == "wait":
            _staircase(edges, tris, node.point, host=_host_of(node.parent), flex=True)
            assert tris[-1][1] <= node.time
            tris[-1][2] = node.time
        elif kind == "vertex":
            _staircase(edges, tris, node.point, host=_host_of(node.parent))
        elif kind == "arrived":
            assert tris[-1][0] == node.point and tris[-1][1] == node.time
        elif kind == "piece":
            target = _on_line(node, step[2], node.line)
            _staircase(edges, tris, target, host=_host_of(node.parent), flex=True)
            assert tris[-1][1] <= node.key
        else:  # front: depart the front's line and cross to the target line
            target_perp = step[3]
            tris[-1][2] = node.key
            assert target_perp != node.line
            t = node.key + abs(target_perp - node.line)
            tris.append([_on_line(node, step[2], target_perp), t, t])
    return tris


def _on_line(seg, cross, pv):
    """The point at crossing coordinate cross on seg's perpendicular line pv."""
    return (cross, pv) if seg.dir in ("N", "S") else (pv, cross)


def _staircase(edges, tris, target, host=None, flex=False):
    """Extend tris with a full-speed monotone staircase to target, departing
    at the tail's depart time.  host: edge index if the tail is a wait point
    there (forces a perpendicular first move).  flex: the target's arrival
    time is an upper bound, so departing early (skipping the wait) is fine.
    """
    p0 = tris[-1][0]
    t0 = tris[-1][2]
    if target == p0:
        return
    arrive0 = tris[-1][1]
    waiting = host is not None and arrive0 < t0
    forced = None
    if waiting:
        forced = "y" if edges[host].horizontal else "x"
        if forced == "y" and target[1] == p0[1]:
            forced = "z"
        elif forced == "x" and target[0] == p0[0]:
            forced = "z"
    if forced != "z":
        corners = _route(edges, p0, t0, target, forced)
        if corners is not None:
            _emit(tris, corners, t0)
            return
    if flex:
        corners = _route(edges, p0, arrive0, target, None)
        if corners is not None:
            tris[-1][2] = arrive0
            _emit(tris, corners, arrive0)
            return
    assert waiting, "unforced staircase must exist for a sound claim"
    corners = _route(edges, p0, t0, target, None)
    assert corners is not None
    c1 = corners[0]
    e = edges[host]
    slide = abs(c1[0] - p0[0]) + abs(c1[1] - p0[1])
    on_host = (
        c1[1] == p0[1] and e.lo <= c1[0] <= e.hi
        if e.horizontal
        else c1[0] == p0[0] and e.lo <= c1[1] <= e.hi
    )
    assert on_host and arrive0 + slide <= t0, "wait relocation failed"
    tris[-1][2] = arrive0
    tris.append([c1, arrive0 + slide, t0])
    _emit(tris, corners[1:], t0)


def _emit(tris, corners, t):
    prev = tris[-1][0]
    for c in corners:
        if c == prev:
            continue
        t += abs(c[0] - prev[0]) + abs(c[1] - prev[1])
        tris.append([c, t, t])
        prev = c


def _route(edges, a, t0, b, forced) -> Optional[List[Tuple[int, int]]]:
    """Corners of a legal full-speed monotone staircase from (a, t0) to b,
    including b, or None.  forced restricts the first move's axis."""
    sx = 1 if b[0] >= a[0] else -1
    sy = 1 if b[1] >= a[1] else -1
    if a[0] == b[0] or a[1] == b[1]:
        return [b] if _move_ok(edges, a, b, t0) else None
    mx, nx = min(a[0], b[0]), max(a[0], b[0])
    my, ny = min(a[1], b[1]), max(a[1], b[1])
    xs = {a[0], b[0]}
    ys = {a[1], b[1]}
    vert = {}  # supporting line -> edges, for O(1) single-step move checks
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
        # columns/rows where a crossing falls exactly on a window end
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
        # every vertical line inside [cols[i], cols[i+1]) is a grid column,
        # so only the departure column can block
        y = rows[j]
        for e in vert.get(cols[i], ()):
            if e.lo < y < e.hi and e.ta < t < e.td:
                return False
        return True

    def step_north_ok(i, j, t):
        x = cols[i]
        for e in horiz.get(rows[j], ()):
            if e.lo < x < e.hi and e.ta < t < e.td:
                return False
        return True

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
    corners = []
    for k in range(len(steps) - 1):
        if steps[k][2] != steps[k + 1][2]:
            corners.append((steps[k][0], steps[k][1]))
    corners.append(b)
    return corners


def _move_ok(edges, a, b, t) -> bool:
    """Axis move a -> b departing at t.  A crossing counts at the departure
    column (leaving a contact) but not at the arrival column."""
    if a[1] == b[1]:
        y = a[1]
        step = 1 if b[0] > a[0] else -1
        for e in edges:
            if e.horizontal:
                continue
            off = (e.line - a[0]) * step
            if off < 0 or (b[0] - e.line) * step <= 0:
                continue
            if e.lo < y < e.hi and e.ta < t + off < e.td:
                return False
    else:
        x = a[0]
        step = 1 if b[1] > a[1] else -1
        for e in edges:
            if not e.horizontal:
                continue
            off = (e.line - a[1]) * step
            if off < 0 or (b[1] - e.line) * step <= 0:
                continue
            if e.lo < x < e.hi and e.ta < t + off < e.td:
                return False
    return True
