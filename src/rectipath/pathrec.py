"""Turn wavefront provenance into concrete timed paths.

Every settled label and map cell carries a provenance chain, a node whose
parent links lead back to the start: staircase hops between point sources
(start, settled vertices, wait points) and flat hops along waited-out edges.
Replay needs only the chain and the scene's stop oracle, whose edge list
names the wait hosts and whose stabbers list each hop's possible blockers.

A staircase hop from a, departing at t0, toward b runs at full speed, so in
coordinates u = sx*(x - a.x) and v = sy*(y - a.y) (signs pointing at b) the
point (u, v) is crossed at the fixed time t0 + u + v.  Each edge in the box
therefore blocks a static set:

- a horizontal edge on row v blocks north steps on one open interval of u,
  its span cut to (ta - t0 - v, td - t0 - v);
- a vertical edge on column u blocks east steps leaving that column on one
  open interval of v, its span cut to (ta - t0 - u, td - t0 - u): a wall that
  enters a sorted list of active columns after one event row and leaves it
  at another.

`_route` sweeps the event rows (0 and the top row, the horizontal edges'
rows, the walls' interval ends).  A row's entries are the previous row's
reach minus that row's blocked north intervals; each entry interval then
extends east to the first active wall at or beyond its right end (a
bisection), which gives the row's reach.  Closed intervals are exact:
`ScaledScene` makes every edge, start point and time an integer (only a
map query's target may be fractional), and an open blocked interval leaves
closed ones behind.  Rows strictly between event rows change nothing.  The
target is reachable when the top row's reach ends at it; the backtrack walks
down from it and enters each row at the leftmost entry from which no active
wall separates the column the walk must reach, so the staircase turns north
as early as it can.  A wait's forced first axis keeps row 0's reach at the
start ("y") or takes the start out of row 1's entries ("x").

The edges come from one blocker query of the stop oracle
(:meth:`~rectipath.stopindex.StopOracle.blockers`), not from a scan of the
scene: its shadow transform keeps only the edges on a line in [0, h) (or
[0, w)) whose open span meets the hop's cross range and whose open window
meets the hop's crossing times, a superset of the edges the sweep keeps.
The checks below still drop the rest, so routes do not depend on how many
extra candidates come back.  A hop costs O(log n) bisects and a few
word-parallel big-int operations on the stabbers' bits, plus O((m + k) log m)
for its m candidates and k intervals touched; no step scans the scene's
edges.

A straight hop is the same sweep on a box one column wide (w = 0: only the
fences across that column block it) or one row high (h = 0: only the walls
on row 0).  A forced axis across a straight hop leaves no route: "x" empties
row 1's entries when w = 0, and "y" holds row 0's reach at the start when
h = 0.

A robot that waited on an edge departs perpendicular to it: the wait point
and its departure time are where and when the sweep spawned the wait's
wavelets, so the hop out of it is the one forced staircase from there.  If
that staircase does not exist, the target on the host's own line included,
the hop raises instead of moving the wait or departing early.

A chain that cannot be replayed, or a replay that misses its label's point
or time, raises `WitnessError`; the checks do not depend on asserts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import List, Optional, Tuple

from .engine import SrcNode
from .geometry import TimedPath, Waypoint

Tri = List  # [point, arrive, depart], mutable while building


class WitnessError(RuntimeError):
    """A provenance chain could not be replayed into a legal path, or the
    replayed path does not reach its label's point at its label's time."""


def build_path(engine) -> TimedPath:
    sc = engine.sc
    t, node = engine.labels[engine.dest]
    tris = _from_source(engine.stop, node)
    if tris[-1][0] != engine.dest or tris[-1][1] != t:
        raise WitnessError(f"witness ends at {tris[-1][0]}@{tris[-1][1]}, label {engine.dest}@{t}")
    wps = tuple(Waypoint(sc.point_out(p), sc.time_out(a), sc.time_out(b)) for p, a, b in tris)
    return TimedPath(wps)


def _host_of(src_node):
    return src_node.host if src_node.kind == "wait" else None


def _from_source(stop, node) -> List[Tri]:
    """Timed points from the start to the point source node; stop is the
    scene's StopOracle."""
    return _replay(stop, ("src", node))


def _from_flat(stop, node, cross, target_perp) -> List[Tri]:
    """Timed points from the start to where the flat front node reaches
    the line perp = target_perp at crossing coordinate cross."""
    return _replay(stop, ("flat", node, cross, target_perp))


def _replay(stop, item) -> List[Tri]:
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
            _staircase(stop, tris, node.point, host=_host_of(node.parent))
            if tris[-1][1] > node.time:
                raise WitnessError(f"wait point {node.point} reached after its host vanished")
            tris[-1][2] = node.time
        elif kind == "vertex":
            _staircase(stop, tris, node.point, host=_host_of(node.parent))
        elif kind == "arrived":
            if tris[-1][0] != node.point or tris[-1][1] != node.time:
                raise WitnessError(f"replay reaches {tris[-1][0]}@{tris[-1][1]}, label {node.point}@{node.time}")
        elif kind == "piece":
            target = _on_line(node, step[2], node.line)
            _staircase(stop, tris, target, host=_host_of(node.parent))
            if tris[-1][1] > node.key:
                raise WitnessError(f"piece point {target} reached after its edge vanished")
        else:  # front: depart the front's line and cross to the target line
            target_perp = step[3]
            tris[-1][2] = node.key
            if target_perp == node.line:
                raise WitnessError(f"front on line {node.line} has no line to cross to")
            t = node.key + abs(target_perp - node.line)
            tris.append([_on_line(node, step[2], target_perp), t, t])
    return tris


def _on_line(seg, cross, pv):
    """The point at crossing coordinate cross on seg's perpendicular line pv."""
    return (cross, pv) if seg.dir in ("N", "S") else (pv, cross)


def _staircase(stop, tris, target, host=None):
    """Extend tris with a full-speed monotone staircase to target, departing
    at the tail's depart time.  host: edge index (into stop.edges) if the
    tail is a wait point there; a tail that waited (arrive < depart) must
    first move perpendicular to the host, so a target on the host's line has
    no route.
    """
    p0, arrive0, t0 = tris[-1]
    if target == p0:
        return
    forced = None
    if host is not None and arrive0 < t0:
        forced = "y" if stop.edges[host].horizontal else "x"
    corners = _route(stop, p0, t0, target, forced)
    if corners is None:
        raise WitnessError(f"no staircase {p0}@{t0} -> {target}")
    _emit(tris, corners, t0)


def _emit(tris, corners, t):
    prev = tris[-1][0]
    for c in corners:
        if c == prev:
            continue
        t += abs(c[0] - prev[0]) + abs(c[1] - prev[1])
        tris.append([c, t, t])
        prev = c


def _route(stop, a, t0, b, forced) -> Optional[List[Tuple[int, int]]]:
    """Corners of a legal full-speed monotone staircase from (a, t0) to b,
    including b, or None, among the blockers stop lists for the hop.
    forced restricts the first move's axis."""
    sx = 1 if b[0] >= a[0] else -1
    sy = 1 if b[1] >= a[1] else -1
    w, h = sx * (b[0] - a[0]), sy * (b[1] - a[1])
    fences = {}  # row -> open column intervals where north steps are blocked
    walls = []  # (p, q, column): east steps from column are blocked on rows in (p, q)
    for e in stop.blockers(a, t0, b):
        if e.horizontal:
            v = sy * (e.line - a[1])
            lo, hi = sx * (e.lo - a[0]), sx * (e.hi - a[0])
            if sx < 0:
                lo, hi = hi, lo
            p, q = max(lo, e.ta - t0 - v), min(hi, e.td - t0 - v)
            if v < h and p < q and 0 < q and p < w:
                fences.setdefault(v, []).append((p, q))
        else:
            u = sx * (e.line - a[0])
            lo, hi = sy * (e.lo - a[1]), sy * (e.hi - a[1])
            if sy < 0:
                lo, hi = hi, lo
            p, q = max(lo, e.ta - t0 - u), min(hi, e.td - t0 - u)
            if u < w and p < q and 0 < q and p < h:
                walls.append((p, q, u))
    rows = {0, h}
    rows.update(fences)
    for p, q, _ in walls:
        rows.update(x for x in (p, q) if 0 < x < h)
    rows = sorted(rows)

    entries = []  # per row: sorted disjoint closed column intervals entered from below
    reach = None
    for k, active in enumerate(_wall_rows(walls, rows)):
        if k == 0:
            ent = [(0, 0)]
        else:
            ent = _cut(reach, sorted(fences.get(rows[k - 1], ())))
            if k == 1 and forced == "x" and ent and ent[0][0] == 0:
                hi = ent[0][1]  # the start itself may not step north
                ent[:1] = [(min(1, hi), hi)] if hi > 0 else []
            if not ent:
                return None
        entries.append(ent)
        reach = ent if k == 0 and forced == "y" else _extend(ent, active, w)
    if reach[-1][1] != w:
        return None

    # Walk down from b.  Each row is entered at its leftmost entry column
    # that no active wall separates from the column the walk must reach.
    cols = [w]
    u = w
    flipped = [(-q, -p, c) for p, q, c in walls]
    for k, active in zip(range(len(rows) - 1, -1, -1), _wall_rows(flipped, [-v for v in reversed(rows)])):
        ent = entries[k]
        i = bisect_left(active, u)
        if i == 0:
            u = ent[0][0]
        else:
            c = active[i - 1]
            lo, hi = ent[bisect_right(ent, c, key=itemgetter(1))]
            u = lo if lo > c else min(c + 1, hi, u)
        cols.append(u)
    cols.reverse()  # cols[k] enters row k; cols[k + 1] leaves it northward
    corners = []
    for k, v in enumerate(rows):
        if cols[k] != cols[k + 1]:
            corners.append((a[0] + sx * cols[k], a[1] + sy * v))
            corners.append((a[0] + sx * cols[k + 1], a[1] + sy * v))
    if corners and corners[0] == a:
        corners.pop(0)
    if not corners or corners[-1] != b:
        corners.append(b)
    return corners


def _wall_rows(walls, rows):
    """For each of the increasing rows, the sorted columns of the walls
    (p, q, column) with p < row < q: one list, updated in place."""
    ins = sorted(walls)
    outs = sorted(walls, key=itemgetter(1))
    active = []
    i = j = 0
    for v in rows:
        while i < len(ins) and ins[i][0] < v:
            insort(active, ins[i][2])
            i += 1
        while j < len(outs) and outs[j][1] <= v:
            del active[bisect_left(active, outs[j][2])]
            j += 1
        yield active


def _cut(spans, holes):
    """Closed spans minus open holes, both sorted by their low ends."""
    out = []
    i = 0
    for lo, hi in spans:
        while i < len(holes) and holes[i][1] <= lo:
            i += 1
        j = i
        while j < len(holes) and holes[j][0] < hi:
            p, q = holes[j]
            if lo <= p:
                out.append((lo, p))
            lo = max(lo, q)
            j += 1
        if lo <= hi:
            out.append((lo, hi))
    return out


def _extend(spans, active, w):
    """Extend each closed span east to the first active wall at or beyond its
    high end (or to w), merging spans that meet."""
    out = []
    for lo, hi in spans:
        i = bisect_left(active, hi)
        end = active[i] if i < len(active) else w
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], end)
        else:
            out.append((lo, end))
    return out

