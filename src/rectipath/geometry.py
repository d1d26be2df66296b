"""Scene and path primitives for rectilinear planning among transient segment obstacles.

All coordinates and times are exact rationals (``fractions.Fraction`` or plain
``int``; the two interoperate).  A float given to an edge or a scene is taken
as its exact binary fraction when the edge or scene is built, so every
planner, check and file sees the same number.  An obstacle is a closed
axis-parallel segment that exists during a closed time interval
``[appear, disappear]``.  A moving point may touch an obstacle at any time and
may slide along it, but it must not cross one transversally through its
relative interior at a time strictly inside ``(appear, disappear)``.  Crossing
exactly at the appearance or disappearance instant is legal, and passing
through a segment endpoint is always legal.

To keep the planners free of rational arithmetic, :class:`ScaledScene` rescales
a scene to integer coordinates with unit speed; results are mapped back exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple, Union

Coord = Union[int, Fraction]
Point = Tuple[Coord, Coord]


def _exact(v):
    """v, or the exact binary fraction of a float."""
    return Fraction(v) if isinstance(v, float) else v


def _exact_point(p):
    return (_exact(p[0]), _exact(p[1])) if isinstance(p[0], float) or isinstance(p[1], float) else p


def l1_distance(p: Point, q: Point) -> Coord:
    """Rectilinear (L1) distance between two points."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


@dataclass(frozen=True)
class TransientEdge:
    """Closed axis-parallel segment existing during ``[appear, disappear]``."""

    id: int
    p1: Point
    p2: Point
    appear: Coord
    disappear: Coord

    def __post_init__(self) -> None:
        object.__setattr__(self, "p1", _exact_point(self.p1))
        object.__setattr__(self, "p2", _exact_point(self.p2))
        object.__setattr__(self, "appear", _exact(self.appear))
        object.__setattr__(self, "disappear", _exact(self.disappear))

    @property
    def horizontal(self) -> bool:
        return self.p1[1] == self.p2[1]

    @property
    def vertical(self) -> bool:
        return self.p1[0] == self.p2[0]

    @property
    def line_coord(self) -> Coord:
        """The fixed coordinate: y for horizontal edges, x for vertical."""
        return self.p1[1] if self.horizontal else self.p1[0]

    @property
    def span(self) -> Tuple[Coord, Coord]:
        """Low/high varying coordinate along the edge axis."""
        if self.horizontal:
            a, b = self.p1[0], self.p2[0]
        else:
            a, b = self.p1[1], self.p2[1]
        return (a, b) if a <= b else (b, a)

    @property
    def endpoints(self) -> Tuple[Point, Point]:
        return (self.p1, self.p2)

    def contains_point(self, p: Point) -> bool:
        lo, hi = self.span
        if self.horizontal:
            return p[1] == self.line_coord and lo <= p[0] <= hi
        return p[0] == self.line_coord and lo <= p[1] <= hi


BBox = Tuple[Coord, Coord, Coord, Coord]  # xlo, xhi, ylo, yhi


@dataclass(frozen=True)
class Scene:
    """A planning instance: obstacles, speed bound and the two terminals."""

    edges: Tuple[TransientEdge, ...]
    vmax: Coord
    source: Point
    dest: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "vmax", _exact(self.vmax))
        object.__setattr__(self, "source", _exact_point(self.source))
        object.__setattr__(self, "dest", _exact_point(self.dest))

    @property
    def bbox(self) -> BBox:
        """The tight box around the edge endpoints and both terminals."""
        pts = [p for e in self.edges for p in e.endpoints] + [self.source, self.dest]
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        return (min(xs), max(xs), min(ys), max(ys))

    @property
    def vertices(self) -> Tuple[Point, ...]:
        out = []
        for e in self.edges:
            out.extend(e.endpoints)
        return tuple(out)


@dataclass(frozen=True)
class Waypoint:
    """A path stop: the point is occupied during ``[arrive, depart]``."""

    point: Point
    arrive: Coord
    depart: Coord


@dataclass(frozen=True)
class TimedPath:
    waypoints: Tuple[Waypoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints", tuple(self.waypoints))

    @property
    def arrival(self) -> Coord:
        return self.waypoints[-1].arrive


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))

    def codes(self) -> set:
        return {i.code for i in self.issues}

    def __repr__(self) -> str:  # keeps assertion failures readable
        if self.ok:
            return "<valid>"
        return "<invalid: " + "; ".join(f"{i.code}: {i.message}" for i in self.issues) + ">"


def _touching_pairs(geos):
    """Sorted (i, j, overlap) for i < j: the edges of geos[i] and geos[j],
    each (horizontal, line, lo, hi), share a supporting line (overlap tells
    whether their closed spans meet) or cross (overlap True).

    Collinear pairs come from grouping by line; crossings from a sweep over x
    that keeps the horizontal edges whose closed span holds x in y order, so
    the cost is O(n log n + k) for k pairs.
    """
    pairs = []
    lines = {}
    events = []  # at equal x: horizontals enter, verticals query, horizontals leave
    for i, (horizontal, line, lo, hi) in enumerate(geos):
        lines.setdefault((horizontal, line), []).append(i)
        if horizontal:
            events.append((lo, 0, i))
            events.append((hi, 2, i))
        else:
            events.append((line, 1, i))
    for group in lines.values():
        for pos, i in enumerate(group):
            alo, ahi = geos[i][2:]
            for j in group[pos + 1 :]:
                blo, bhi = geos[j][2:]
                pairs.append((i, j, alo <= bhi and blo <= ahi))
    events.sort()
    live = []  # (y, index) of the horizontal edges spanning the sweep line
    for _, kind, i in events:
        _, line, lo, hi = geos[i]
        if kind == 0:
            insort(live, (line, i))
        elif kind == 2:
            del live[bisect_left(live, (line, i))]
        else:
            for k in range(bisect_left(live, (lo, -1)), len(live)):
                y, j = live[k]
                if y > hi:
                    break
                pairs.append((min(i, j), max(i, j), True))
    pairs.sort()
    return pairs


def validate_scene(scene: Scene) -> ValidationReport:
    """Check the scene invariants.

    Issue codes: ``NonAxisParallel``, ``BadInterval``, ``OverlappingEdges``,
    ``CollinearEdges``, ``TerminalOnEdge``, ``BadSpeed``.  Each edge's
    endpoints are read once, into the (horizontal, line, lo, hi) that every
    later check works on.
    """
    rep = ValidationReport()
    if scene.vmax <= 0:
        rep.add("BadSpeed", f"vmax must be positive, got {scene.vmax}")
    proper, geos = [], []  # the proper axis-parallel edges and their geometry
    for e in scene.edges:
        (x1, y1), (x2, y2) = e.p1, e.p2
        if y1 == y2 and x1 != x2:
            proper.append(e)
            geos.append((True, y1, x1, x2) if x1 < x2 else (True, y1, x2, x1))
        elif x1 == x2 and y1 != y2:
            proper.append(e)
            geos.append((False, x1, y1, y2) if y1 < y2 else (False, x1, y2, y1))
        else:
            rep.add("NonAxisParallel", f"edge {e.id} is not a proper axis-parallel segment")
        if not (0 <= e.appear < e.disappear):
            rep.add(
                "BadInterval",
                f"edge {e.id} interval [{e.appear}, {e.disappear}] is not 0 <= appear < disappear",
            )
    for i, j, overlap in _touching_pairs(geos):
        a, b = proper[i], proper[j]
        if overlap:
            rep.add("OverlappingEdges", f"edges {a.id} and {b.id} intersect")
        else:
            rep.add("CollinearEdges", f"edges {a.id} and {b.id} share a supporting line")
    for name, p in (("source", scene.source), ("dest", scene.dest)):
        px, py = p
        for e, (horizontal, line, lo, hi) in zip(proper, geos):
            # p on the edge's relative interior, endpoints left out
            if (py == line and lo < px < hi) if horizontal else (px == line and lo < py < hi):
                rep.add("TerminalOnEdge", f"{name} lies on the interior of edge {e.id}")
    return rep


# ---------------------------------------------------------------------------
# Path validation
# ---------------------------------------------------------------------------


def _crossing_issues(rep, scene: Scene, a: Point, b: Point, depart: Coord) -> None:
    """Check one axis-parallel move (leaving a at time depart) for illegal crossings.

    A crossing is illegal when the move passes through an edge's relative
    interior at a time strictly inside (appear, disappear).  Leaving a contact
    point counts as crossing at the departure instant; arriving onto an edge is
    contact and always legal, as is motion collinear with an edge.

    Time comparisons are scaled by vmax so the arithmetic stays exact.
    """
    vm = scene.vmax
    dep = depart * vm
    if a[0] == b[0]:
        k = 1  # vertical move, may cross horizontal edges
    elif a[1] == b[1]:
        k = 0  # horizontal move, may cross vertical edges
    else:
        return
    c = a[1 - k]  # the move's fixed coordinate
    lo, hi = (a[k], b[k]) if a[k] <= b[k] else (b[k], a[k])
    for e in scene.edges:
        if not (e.horizontal if k else e.vertical):
            continue
        line = e.line_coord
        s0, s1 = e.span
        if not (s0 < c < s1):
            continue  # misses the interior (tip passage is legal)
        if not (lo <= line <= hi) or line == b[k]:
            continue
        t = dep + abs(line - a[k])
        if e.appear * vm < t < e.disappear * vm:
            rep.add("CollisionAt", f"move {a}->{b} crosses edge {e.id} at scaled time {t}")


def _monotone(vals) -> bool:
    inc = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    dec = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    return inc or dec


def validate_path(scene: Scene, path: TimedPath, claimed_arrival: Coord) -> ValidationReport:
    """Check a timed path against the movement model.

    Issue codes: ``EndpointMismatch``, ``ArrivalMismatch``, ``SpeedViolation``,
    ``CollisionAt``, ``BadWaitPoint``, ``NonPerpendicularDeparture``,
    ``NonMonotoneSubpath``.
    """
    rep = ValidationReport()
    wps = path.waypoints
    if not wps:
        rep.add("EndpointMismatch", "empty path")
        return rep
    if wps[0].point != scene.source or wps[0].arrive != 0:
        rep.add("EndpointMismatch", "path does not start at the source at time 0")
    if wps[-1].point != scene.dest:
        rep.add("EndpointMismatch", "path does not end at the destination")
    if wps[-1].arrive != claimed_arrival:
        rep.add(
            "ArrivalMismatch",
            f"path arrives at {wps[-1].arrive}, claimed {claimed_arrival}",
        )

    for w in wps:
        if w.depart < w.arrive:
            rep.add("BadWaitPoint", f"waypoint {w.point} departs before it arrives")

    # Moves must be axis-parallel at speed exactly vmax.
    for w1, w2 in zip(wps, wps[1:]):
        a, b = w1.point, w2.point
        d = l1_distance(a, b)
        if a[0] != b[0] and a[1] != b[1]:
            rep.add("SpeedViolation", f"move {a}->{b} is not axis-parallel")
            continue
        if (w2.arrive - w1.depart) * scene.vmax != d:
            rep.add(
                "SpeedViolation",
                f"move {a}->{b} takes {w2.arrive - w1.depart}, expected {d}/{scene.vmax}",
            )
            continue
        if d > 0:
            _crossing_issues(rep, scene, a, b, w1.depart)

    # Wait points: on an edge, departing exactly at its disappearance, with a
    # perpendicular first move afterwards.
    for idx, w in enumerate(wps):
        if w.depart <= w.arrive:
            continue
        host = None
        for e in scene.edges:
            if e.contains_point(w.point) and e.disappear == w.depart:
                host = e
                break
        if host is None:
            rep.add(
                "BadWaitPoint",
                f"wait at {w.point} does not end at a hosting edge's disappearance",
            )
            continue
        if idx + 1 >= len(wps):
            rep.add("BadWaitPoint", f"wait at {w.point} has no departure move")
            continue
        nxt = wps[idx + 1].point
        dx, dy = nxt[0] - w.point[0], nxt[1] - w.point[1]
        perpendicular = (dy != 0 and dx == 0) if host.horizontal else (dx != 0 and dy == 0)
        if not perpendicular:
            rep.add(
                "NonPerpendicularDeparture",
                f"departure from wait point {w.point} is not perpendicular to edge {host.id}",
            )

    # Between consecutive obstacle-vertex visits the subpath is monotone in both
    # coordinates.  Visits include pass-throughs in the middle of a move.
    verts = set(scene.vertices)
    pts = [w.point for w in wps]
    marks = [0]
    for i in range(1, len(pts)):
        if pts[i] in verts:
            marks.append(i)
            continue
        a, b = pts[i - 1], pts[i]
        for v in verts:
            on_move = (
                a[0] == b[0] == v[0] and min(a[1], b[1]) < v[1] < max(a[1], b[1])
            ) or (
                a[1] == b[1] == v[1] and min(a[0], b[0]) < v[0] < max(a[0], b[0])
            )
            if on_move:
                marks.append(i)  # the leg through v ends a monotone stretch here
                break
    marks.append(len(pts) - 1)
    marks = sorted(set(marks))
    for lo, hi in zip(marks, marks[1:]):
        seg = pts[lo : hi + 1]
        if not (_monotone([p[0] for p in seg]) and _monotone([p[1] for p in seg])):
            rep.add(
                "NonMonotoneSubpath",
                f"subpath between vertex visits {seg[0]}..{seg[-1]} is not monotone",
            )
    return rep


# ---------------------------------------------------------------------------
# Integer scaling
# ---------------------------------------------------------------------------


def _denoms(values) -> int:
    m = 1
    for v in values:
        if type(v) is not int:  # an int's denominator is 1
            m = math.lcm(m, Fraction(v).denominator)
    return m


@dataclass(slots=True, unsafe_hash=True)
class IntEdge:
    """Edge in scaled integer units (vmax = 1, time measured in distance units).

    A slotted record built by plain assignment: a frozen dataclass would pay
    an ``object.__setattr__`` call per field at each of a scene's builds.
    Nothing writes to one after its build, so it hashes by value as a frozen
    one would."""

    id: int
    horizontal: bool
    line: int  # y for horizontal, x for vertical
    lo: int
    hi: int
    ta: int
    td: int

    @property
    def endpoints(self):
        if self.horizontal:
            return ((self.lo, self.line), (self.hi, self.line))
        return ((self.line, self.lo), (self.line, self.hi))


class ScaledScene:
    """A scene rescaled so every coordinate and time is an integer and vmax = 1.

    Positions scale by S (the lcm of coordinate denominators and of the
    denominators of time*vmax products); times map to t*vmax*S, which makes one
    time unit equal one distance unit.  The bounding box is padded by one
    original unit so terminals never sit on its boundary and degenerate scenes
    keep proper quadrants.
    """

    def __init__(self, scene: Scene):
        # Integer coordinates, times and vmax skip Fraction: they scale to
        # the same ints by int arithmetic; fractions keep the Fraction formula.
        vm = scene.vmax
        int_vm = type(vm) is int
        coords = [scene.source[0], scene.source[1], scene.dest[0], scene.dest[1]]
        times = []
        for e in scene.edges:
            coords += e.p1
            coords += e.p2
            times.append(e.appear)
            times.append(e.disappear)
        s = math.lcm(_denoms(coords), _denoms([t * vm for t in times]))
        self.scene = scene
        self.coord_scale = s
        self.time_scale = Fraction(s) * vm  # t_int = t * time_scale
        # the integer divisor of time_out's fast path, or 0 when time_scale
        # is no integer
        self._time_div = self.time_scale.numerator if self.time_scale.denominator == 1 else 0

        def cx(v):
            return v * s if type(v) is int else int(Fraction(v) * s)

        def ct(t):
            return t * vm * s if int_vm and type(t) is int else int(Fraction(t) * self.time_scale)

        self.source = (cx(scene.source[0]), cx(scene.source[1]))
        self.dest = (cx(scene.dest[0]), cx(scene.dest[1]))
        # one pass over the edges: each edge's line and span as
        # TransientEdge's horizontal, line_coord and span give them, scaled,
        # and the box's coordinates
        self.edges = edges = []
        xs = [self.source[0], self.dest[0]]
        ys = [self.source[1], self.dest[1]]
        for e in scene.edges:
            (x1, y1), (x2, y2) = e.p1, e.p2
            horizontal = y1 == y2
            if horizontal:
                line, lo, hi = cx(y1), cx(x1), cx(x2)
            else:
                line, lo, hi = cx(x1), cx(y1), cx(y2)
            if hi < lo:
                lo, hi = hi, lo
            edges.append(IntEdge(e.id, horizontal, line, lo, hi, ct(e.appear), ct(e.disappear)))
            if horizontal:
                xs += lo, hi
                ys.append(line)
            else:
                xs.append(line)
                ys += lo, hi
        pad = s
        self.bbox = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
        self.verts = {p for e in edges for p in e.endpoints}  # the scene's vertices

    # -- mapping back to scene units ------------------------------------

    # An int that an integer scale divides maps back to the same int by
    # integer division; everything else takes the Fraction formula.

    def time_out(self, t_int: int) -> Coord:
        d = self._time_div
        if d and type(t_int) is int and t_int % d == 0:
            return t_int // d
        f = Fraction(t_int, 1) / self.time_scale
        return int(f) if f.denominator == 1 else f

    def coord_out(self, c_int: int) -> Coord:
        s = self.coord_scale
        if type(c_int) is int and c_int % s == 0:
            return c_int // s
        f = Fraction(c_int, s)
        return int(f) if f.denominator == 1 else f

    def point_out(self, p) -> Point:
        return (self.coord_out(p[0]), self.coord_out(p[1]))
