"""Scene and path primitives for rectilinear planning among transient segment obstacles.

All coordinates and times are exact rationals (``fractions.Fraction`` or plain
``int``; the two interoperate).  An obstacle is a closed axis-parallel segment
that exists during a closed time interval ``[appear, disappear]``.  A moving
point may touch an obstacle at any time and may slide along it, but it must not
cross one transversally through its relative interior at a time strictly inside
``(appear, disappear)``.  Crossing exactly at the appearance or disappearance
instant is legal, and passing through a segment endpoint is always legal.

To keep the planners free of rational arithmetic, :class:`ScaledScene` rescales
a scene to integer coordinates with unit speed; results are mapped back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

Coord = Union[int, Fraction]
Point = Tuple[Coord, Coord]


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

    def interior_contains(self, p: Point) -> bool:
        """True when p lies on the edge but is not one of its endpoints."""
        lo, hi = self.span
        if self.horizontal:
            return p[1] == self.line_coord and lo < p[0] < hi
        return p[0] == self.line_coord and lo < p[1] < hi


BBox = Tuple[Coord, Coord, Coord, Coord]  # xlo, xhi, ylo, yhi


def _auto_bbox(edges: Sequence[TransientEdge], pts: Sequence[Point]) -> BBox:
    xs = [p[0] for e in edges for p in e.endpoints] + [p[0] for p in pts]
    ys = [p[1] for e in edges for p in e.endpoints] + [p[1] for p in pts]
    return (min(xs), max(xs), min(ys), max(ys))


@dataclass(frozen=True)
class Scene:
    """A planning instance: obstacles, speed bound and the two terminals."""

    edges: Tuple[TransientEdge, ...]
    vmax: Coord
    source: Point
    dest: Point
    bbox: Optional[BBox] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.bbox is None:
            object.__setattr__(
                self, "bbox", _auto_bbox(self.edges, (self.source, self.dest))
            )

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


def _segments_intersect(a: TransientEdge, b: TransientEdge) -> bool:
    # Closed axis-parallel segments; static geometry only.
    alo, ahi = a.span
    blo, bhi = b.span
    if a.horizontal == b.horizontal:
        if a.line_coord != b.line_coord:
            return False
        return alo <= bhi and blo <= ahi
    h, v = (a, b) if a.horizontal else (b, a)
    hlo, hhi = h.span
    vlo, vhi = v.span
    return hlo <= v.line_coord <= hhi and vlo <= h.line_coord <= vhi


def validate_scene(scene: Scene) -> ValidationReport:
    """Check the scene invariants.

    Issue codes: ``NonAxisParallel``, ``BadInterval``, ``OverlappingEdges``,
    ``CollinearEdges``, ``TerminalOnEdge``, ``BadSpeed``.
    """
    rep = ValidationReport()
    if scene.vmax <= 0:
        rep.add("BadSpeed", f"vmax must be positive, got {scene.vmax}")
    for e in scene.edges:
        if not (e.horizontal or e.vertical) or e.p1 == e.p2:
            rep.add("NonAxisParallel", f"edge {e.id} is not a proper axis-parallel segment")
        if not (0 <= e.appear < e.disappear):
            rep.add(
                "BadInterval",
                f"edge {e.id} interval [{e.appear}, {e.disappear}] is not 0 <= appear < disappear",
            )
    proper = [e for e in scene.edges if (e.horizontal or e.vertical) and e.p1 != e.p2]
    for i, a in enumerate(proper):
        for b in proper[i + 1 :]:
            if _segments_intersect(a, b):
                rep.add("OverlappingEdges", f"edges {a.id} and {b.id} intersect")
            elif a.horizontal == b.horizontal and a.line_coord == b.line_coord:
                rep.add("CollinearEdges", f"edges {a.id} and {b.id} share a supporting line")
    for name, p in (("source", scene.source), ("dest", scene.dest)):
        for e in proper:
            if e.interior_contains(p):
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
    if a[0] == b[0]:  # vertical move, may cross horizontal edges
        x = a[0]
        lo, hi = (a[1], b[1]) if a[1] <= b[1] else (b[1], a[1])
        for e in scene.edges:
            if not e.horizontal:
                continue
            y = e.line_coord
            s0, s1 = e.span
            if not (s0 < x < s1):
                continue  # misses the interior (tip passage is legal)
            if not (lo <= y <= hi) or y == b[1]:
                continue
            t = dep + abs(y - a[1])
            if e.appear * vm < t < e.disappear * vm:
                rep.add("CollisionAt", f"move {a}->{b} crosses edge {e.id} at scaled time {t}")
    elif a[1] == b[1]:  # horizontal move, may cross vertical edges
        y = a[1]
        lo, hi = (a[0], b[0]) if a[0] <= b[0] else (b[0], a[0])
        for e in scene.edges:
            if not e.vertical:
                continue
            x = e.line_coord
            s0, s1 = e.span
            if not (s0 < y < s1):
                continue
            if not (lo <= x <= hi) or x == b[0]:
                continue
            t = dep + abs(x - a[0])
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
        m = math.lcm(m, Fraction(v).denominator)
    return m


@dataclass(frozen=True)
class IntEdge:
    """Edge in scaled integer units (vmax = 1, time measured in distance units)."""

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
        vm = scene.vmax
        vals = [scene.source[0], scene.source[1], scene.dest[0], scene.dest[1]]
        tvals = []
        for e in scene.edges:
            vals.extend((e.p1[0], e.p1[1], e.p2[0], e.p2[1]))
            tvals.extend((Fraction(e.appear) * vm, Fraction(e.disappear) * vm))
        s = math.lcm(_denoms(vals), _denoms(tvals))
        self.scene = scene
        self.coord_scale = s
        self.time_scale = Fraction(s) * vm  # t_int = t * time_scale

        def cx(v):
            return int(Fraction(v) * s)

        self.source = (cx(scene.source[0]), cx(scene.source[1]))
        self.dest = (cx(scene.dest[0]), cx(scene.dest[1]))
        self.edges = []
        for e in scene.edges:
            lo, hi = e.span
            self.edges.append(
                IntEdge(
                    id=e.id,
                    horizontal=e.horizontal,
                    line=cx(e.line_coord),
                    lo=cx(lo),
                    hi=cx(hi),
                    ta=int(Fraction(e.appear) * self.time_scale),
                    td=int(Fraction(e.disappear) * self.time_scale),
                )
            )
        xs = [self.source[0], self.dest[0]]
        ys = [self.source[1], self.dest[1]]
        for e in self.edges:
            for (px, py) in e.endpoints:
                xs.append(px)
                ys.append(py)
        pad = s
        self.bbox = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)

    # -- mapping back to scene units ------------------------------------

    def time_out(self, t_int: int) -> Coord:
        f = Fraction(t_int, 1) / self.time_scale
        return int(f) if f.denominator == 1 else f

    def coord_out(self, c_int: int) -> Coord:
        f = Fraction(c_int, self.coord_scale)
        return int(f) if f.denominator == 1 else f

    def point_out(self, p) -> Point:
        return (self.coord_out(p[0]), self.coord_out(p[1]))

    def point_in(self, p: Point):
        x = Fraction(p[0]) * self.coord_scale
        y = Fraction(p[1]) * self.coord_scale
        if x.denominator != 1 or y.denominator != 1:
            return None  # not representable on the integer grid
        return (int(x), int(y))
