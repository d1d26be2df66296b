"""Independent upper-bound cross-check: earliest-arrival Dijkstra on the
Hanan grid.

The grid is the set of intersections of all vertical and horizontal lines
through edge endpoints, the terminals, and any extra targets.  Every
supporting line of an obstacle edge is a grid line, so a transversal crossing
of an edge can only happen at a grid node.  Every grid route it finds is a
legal path, so its answers are never below the true earliest arrival; they
are not always equal to it.  The grid has no line through the points that
crossing instants force a path to pass: on ``perfbench/scenes.ladder_scene(rp,
86)`` it answers 50 at (17, 30) and 59 at (17, 39), where the planners and
the map answer 49 and 58 with witnesses that pass ``validate_path``
(``tests/test_exact_labels.py`` pins those values; an exact reference by
time discretization is ROADMAP item 2).  So a planner answer above it is a
fault, one below it needs a valid witness, and agreement with it does not
prove an answer optimal.

Movement rule per step: departing node a toward a neighbor at time tau is
delayed to an edge's disappearance when the move is perpendicular to an edge
that contains a in its relative interior and tau falls strictly inside the
edge's existence interval.  This is memoryless and slightly conservative: it
also delays a retreat back to the side the path came from, which the
continuous model allows but which never improves the optimum (the retreat is
replaceable by waiting at the previous node).

All arithmetic is exact (ints and fractions); nothing here shares code with
the planners.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .geometry import Point, Scene, TransientEdge
from .scenario import check_scene


class ParamsInfeasible(ValueError):
    """random_scene could not satisfy its constraints in the given ranges."""


def _grid(scene: Scene, targets: Sequence[Point]):
    """The Hanan grid through the edge endpoints, the terminals and targets:
    its sorted axes, a node id function, and per node the edge whose
    relative interior hosts it, split by the orientation a departing move
    would cross (horizontal edges block vertical moves)."""
    xs = {scene.source[0], scene.dest[0]}
    ys = {scene.source[1], scene.dest[1]}
    for e in scene.edges:
        for (px, py) in e.endpoints:
            xs.add(px)
            ys.add(py)
    for (px, py) in targets:
        xs.add(px)
        ys.add(py)
    xs, ys = sorted(xs), sorted(ys)
    ny = len(ys)

    def node_id(x, y):
        return bisect_left(xs, x) * ny + bisect_left(ys, y)

    host_h: Dict[int, TransientEdge] = {}
    host_v: Dict[int, TransientEdge] = {}
    for e in scene.edges:
        lo, hi = e.span
        if e.horizontal:
            for x in xs[bisect_left(xs, lo) : bisect_left(xs, hi) + 1]:
                if lo < x < hi:
                    host_h[node_id(x, e.line_coord)] = e
        else:
            for y in ys[bisect_left(ys, lo) : bisect_left(ys, hi) + 1]:
                if lo < y < hi:
                    host_v[node_id(e.line_coord, y)] = e
    return xs, ys, node_id, host_h, host_v


def oracle_arrivals(scene: Scene, targets: Sequence[Point]):
    """Earliest arrival at each target over the shared grid, by one Dijkstra:
    never below the true earliest arrival (see the module docstring)."""
    xs, ys, node_id, host_h, host_v = _grid(scene, targets)
    nx, ny = len(xs), len(ys)
    vm = scene.vmax

    start = node_id(*scene.source)
    dist: dict = {start: 0}
    heap = [(0, start)]
    while heap:
        t, u = heapq.heappop(heap)
        if dist.get(u) != t:
            continue
        i, j = divmod(u, ny)
        x, y = xs[i], ys[j]
        for di, dj, vertical_move in ((1, 0, False), (-1, 0, False), (0, 1, True), (0, -1, True)):
            i2, j2 = i + di, j + dj
            if not (0 <= i2 < nx and 0 <= j2 < ny):
                continue
            host = host_h.get(u) if vertical_move else host_v.get(u)
            dep = t
            if host is not None and host.appear < t < host.disappear:
                dep = host.disappear
            cost = Fraction(abs(xs[i2] - x) + abs(ys[j2] - y)) / vm
            cand = dep + cost
            v = i2 * ny + j2
            if v not in dist or cand < dist[v]:
                dist[v] = cand
                heapq.heappush(heap, (cand, v))
    out = []
    for p in targets:
        val = dist.get(node_id(*p))
        if val is not None and isinstance(val, Fraction) and val.denominator == 1:
            val = int(val)
        out.append(val)
    return out


def oracle_plan(scene: Scene, target: Optional[Point] = None):
    """oracle_arrivals at one target (default: dest), an upper bound on the
    earliest arrival there."""
    return oracle_arrivals(scene, [scene.dest if target is None else target])[0]


# ---------------------------------------------------------------------------
# Scene fuzzer
# ---------------------------------------------------------------------------


class _Placed:
    """Edges placed so far, per orientation their sorted supporting lines and
    the matching spans, for the general-position test: a candidate must not
    share a supporting line with an edge of its orientation nor touch a
    perpendicular edge, and only perpendicular edges whose line lies in its
    span can touch it."""

    def __init__(self):
        self.lines = {True: [], False: []}  # horizontal? -> sorted lines
        self.spans = {True: [], False: []}  # the matching (lo, hi)

    def place(self, horizontal: bool, line: int, lo: int, hi: int) -> bool:
        """Add the edge unless it breaks general position; True if added."""
        lines = self.lines[horizontal]
        i = bisect_left(lines, line)
        if i < len(lines) and lines[i] == line:
            return False
        across, spans = self.lines[not horizontal], self.spans[not horizontal]
        for j in range(bisect_left(across, lo), bisect_right(across, hi)):
            plo, phi = spans[j]
            if plo <= line <= phi:
                return False
        lines.insert(i, line)
        self.spans[horizontal].insert(i, (lo, hi))
        return True


def random_scene(
    seed: int,
    n: int,
    *,
    coord_max: int = 60,
    time_max: int = 100,
    max_len: int = 20,
) -> Scene:
    """Deterministic random scene: n disjoint non-collinear transient edges,
    integer coordinates in [0, coord_max], intervals in [0, time_max], unit
    speed, terminals off every edge."""
    rng = random.Random(seed)
    edges: List[TransientEdge] = []
    placed = _Placed()
    attempts = 0
    while len(edges) < n:
        attempts += 1
        if attempts > 4000 * (n + 1):
            raise ParamsInfeasible(f"cannot place {n} edges in [0, {coord_max}]")
        a = rng.randint(0, coord_max - 1)
        b = min(a + rng.randint(1, max_len), coord_max)
        line = rng.randint(0, coord_max)
        ta = rng.randint(0, time_max - 1)
        td = min(ta + rng.randint(1, time_max), time_max)
        horizontal = rng.random() < 0.5
        if placed.place(horizontal, line, a, b):
            if horizontal:
                edges.append(TransientEdge(len(edges), (a, line), (b, line), ta, td))
            else:
                edges.append(TransientEdge(len(edges), (line, a), (line, b), ta, td))

    def off_edges(p):
        return all(not e.contains_point(p) for e in edges)

    while True:
        s = (rng.randint(0, coord_max), rng.randint(0, coord_max))
        if off_edges(s):
            break
    while True:
        d = (rng.randint(0, coord_max), rng.randint(0, coord_max))
        if d != s and off_edges(d):
            break
    return check_scene(Scene(edges=tuple(edges), vmax=1, source=s, dest=d))


def bench_scene(seed: int, n: int) -> Scene:
    """Benchmark instance with terminals pinned near opposite corners.

    Every edge needs its own supporting line (general position), so the
    coordinate range must grow linearly with n.  Pinning the terminals to
    the box diagonal makes every run sweep the full diameter, removing the
    variance that random terminal placement adds to timing comparisons.
    """
    side = max(60, 3 * n)
    sc = random_scene(
        seed, n, coord_max=side, time_max=2 * side, max_len=20
    )

    def free_on_diagonal(start, step):
        i = start
        while 0 <= i <= side:
            p = (i, i)
            if all(not e.contains_point(p) for e in sc.edges):
                return p
            i += step
        raise ParamsInfeasible("no free corner point")

    s = free_on_diagonal(0, 1)
    d = free_on_diagonal(side, -1)
    if s == d:
        raise ParamsInfeasible("the terminals coincide")
    return check_scene(Scene(edges=sc.edges, vmax=1, source=s, dest=d))


def walled_scene(seed: int, n: int) -> Scene:
    """bench_scene(seed, n - k) crossed by k = n // 20 long horizontal bars
    that stand until after the robot could reach them, so that its plans
    wait and end above their L1 bound, where bench_scene's end at it.

    With side the base scene's side, each bar runs from x = -side to
    2 side on a line y of [2, side - 2] that no horizontal edge, no vertical
    edge's closed span and no terminal uses, and stands over
    [0, y + side + r].  random.Random(seed) draws the k lines by sample,
    then one r in 1..40 per bar.
    """
    k = n // 20
    base = bench_scene(seed, n - k)
    side = max(60, 3 * (n - k))
    used = {base.source[1], base.dest[1]}
    for e in base.edges:
        if e.horizontal:
            used.add(e.line_coord)
        else:
            lo, hi = e.span
            used.update(range(lo, hi + 1))
    lines = [y for y in range(2, side - 1) if y not in used]
    if k > len(lines):
        raise ParamsInfeasible("no room for %d bars" % k)
    rng = random.Random(seed)
    ys = rng.sample(lines, k)
    m = len(base.edges)
    bars = tuple(
        TransientEdge(m + i, (-side, y), (2 * side, y), 0, y + side + rng.randint(1, 40)) for i, y in enumerate(ys)
    )
    return check_scene(Scene(edges=base.edges + bars, vmax=1, source=base.source, dest=base.dest))
