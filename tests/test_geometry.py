import math
import random
from fractions import Fraction

import pytest

from rectipath.fast import fast_plan
from rectipath.geometry import (
    IntEdge,
    ScaledScene,
    Scene,
    TimedPath,
    TransientEdge,
    Waypoint,
    l1_distance,
    validate_path,
    validate_scene,
)
from rectipath.oracle import oracle_plan, random_scene


def edge(eid, p1, p2, ta, td):
    return TransientEdge(eid, p1, p2, ta, td)


def crossbar_scene(ta, td):
    # One horizontal edge across the straight route from (0,0) to (0,10).
    return Scene(
        edges=(edge(0, (-5, 5), (5, 5), ta, td),),
        vmax=1,
        source=(0, 0),
        dest=(0, 10),
    )


def path(*stops):
    return TimedPath(tuple(Waypoint(p, a, d) for p, a, d in stops))


def test_l1_distance():
    assert l1_distance((0, 0), (3, 4)) == 7
    assert l1_distance((Fraction(1, 2), 0), (0, 0)) == Fraction(1, 2)


def test_validate_scene_accepts_disjoint_edges():
    sc = Scene(
        edges=(
            edge(0, (0, 0), (4, 0), 1, 2),
            edge(1, (0, 2), (4, 2), 1, 2),
            edge(2, (6, -1), (6, 5), 0, 9),
        ),
        vmax=1,
        source=(-1, -1),
        dest=(9, 9),
    )
    assert validate_scene(sc).ok


def test_validate_scene_rejections():
    base = dict(vmax=1, source=(-9, -9), dest=(9, 9))
    sc = Scene(edges=(edge(0, (0, 0), (4, 0), 1, 2), edge(1, (5, 0), (7, 0), 1, 2)), **base)
    assert "CollinearEdges" in validate_scene(sc).codes()
    sc = Scene(edges=(edge(0, (0, 0), (4, 0), 1, 2), edge(1, (2, -1), (2, 3), 1, 2)), **base)
    assert "OverlappingEdges" in validate_scene(sc).codes()
    sc = Scene(edges=(edge(0, (0, 0), (4, 0), 3, 2),), **base)
    assert "BadInterval" in validate_scene(sc).codes()
    sc = Scene(edges=(edge(0, (0, 0), (4, 1), 1, 2),), **base)
    assert "NonAxisParallel" in validate_scene(sc).codes()
    sc = Scene(edges=(edge(0, (0, 0), (4, 0), 1, 2),), vmax=1, source=(2, 0), dest=(9, 9))
    assert "TerminalOnEdge" in validate_scene(sc).codes()
    sc = Scene(edges=(), vmax=0, source=(0, 0), dest=(1, 1))
    assert "BadSpeed" in validate_scene(sc).codes()


def _all_pairs_issues(scene):
    """validate_scene's (code, message) list from the definitions: every
    pair of proper edges tested for a shared line or a crossing, and each
    terminal against every proper edge, through TransientEdge's own
    properties."""
    out = []
    if scene.vmax <= 0:
        out.append(("BadSpeed", f"vmax must be positive, got {scene.vmax}"))
    proper = []
    for e in scene.edges:
        if (e.horizontal or e.vertical) and e.p1 != e.p2:
            proper.append(e)
        else:
            out.append(("NonAxisParallel", f"edge {e.id} is not a proper axis-parallel segment"))
        if not (0 <= e.appear < e.disappear):
            out.append(
                ("BadInterval", f"edge {e.id} interval [{e.appear}, {e.disappear}] is not 0 <= appear < disappear")
            )
    for i, a in enumerate(proper):
        for b in proper[i + 1 :]:
            (alo, ahi), (blo, bhi) = a.span, b.span
            if a.horizontal == b.horizontal:
                if a.line_coord != b.line_coord:
                    continue
                meet = alo <= bhi and blo <= ahi
            else:
                h, v = (a, b) if a.horizontal else (b, a)
                (hlo, hhi), (vlo, vhi) = h.span, v.span
                if not (hlo <= v.line_coord <= hhi and vlo <= h.line_coord <= vhi):
                    continue
                meet = True
            if meet:
                out.append(("OverlappingEdges", f"edges {a.id} and {b.id} intersect"))
            else:
                out.append(("CollinearEdges", f"edges {a.id} and {b.id} share a supporting line"))
    for name, p in (("source", scene.source), ("dest", scene.dest)):
        for e in proper:
            if e.contains_point(p) and p != e.p1 and p != e.p2:
                out.append(("TerminalOnEdge", f"{name} lies on the interior of edge {e.id}"))
    return out


def _small_scene(rng):
    """A small scene, valid or not, on a grid of integers and halves (ints,
    Fractions and floats) so that lines, spans and terminals meet often:
    horizontal, vertical and diagonal edges and edges of one point, either
    endpoint first, with windows and a vmax that may be bad."""

    def c():
        v = rng.randint(0, 12)
        if v % 2 == 0:
            return v // 2
        return v / 2 if rng.random() < 0.2 else Fraction(v, 2)

    edges = []
    for i in range(rng.randint(0, 8)):
        kind = rng.choice("hhvvdp")
        if kind == "h":
            y = c()
            p1, p2 = (c(), y), (c(), y)  # one point when the xs meet
        elif kind == "v":
            x = c()
            p1, p2 = (x, c()), (x, c())
        elif kind == "d":
            p1, p2 = (c(), c()), (c(), c())
        else:
            p1 = p2 = (c(), c())
        edges.append(TransientEdge(i, p1, p2, rng.randint(-1, 6), rng.randint(-1, 8)))

    def terminal():
        if edges and rng.random() < 0.4:  # on an edge: an endpoint or a point between
            e = rng.choice(edges)
            k = rng.choice((0, Fraction(1, 2), 1, Fraction(1, 3)))
            return tuple(a + k * (b - a) for a, b in zip(e.p1, e.p2))
        return (c(), c())

    vmax = rng.choice((1, 1, 2, Fraction(1, 2), 0.5, 0, -1))
    return Scene(edges=tuple(edges), vmax=vmax, source=terminal(), dest=terminal())


def test_validate_scene_equals_the_all_pairs_definition():
    # Seeded small scenes, valid and not: validate_scene's single pass over
    # each edge's geometry and its line-grouping and sweep give the issues
    # that every-pair tests give, codes, order and messages alike.
    rng = random.Random(31)
    seen, valid = set(), 0
    for k in range(2000):
        scene = _small_scene(rng)
        got = [(i.code, i.message) for i in validate_scene(scene).issues]
        assert got == _all_pairs_issues(scene), k
        seen.update(code for code, _ in got)
        valid += not got
    assert seen == {"NonAxisParallel", "BadInterval", "OverlappingEdges", "CollinearEdges", "TerminalOnEdge", "BadSpeed"}
    assert 100 <= valid <= 1900


def test_terminal_at_edge_endpoint_is_fine():
    sc = Scene(edges=(edge(0, (0, 0), (4, 0), 1, 2),), vmax=1, source=(0, 0), dest=(9, 9))
    assert validate_scene(sc).ok


def test_straight_path_blocked_midway():
    sc = crossbar_scene(0, 6)
    p = path(((0, 0), 0, 0), ((0, 10), 10, 10))
    rep = validate_path(sc, p, 10)
    assert rep.codes() == {"CollisionAt"}


def test_straight_path_after_disappearance():
    sc = crossbar_scene(0, 4)
    p = path(((0, 0), 0, 0), ((0, 10), 10, 10))
    assert validate_path(sc, p, 10).ok  # crosses y=5 at t=5, edge already gone


def test_crossing_exactly_at_disappearance_is_legal():
    sc = crossbar_scene(0, 5)
    p = path(((0, 0), 0, 0), ((0, 10), 10, 10))
    assert validate_path(sc, p, 10).ok


def test_wait_then_perpendicular_departure():
    sc = crossbar_scene(0, 6)
    p = path(((0, 0), 0, 0), ((0, 5), 5, 6), ((0, 10), 11, 11))
    assert validate_path(sc, p, 11).ok


def test_departing_contact_before_disappearance_is_a_crossing():
    sc = crossbar_scene(0, 6)
    # Arrive on the edge at t=5 (contact, legal) but push on immediately.
    p = path(((0, 0), 0, 0), ((0, 5), 5, 5), ((0, 10), 10, 10))
    assert "CollisionAt" in validate_path(sc, p, 10).codes()


def test_detour_through_edge_tip():
    sc = crossbar_scene(0, 20)
    p = path(
        ((0, 0), 0, 0),
        ((5, 0), 5, 5),
        ((5, 10), 15, 15),
        ((0, 10), 20, 20),
    )
    assert validate_path(sc, p, 20).ok  # passes through the tip (5,5), always legal


def test_wait_not_on_edge_rejected():
    sc = crossbar_scene(0, 6)
    p = path(((0, 0), 0, 0), ((0, 3), 3, 6), ((0, 10), 13, 13))
    rep = validate_path(sc, p, 13)
    assert "BadWaitPoint" in rep.codes()


def test_wait_must_end_at_disappearance():
    sc = crossbar_scene(0, 6)
    p = path(((0, 0), 0, 0), ((0, 5), 5, 7), ((0, 10), 12, 12))
    assert "BadWaitPoint" in validate_path(sc, p, 12).codes()


def test_parallel_departure_from_wait_rejected():
    sc = Scene(
        edges=(edge(0, (-5, 5), (5, 5), 0, 6),),
        vmax=1,
        source=(0, 0),
        dest=(3, 5),
    )
    p = path(((0, 0), 0, 0), ((0, 5), 5, 6), ((3, 5), 9, 9))
    assert "NonPerpendicularDeparture" in validate_path(sc, p, 9).codes()


def test_speed_and_axis_violations():
    sc = crossbar_scene(0, 1)
    p = path(((0, 0), 0, 0), ((0, 10), 9, 9))
    assert "SpeedViolation" in validate_path(sc, p, 9).codes()
    p = path(((0, 0), 0, 0), ((3, 10), 13, 13))
    rep = validate_path(sc, p, 13)
    assert "SpeedViolation" in rep.codes()  # diagonal move


def test_endpoint_and_arrival_mismatch():
    sc = crossbar_scene(0, 1)
    p = path(((1, 0), 0, 0), ((0, 10), 11, 11))
    rep = validate_path(sc, p, 12)
    assert "EndpointMismatch" in rep.codes()
    assert "ArrivalMismatch" in rep.codes()


@pytest.mark.parametrize(
    "stops, code, fragment",
    [
        ((), "EndpointMismatch", "empty path"),
        ((((0, 0), 0, 0), ((0, 4), 4, 3), ((0, 10), 9, 9)), "BadWaitPoint", "waypoint (0, 4) departs before it arrives"),
        ((((0, 0), 0, 0), ((0, 5), 5, 6)), "BadWaitPoint", "wait at (0, 5) has no departure move"),
    ],
    ids=["empty path", "departs before it arrives", "wait without a departure"],
)
def test_validate_path_names_each_defect(stops, code, fragment):
    rep = validate_path(crossbar_scene(0, 6), path(*stops), 9)
    assert any(i.code == code and i.message == fragment for i in rep.issues), rep


def test_issues_read_as_code_and_message():
    rep = validate_path(crossbar_scene(0, 6), path(), 0)
    assert str(rep.issues[0]) == "EndpointMismatch: empty path"
    assert repr(rep) == "<invalid: EndpointMismatch: empty path>"


def test_nonmonotone_between_vertex_visits():
    sc = crossbar_scene(0, 6)
    p = path(
        ((0, 0), 0, 0),
        ((2, 0), 2, 2),
        ((2, 3), 5, 5),
        ((0, 3), 7, 7),
        ((0, 10), 14, 14),
    )
    rep = validate_path(sc, p, 14)
    assert "NonMonotoneSubpath" in rep.codes()


def test_vertex_visit_allows_a_bend():
    sc = crossbar_scene(0, 20)
    # Mid-move pass through the tip (5,5) splits the monotonicity check there.
    p = path(((0, 0), 0, 0), ((5, 0), 5, 5), ((5, 10), 15, 15), ((0, 10), 20, 20))
    assert validate_path(sc, p, 20).ok


def test_fractional_speed_path_is_exact():
    sc = Scene(edges=(), vmax=Fraction(1, 3), source=(0, 0), dest=(0, 2))
    p = path(((0, 0), 0, 0), ((0, 2), 6, 6))
    assert validate_path(sc, p, 6).ok
    p = path(((0, 0), 0, 0), ((0, 2), 7, 7))
    assert "SpeedViolation" in validate_path(sc, p, 7).codes()


def test_scaled_scene_roundtrip():
    sc = Scene(
        edges=(edge(0, (0, Fraction(1, 2)), (1, Fraction(1, 2)), Fraction(1, 3), 2),),
        vmax=Fraction(1, 2),
        source=(0, 0),
        dest=(Fraction(3, 2), 1),
    )
    ss = ScaledScene(sc)
    e = ss.edges[0]
    assert (e.lo, e.hi) == (0, ss.coord_scale)
    assert ss.time_out(e.ta) == Fraction(1, 3)
    assert ss.time_out(e.td) == 2
    assert ss.point_out(ss.dest) == (Fraction(3, 2), 1)
    # One scaled time unit equals one scaled distance unit at vmax = 1.
    assert ss.time_out(l1_distance(ss.source, ss.dest)) == l1_distance(sc.source, sc.dest) / sc.vmax


@pytest.mark.parametrize(
    "coord, time, vmax",
    [(1, 1, 1), (1, 1, 3), (Fraction(1, 2), 1, 1), (1, Fraction(1, 3), 1), (1, 1, Fraction(2, 3)), (1, 0.1, 0.1)],
)
def test_scaling_back_equals_the_fraction_formula(coord, time, vmax):
    # time_out and coord_out take ints that an integer scale divides by
    # integer division; every answer, its type included, is the one the
    # Fraction formula gives
    ss = ScaledScene(_rescaled(random_scene(1, 12), coord, time, vmax))
    values = list(range(-40, 41)) + [Fraction(k, 3) for k in range(-10, 11)]
    values += [ss.coord_scale * k for k in (-7, 1, 13)] + [e.ta for e in ss.edges] + [e.td for e in ss.edges]
    for v in values:
        pairs = ((ss.time_out(v), Fraction(v, 1) / ss.time_scale), (ss.coord_out(v), Fraction(v) / ss.coord_scale))
        for got, f in pairs:
            want = int(f) if f.denominator == 1 else f
            assert (type(got), got) == (type(want), want), (v, coord, time, vmax)


def test_scaled_scene_integer_identity():
    sc = crossbar_scene(0, 6)
    ss = ScaledScene(sc)
    assert ss.coord_scale == 1
    assert ss.source == (0, 0) and ss.dest == (0, 10)
    assert ss.bbox == (-6, 6, -1, 11)
    assert ss.edges[0].ta == 0 and ss.edges[0].td == 6


def _all_fraction_scaling(scene):
    """ScaledScene's figures with every coordinate, time and vmax taken
    through Fraction: (source, dest, edges, bbox, time_scale, coord_scale,
    verts), verts the set of scaled edge endpoints."""
    vm = Fraction(scene.vmax)
    vals = [*scene.source, *scene.dest] + [c for e in scene.edges for c in (*e.p1, *e.p2)]
    tvals = [Fraction(t) * vm for e in scene.edges for t in (e.appear, e.disappear)]
    s = 1
    for v in vals + tvals:
        s = math.lcm(s, Fraction(v).denominator)
    ts = s * vm

    def cx(v):
        return int(Fraction(v) * s)

    edges = [
        IntEdge(e.id, e.horizontal, cx(e.line_coord), cx(e.span[0]), cx(e.span[1]),
                int(Fraction(e.appear) * ts), int(Fraction(e.disappear) * ts))
        for e in scene.edges
    ]
    pts = [(cx(x), cx(y)) for x, y in [scene.source, scene.dest]] + [p for e in edges for p in e.endpoints]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    bbox = (min(xs) - s, max(xs) + s, min(ys) - s, max(ys) + s)
    verts = {(cx(x), cx(y)) for e in scene.edges for x, y in (e.p1, e.p2)}
    return (cx(scene.source[0]), cx(scene.source[1])), (cx(scene.dest[0]), cx(scene.dest[1])), edges, bbox, ts, s, verts


def _rescaled(scene, coord=1, time=1, vmax=None):
    """scene with every coordinate times coord and every time times time."""

    def pt(p):
        return (p[0] * coord, p[1] * coord)

    edges = tuple(
        TransientEdge(e.id, pt(e.p1), pt(e.p2), e.appear * time, e.disappear * time) for e in scene.edges
    )
    return Scene(edges=edges, vmax=scene.vmax if vmax is None else vmax, source=pt(scene.source), dest=pt(scene.dest))


@pytest.mark.parametrize(
    "coord, time, vmax",
    [
        (1, 1, 1),  # integers throughout
        (1, 1, 3),  # an integer vmax other than 1
        (Fraction(1, 2), 1, 1),  # fractional coordinates
        (Fraction(5, 3), 1, 2),
        (1, Fraction(1, 3), 1),  # fractional times
        (1, Fraction(1, 3), 3),  # an integer vmax cancelling the times' denominator
        (1, Fraction(2, 7), Fraction(7, 4)),
        (1, 1, Fraction(2, 3)),  # a fractional vmax
        (Fraction(3, 4), Fraction(1, 6), Fraction(5, 2)),
        # a float vmax is taken as its exact binary fraction, dyadic or not
        (1, 1, 0.75),  # float vmax
        (1, Fraction(1, 3), 1.5),
        (1, 1, 0.1),  # non-dyadic float vmax
        (1, Fraction(1, 3), 0.3),
        (1, 0.1, 0.7),  # float times and a non-dyadic float vmax
        (1, 0.5, 3),  # float times, each taken as its exact binary fraction
        (1, 0.1, 1),
        (0.25, 1, 1),  # float coordinates
    ],
)
def test_scaled_scene_equals_the_all_fraction_scaling(coord, time, vmax):
    for seed in (1, 2, 3):
        sc = _rescaled(random_scene(seed, 12), coord, time, vmax)
        ss = ScaledScene(sc)
        want = _all_fraction_scaling(sc)
        assert (ss.source, ss.dest, ss.edges, ss.bbox, ss.time_scale, ss.coord_scale, ss.verts) == want
        scaled = [*ss.source, *ss.dest, *ss.bbox] + [
            v for e in ss.edges for v in (e.line, e.lo, e.hi, e.ta, e.td)
        ]
        assert all(type(v) is int for v in scaled), (coord, time, vmax)


def test_scaled_scene_equals_the_all_fraction_scaling_with_endpoints_either_way():
    # ScaledScene reads each edge's endpoints once, scales them and orders
    # the span after scaling; with half the edges given high endpoint
    # first, on integer, fractional and float scenes, its edges, box,
    # scales and vertex set are the all-Fraction figures of the edge's own
    # span.
    scalings = [(1, 1, 1), (1, 1, 3), (Fraction(1, 2), Fraction(1, 3), 2), (0.25, 0.1, 1.5), (0.7, 1, Fraction(2, 7))]
    for seed in range(1, 41):
        rng = random.Random(seed)
        base = _rescaled(random_scene(seed, 4 + seed % 12), *rng.choice(scalings))
        edges = tuple(
            TransientEdge(e.id, e.p2, e.p1, e.appear, e.disappear) if rng.random() < 0.5 else e for e in base.edges
        )
        sc = Scene(edges=edges, vmax=base.vmax, source=base.source, dest=base.dest)
        ss = ScaledScene(sc)
        got = (ss.source, ss.dest, ss.edges, ss.bbox, ss.time_scale, ss.coord_scale, ss.verts)
        assert got == _all_fraction_scaling(sc)
        assert all(e.lo < e.hi for e in ss.edges), seed


def test_float_inputs_are_taken_as_their_exact_fractions():
    # The witness moves at exactly the binary fraction of vmax 1.1, so
    # validate_path must check it against that number, not the float.
    scene = Scene(edges=(edge(0, (-5, 5), (5, 5), 0, 6),), vmax=1.1, source=(0, 0), dest=(3, 10))
    assert type(scene.vmax) is Fraction and scene.vmax == 1.1
    res = fast_plan(scene)
    assert validate_path(scene, res.path, res.arrival).ok


def _float_scaled(seed):
    """random_scene(seed, 5 + seed % 10) with its coordinates and its times
    each times a float, under a float or integer vmax."""
    rng = random.Random(seed)
    coord, time = rng.choice((0.1, 0.3, 0.7, 1.1)), rng.choice((0.1, 0.3, 0.7, 1.1))
    return _rescaled(random_scene(seed, 5 + seed % 10), coord, time, rng.choice((1, 0.3, 1.1, 2.5)))


def test_float_scaled_scenes_plan_exactly():
    for seed in range(1, 61):
        scene = _float_scaled(seed)
        res = fast_plan(scene)
        assert validate_path(scene, res.path, res.arrival).ok, seed
        want = oracle_plan(scene)
        assert type(want) in (int, Fraction) and want >= res.arrival, (seed, want, res.arrival)
