"""Naive wavefront planner: canonical scenes, propagation rules, oracle fuzz."""

from fractions import Fraction

from rectipath.engine import (
    PointWavelet,
    SegNode,
    SegWavelet,
    SrcNode,
    _Engine,
    naive_plan,
)
from rectipath.geometry import Scene, TransientEdge, l1_distance, validate_path
from rectipath.oracle import oracle_arrivals, oracle_plan, random_scene
from rectipath.scenario import canonical_scene


def _heap_items(eng, kind):
    return [(key, item) for key, rank, tie, seq, item in sorted(eng.heap) if item[0] == kind]


def test_canonical_arrivals_and_paths():
    for name, want in [("S0", 10), ("S1", 20), ("S2", 11), ("S3", 10)]:
        scene = canonical_scene(name)
        res = naive_plan(scene)
        assert res.arrival == want, name
        report = validate_path(scene, res.path, res.arrival)
        assert report.ok, (name, [i.code for i in report.issues])


def test_unobstructed_scene_spawns_exactly_four_point_wavelets():
    res = naive_plan(canonical_scene("S0"))
    assert res.stats.point_wavelets == 4
    assert res.stats.segment_wavelets == 0
    assert res.stats.narrows == 0 and res.stats.expands == 0


def test_wait_point_in_path():
    res = naive_plan(canonical_scene("S2"))
    wait = [w for w in res.path.waypoints if w.depart > w.arrive]
    assert wait == [type(wait[0])((0, 5), 5, 6)]


def _initial_wavelets(scene):
    # the up-to-four diagonal wavelets departing the source at time 0
    eng = _Engine(scene)
    root = SrcNode("start", eng.source, 0)
    eng.labels[eng.source] = (0, root)
    return eng._spawn_arrangement(eng.source, 0, root)


def test_initial_wavelets_cover_the_four_quadrants():
    ws = _initial_wavelets(canonical_scene("S0"))
    got = {w.dir: w.rect for w in ws}
    assert got == {
        "NE": (0, 1, 0, 11),
        "NW": (-1, 0, 0, 11),
        "SE": (0, 1, -1, 0),
        "SW": (-1, 0, -1, 0),
    }
    assert all(w.origin == (0, 0) and w.key == 0 for w in ws)


def test_initial_wavelets_capped_by_blocking_edge():
    ws = {w.dir: w for w in _initial_wavelets(canonical_scene("S1"))}
    assert ws["NE"].rect == (0, 6, 0, 5)
    assert ws["NE"].caps == (None, 0)  # east ray runs to the box, north ray stops
    assert ws["NW"].rect == (-6, 0, 0, 5)
    assert ws["SE"].rect == (0, 6, -1, 0)
    assert ws["SE"].caps == (None, None)


def test_split_into_three_regions_at_nearest_vertex():
    scene = Scene(
        edges=(TransientEdge(0, (3, 4), (3, 9), 50, 60),),
        vmax=1,
        source=(0, 0),
        dest=(30, 30),
    )
    eng = _Engine(scene)
    src = SrcNode("start", (0, 0), 0)
    w = PointWavelet((0, 0), 0, 0, (0, 10, 0, 10), "NE", (None, None), False, src)
    eng._do_point(w)
    settles = _heap_items(eng, "settle")
    assert [(key, item[1]) for key, item in settles] == [(7, (3, 4))]
    splits = [item[1] for _, item in _heap_items(eng, "pw")]
    assert [(s.origin, s.t0, s.key, s.rect) for s in splits] == [
        ((0, 0), 0, 7, (0, 3, 0, 10)),
        ((0, 0), 0, 7, (0, 10, 0, 4)),
        ((3, 4), 7, 7, (3, 10, 4, 10)),
    ]
    assert all(not s.fresh and s.src is src for s in splits)


def test_accessible_part_spawns_flat_front_and_endpoint_fans():
    eng = _Engine(canonical_scene("S1"))
    root = SrcNode("start", eng.source, 0)
    eng.labels[eng.source] = (0, root)
    ne = eng._spawn_arrangement(eng.source, 0, root)[0]
    eng.heap.clear()
    eng._do_point(ne)
    flats = [item[1] for _, item in _heap_items(eng, "sw")]
    assert [(f.lo, f.hi, f.line, f.key, f.dir) for f in flats] == [(0, 5, 5, 20, "N")]
    assert flats[0].node.kind == "piece" and flats[0].node.edge == 0
    fans = [(key, item[1]) for key, item in _heap_items(eng, "fan")]
    assert fans == [(20, (0, 5)), (20, (5, 5))]
    # the blocking edge's own vertex is also the nearest vertex in the region
    assert [(key, item[1]) for key, item in _heap_items(eng, "settle")] == [(10, (5, 5))]


def test_stop_clips_successor_and_leaves_remainder():
    scene = Scene(
        edges=(TransientEdge(0, (2, 6), (9, 6), 0, 99),),
        vmax=1,
        source=(0, 0),
        dest=(30, 30),
    )
    eng = _Engine(scene)
    node = SegNode("piece", "N", 0, 3, parent=SrcNode("start", (0, 0), 0), edge=0)
    eng._do_segment(SegWavelet(0, 4, False, False, 0, 3, "N", node))
    assert [(key, item[1]) for key, item in _heap_items(eng, "settle")] == [(9, (2, 6))]
    flats = [item[1] for _, item in _heap_items(eng, "sw")]
    assert [(f.lo, f.hi, f.lo_open, f.hi_open, f.line, f.key, f.node.kind) for f in flats] == [
        (0, 2, False, True, 6, 9, "remainder"),
        (2, 4, False, False, 6, 99, "successor"),
    ]


def test_flat_front_records_destination_candidate():
    eng = _Engine(canonical_scene("S1"))
    node = SegNode("piece", "N", 5, 20, parent=SrcNode("start", (0, 0), 0), edge=0)
    eng._do_segment(SegWavelet(-2, 2, False, False, 5, 20, "N", node))
    assert [(key, item[1]) for key, item in _heap_items(eng, "settle")] == [(25, (0, 10))]
    assert _heap_items(eng, "sw") == []  # nothing above to stop on


def test_settled_labels_match_reference_arrivals():
    for seed in range(420, 470):
        scene = random_scene(seed, 2 + seed % 8)
        eng = _Engine(scene)
        eng.run(stop_at_dest=False)
        verts = sorted({p for e in scene.edges for p in (e.p1, e.p2)})
        want = oracle_arrivals(scene, verts)
        for p, w in zip(verts, want):
            assert eng.sc.time_out(eng.labels[p][0]) == w, (seed, p)
        assert eng.sc.time_out(eng.labels[eng.sc.dest][0]) == oracle_arrivals(scene, [scene.dest])[0]


def test_fuzz_matches_reference_and_paths_validate():
    for seed in range(1, 251):
        scene = random_scene(seed, seed % 11)
        res = naive_plan(scene)
        assert res.arrival == oracle_plan(scene), seed
        report = validate_path(scene, res.path, res.arrival)
        assert report.ok, (seed, [i.code for i in report.issues])


def test_arrival_never_beats_straight_line():
    for seed in range(600, 640):
        scene = random_scene(seed, seed % 9)
        res = naive_plan(scene)
        assert res.arrival >= Fraction(l1_distance(scene.source, scene.dest), scene.vmax)


def test_fractional_speeds():
    for seed in (3, 11, 27, 42):
        base = random_scene(seed, 1 + seed % 6)
        for vm in (Fraction(1, 2), 2, Fraction(3, 2)):
            scene = Scene(edges=base.edges, vmax=vm, source=base.source, dest=base.dest)
            res = naive_plan(scene)
            assert res.arrival == oracle_plan(scene), (seed, vm)
            assert validate_path(scene, res.path, res.arrival).ok


def test_fractional_coordinates():
    scene = Scene(
        edges=(TransientEdge(0, (Fraction(-9, 2), 5), (Fraction(9, 2), 5), 0, 20),),
        vmax=1,
        source=(0, 0),
        dest=(0, 10),
    )
    res = naive_plan(scene)
    assert res.arrival == oracle_plan(scene) == 19
    assert validate_path(scene, res.path, res.arrival).ok


def test_source_equals_destination():
    scene = Scene(edges=(), vmax=1, source=(2, 3), dest=(2, 3))
    res = naive_plan(scene)
    assert res.arrival == 0
    assert validate_path(scene, res.path, res.arrival).ok


def test_plan_is_deterministic():
    scene = random_scene(99, 9)
    a = naive_plan(scene)
    b = naive_plan(scene)
    assert a.arrival == b.arrival
    assert a.path.waypoints == b.path.waypoints
    assert a.stats == b.stats
