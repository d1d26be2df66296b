"""Naive wavefront planner: canonical scenes, propagation rules, oracle fuzz."""

import random
from fractions import Fraction

import pytest

from rectipath.engine import (
    SegNode,
    SrcNode,
    _Engine,
    naive_plan,
)
from rectipath.geometry import Scene, TransientEdge, l1_distance, validate_path
from rectipath.oracle import oracle_arrivals, oracle_plan, random_scene
from rectipath.scenario import canonical_scene


def _heap_items(eng, kind):
    return [
        (key, item)
        for key, bucket in sorted(eng.buckets.items())
        for rank, seq, item in sorted(bucket)
        if item[0] == kind
    ]


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
    # an engine with the four diagonal roots departing the source at time 0
    # queued, and those roots
    eng = _Engine(scene)
    root = SrcNode("start", eng.source, 0)
    eng.labels[eng.source] = (0, root)
    return eng, eng._spawn_arrangement(eng.source, 0, root)


def test_initial_wavelets_cover_the_four_quadrants():
    eng, ws = _initial_wavelets(canonical_scene("S0"))
    got = {w.dir: w.rect for w in ws}
    assert got == {
        "NE": (0, 1, 0, 11),
        "NW": (-1, 0, 0, 11),
        "SE": (0, 1, -1, 0),
        "SW": (-1, 0, -1, 0),
    }
    assert all(w.src.point == (0, 0) and w.src.time == 0 for w in ws)
    assert [(key, item[1]) for key, item in _heap_items(eng, "pw")] == [(0, w) for w in ws]


def test_initial_wavelets_capped_by_blocking_edge():
    eng, ws = _initial_wavelets(canonical_scene("S1"))
    ws = {w.dir: w for w in ws}
    assert ws["NE"].rect == (0, 6, 0, 5)  # east ray runs to the box, north ray stops
    assert ws["NW"].rect == (-6, 0, 0, 5)
    assert ws["SE"].rect == (0, 6, -1, 0)
    # the north cap edge is queued with the roots, once per capped root; the
    # southern roots meet no cap
    flats = [item[1] for _, item in _heap_items(eng, "sw")]
    assert [(f.lo, f.hi, f.line, f.key, f.dir, f.edge) for f in flats] == [
        (0, 5, 5, 20, "N", 0),
        (-5, 0, 5, 20, "N", 0),
    ]


def test_root_claims_every_live_vertex_of_its_region_at_its_pop():
    scene = Scene(
        edges=(
            TransientEdge(0, (3, 4), (3, 9), 50, 60),
            TransientEdge(1, (6, 12), (10, 12), 50, 60),
        ),
        vmax=1,
        source=(0, 0),
        dest=(30, 30),
    )
    eng, (root, *_) = _initial_wavelets(scene)
    assert root.dir == "NE" and root.rect == (0, 31, 0, 31)
    eng.buckets.clear()
    eng.keys.clear()
    eng._vertex_index().remove((3, 9))  # settled already, so never claimed again
    # one pop claims the destination and every live vertex of the region,
    # each at the root's own arrival there, and queues no point wavelet
    eng._do_point(root)
    settles = [(key, item[1], item[2]) for key, item in _heap_items(eng, "settle")]
    assert settles == [
        (7, (3, 4), root.src),
        (18, (6, 12), root.src),
        (22, (10, 12), root.src),
        (60, (30, 30), root.src),
    ]
    assert _heap_items(eng, "pw") == []


def test_accessible_part_spawns_flat_front_and_endpoint_fans():
    eng, (ne, *_) = _initial_wavelets(canonical_scene("S1"))
    root = eng.labels[eng.source][1]
    # queued with the roots: one flat front per capped root, waiting out the
    # cap from its disappearance, and one wait fan per distinct piece end
    flats = [item[1] for _, item in _heap_items(eng, "sw")]
    assert [(f.lo, f.hi, f.kind, f.parent) for f in flats] == [
        (0, 5, "piece", root),
        (-5, 0, "piece", root),
    ]
    fans = [(key, item[1]) for key, item in _heap_items(eng, "fan")]
    assert fans == [(20, (0, 5)), (20, (5, 5)), (20, (-5, 5))]
    eng.buckets.clear()
    eng.keys.clear()
    eng._do_point(ne)
    assert _heap_items(eng, "sw") == _heap_items(eng, "fan") == []
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
    eng._do_segment(SegNode("piece", "N", 0, 3, parent=SrcNode("start", (0, 0), 0), edge=0, lo=0, hi=4))
    assert [(key, item[1]) for key, item in _heap_items(eng, "settle")] == [(9, (2, 6))]
    flats = [item[1] for _, item in _heap_items(eng, "sw")]
    assert [(f.lo, f.hi, f.lo_open, f.hi_open, f.line, f.key, f.kind) for f in flats] == [
        (0, 2, False, True, 6, 9, "remainder"),
        (2, 4, False, False, 6, 99, "successor"),
    ]


def test_flat_front_records_destination_candidate():
    eng = _Engine(canonical_scene("S1"))
    eng._do_segment(SegNode("piece", "N", 5, 20, parent=SrcNode("start", (0, 0), 0), edge=0, lo=-2, hi=2))
    assert [(key, item[1]) for key, item in _heap_items(eng, "settle")] == [(25, (0, 10))]
    assert _heap_items(eng, "sw") == []  # nothing above to stop on


def test_band_claims_nothing_on_its_line_or_at_an_open_end():
    # A front on y = 0 over x in [0, 10] moving north to the box top.
    # Vertical edges put vertices at both ends of its span, (0, 2) (0, 4)
    # and (10, 3) (10, 5), one on its own line, (5, 0), one behind it and
    # two inside.  With both ends open only the inside ones are claimed; a
    # closed end claims its vertices too.  The destination is claimed on the
    # same terms.
    edges = (
        TransientEdge(0, (0, 2), (0, 4), 0, 1),
        TransientEdge(1, (10, 3), (10, 5), 0, 1),
        TransientEdge(2, (5, -3), (5, 0), 0, 1),
        TransientEdge(3, (3, 6), (3, 8), 0, 1),
    )
    start = SrcNode("start", (-5, -5), 0)

    def claims(lo_open, hi_open, dest=(-5, 9)):
        eng = _Engine(Scene(edges=edges, vmax=1, source=(-5, -5), dest=dest))
        assert eng.sc.point_out((7, 9)) == (7, 9) and eng.bbox[3] >= 9
        eng._do_segment(SegNode("piece", "N", 0, 0, start, 0, 0, 10, lo_open, hi_open))
        return sorted((item[1], key) for key, item in _heap_items(eng, "settle"))

    assert claims(True, True) == [((3, 6), 6), ((3, 8), 8)]
    assert claims(False, True) == [((0, 2), 2), ((0, 4), 4), ((3, 6), 6), ((3, 8), 8)]
    assert claims(True, False) == [((3, 6), 6), ((3, 8), 8), ((10, 3), 3), ((10, 5), 5)]
    for dest in ((0, 7), (10, 1), (7, 0)):  # at an open end or on the line
        assert claims(True, True, dest) == [((3, 6), 6), ((3, 8), 8)]
    assert claims(True, True, (7, 9)) == [((3, 6), 6), ((3, 8), 8), ((7, 9), 9)]


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


def _queue_probe(rng):
    """An engine on an empty scene whose queue carries only probe events:
    each is ("pw", (key, rank, seq)) and its dispatch records the pop."""
    eng = _Engine(Scene(edges=(), vmax=1, source=(0, 0), dest=(9, 9)))
    eng._spawn_arrangement = lambda p, t, src: []

    def push(key):
        rank = rng.randrange(4)
        token = (key, rank, eng.seq + 1)
        eng._push(key, rank, ("pw", token))
        return token

    return eng, push


def test_queue_pops_in_key_rank_seq_order():
    # A seeded stream at a few keys and all four ranks, with pushes at the
    # key being drained: every pop is the least pending (key, rank, seq), as
    # from one heap of all events, so equal (key, rank) pop in push order.
    rng = random.Random(15)
    at_drained = 0
    for _ in range(40):
        eng, push = _queue_probe(rng)
        pending = {push(rng.randrange(4)) for _ in range(rng.randrange(1, 40))}

        def pop(token):
            nonlocal at_drained
            assert token == min(pending)
            pending.remove(token)
            for _ in range(rng.choice((0, 0, 1, 2))):
                step = rng.choice((0, 0, 0, 1, 2))
                at_drained += step == 0
                pending.add(push(token[0] + step))

        eng._do_point = pop
        eng.run(stop_at_dest=False)
        assert not pending and not eng.buckets and not eng.keys
    assert at_drained > 100


def test_queue_rejects_a_push_below_the_drained_key():
    eng, push = _queue_probe(random.Random(16))
    push(5)
    eng._do_point = lambda token: push(token[0] - 1) if token[0] == 5 else None
    with pytest.raises(AssertionError, match="popped key 4 after 5"):
        eng.run(stop_at_dest=False)
