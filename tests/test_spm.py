import json
import random
from fractions import Fraction

import pytest

from rectipath.fast import fast_plan
from rectipath.geometry import Scene, TransientEdge, validate_path
from rectipath.oracle import oracle_arrivals, random_scene
from rectipath.scenario import canonical_scene
from rectipath.spm import (
    ConeCell,
    FlatCell,
    MapFormatError,
    OutsideBoundingBox,
    ShortestPathMap,
    build_spm,
    dump_spm,
    load_spm,
    spm_query,
)


def _hull(scene):
    pts = [scene.source, scene.dest] + [p for e in scene.edges for p in (e.p1, e.p2)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _retarget(scene, q):
    return Scene(edges=scene.edges, vmax=scene.vmax, source=scene.source, dest=q)


def test_free_scene_is_four_cones():
    m = build_spm(canonical_scene("S0"))
    assert len(m.cells) == 4
    assert all(isinstance(c, ConeCell) for c in m.cells)
    assert m.arrival((1, 6)) == 7


def test_canonical_destinations():
    for name, want in (("S0", 10), ("S1", 20), ("S2", 11), ("S3", 10)):
        scene = canonical_scene(name)
        m = build_spm(scene)
        t, path = m.query(scene.dest)
        assert t == want
        assert validate_path(scene, path, t).ok


def test_waited_edge_shows_up_as_a_flat_band():
    m = build_spm(canonical_scene("S2"))
    flats = [c for c in m.cells if isinstance(c, FlatCell)]
    assert flats and all(f.dir == "N" and f.line == 5 for f in flats)
    # The band departs when the bar vanishes at t=6, so on the far side the
    # value is 6 + (y - 5) = 1 + y.
    assert all(f.off == 1 for f in flats)
    assert sorted(f.rect[:2] for f in flats) == [(-1, 0), (0, 1)]


def test_point_queries_beyond_the_bar():
    m = build_spm(canonical_scene("S1"))
    assert m.arrival((0, 4)) == 4  # in front
    assert m.arrival((0, 5)) == 5  # touching the bar is contact, not crossing
    assert m.arrival((0, 10)) == 20  # around beats waiting out t=20
    assert m.arrival((0, 6)) == 16
    assert m.arrival((5, 10)) == 15  # through the endpoint


def test_matches_oracle_on_random_scenes():
    rng = random.Random(4242)
    for seed in range(1, 41):
        scene = random_scene(seed, seed % 11)
        m = build_spm(scene)
        xlo, xhi, ylo, yhi = _hull(scene)
        qs = [(rng.randint(xlo, xhi), rng.randint(ylo, yhi)) for _ in range(20)]
        want = oracle_arrivals(scene, qs)
        for q, w in zip(qs, want):
            t, path = spm_query(m, q)
            assert t == w
            assert validate_path(_retarget(scene, q), path, t).ok


def test_matches_planner_on_mid_size_scenes():
    for seed in (3, 11, 27):
        scene = random_scene(seed, 10 + (seed * 7) % 31)
        m = build_spm(scene)
        t, path = m.query(scene.dest)
        assert t == fast_plan(scene).arrival
        assert validate_path(scene, path, t).ok


def test_fractional_queries():
    scene = random_scene(7, 8)
    m = build_spm(scene)
    rng = random.Random(99)
    xlo, xhi, ylo, yhi = _hull(scene)
    for _ in range(15):
        q = (
            xlo + Fraction(rng.randrange(0, 4 * (xhi - xlo) + 1), 4),
            ylo + Fraction(rng.randrange(0, 4 * (yhi - ylo) + 1), 4),
        )
        t, path = m.query(q)
        assert t == oracle_arrivals(scene, [q])[0]
        assert validate_path(_retarget(scene, q), path, t).ok


def test_fractional_speed_scene():
    e = TransientEdge(0, (2, -3), (2, 3), 0, 6)
    scene = Scene(edges=(e,), vmax=Fraction(1, 2), source=(0, 0), dest=(4, 0))
    m = build_spm(scene)
    assert m.arrival((4, 0)) == 10
    assert m.arrival((Fraction(5, 2), Fraction(1, 3))) == 7


def test_query_outside_the_box_raises():
    m = build_spm(canonical_scene("S0"))
    with pytest.raises(OutsideBoundingBox):
        m.arrival((1000, 1000))
    with pytest.raises(OutsideBoundingBox):
        m.query((0, -999))


def test_values_do_not_depend_on_cell_order():
    scene = random_scene(15, 9)
    m = build_spm(scene)
    rev = ShortestPathMap(scene, list(reversed(m.cells)))
    rng = random.Random(1)
    xlo, xhi, ylo, yhi = _hull(scene)
    for _ in range(60):
        q = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        assert m.arrival(q) == rev.arrival(q)


def test_dump_load_round_trip(tmp_path):
    scene = random_scene(21, 10)
    m = build_spm(scene)
    f = tmp_path / "map.json"
    dump_spm(m, f)
    m2 = load_spm(f)
    rng = random.Random(2)
    xlo, xhi, ylo, yhi = _hull(scene)
    for _ in range(40):
        q = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        t1, p1 = m.query(q)
        t2, p2 = m2.query(q)
        assert t1 == t2 and p1 == p2
        assert validate_path(_retarget(scene, q), p2, t2).ok


def test_load_rejects_other_files(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(MapFormatError):
        load_spm(f)
    f.write_text("{not json")
    with pytest.raises(MapFormatError):
        load_spm(f)


_FRONTS = ("piece", "successor", "remainder")


def _first(rows, kinds, below=None):
    """Index of the first row of one of the kinds, optionally below a row."""
    return next(i for i, r in enumerate(rows[:below]) if r["kind"] in kinds)


def _set_parent(kind, parent_kinds):
    # parent_kinds picks an earlier row, so only the kind of parent is wrong
    def edit(doc):
        nodes = doc["nodes"]
        i = next(i for i, r in enumerate(nodes) if r["kind"] == kind and _first(nodes, parent_kinds) < i)
        nodes[i]["parent"] = _first(nodes, parent_kinds, below=i)

    return edit


def _vertex_parent(value):
    def edit(doc):
        i = _first(doc["nodes"], ("vertex",))
        doc["nodes"][i]["parent"] = i if value == "self" else i + 1 if value == "next" else value

    return edit


def _cell_node(kind, node_kinds):
    def edit(doc):
        doc["cells"][_first(doc["cells"], (kind,))]["node"] = _first(doc["nodes"], node_kinds)

    return edit


def _node_field(kind, name, value):
    def edit(doc):
        row = doc["nodes"][_first(doc["nodes"], (kind,))]
        if value is None:
            del row[name]
        else:
            row[name] = value(doc) if callable(value) else value

    return edit


def _row_is_list(doc):
    doc["nodes"][1] = list(doc["nodes"][1].values())


def _row_is_a_number(doc):
    doc["nodes"][1] = 1


def _cell_without_rect(doc):
    del doc["cells"][0]["rect"]


def _version_1(doc):
    doc["version"] = 1


@pytest.mark.parametrize(
    "edit",
    [
        _vertex_parent("self"),
        _vertex_parent("next"),
        _vertex_parent(-1),
        _vertex_parent(10**6),
        _vertex_parent("0"),
        _set_parent("successor", ("start", "vertex", "wait")),
        _set_parent("remainder", ("start", "vertex", "wait")),
        _set_parent("wait", _FRONTS),
        _set_parent("piece", _FRONTS),
        _node_field("start", "parent", 0),
        _cell_node("cone", _FRONTS),
        _cell_node("flat", ("start",)),
        _node_field("wait", "host", lambda doc: len(doc["scene"]["edges"])),
        _node_field("piece", "edge", -1),
        _node_field("successor", "edge", "0"),
        _node_field("vertex", "time", None),
        _node_field("wait", "time", 6.5),
        _node_field("vertex", "point", [1, 2, 3]),
        _node_field("remainder", "kind", "front"),
        _node_field("wait", "kind", ["wait"]),
        _row_is_list,
        _row_is_a_number,
        _cell_without_rect,
        _version_1,
    ],
    ids=[
        "self-cycle",
        "later-row",
        "negative",
        "out-of-range",
        "not-an-int",
        "bad-front",
        "remainder-of-a-source",
        "wait-after-a-front",
        "piece-of-a-front",
        "start-with-a-parent",
        "cone-at-a-front",
        "flat-at-a-source",
        "host-outside-the-scene",
        "edge-outside-the-scene",
        "edge-not-an-int",
        "node-without-time",
        "time-not-an-int",
        "point-of-three",
        "unknown-kind",
        "kind-not-a-string",
        "row-is-a-list",
        "row-is-a-number",
        "cell-without-rect",
        "version-1",
    ],
)
def test_load_rejects_bad_provenance_references(tmp_path, edit):
    # random_scene(4, 10) has a node row of every kind
    f = tmp_path / "map.json"
    dump_spm(build_spm(random_scene(4, 10)), f)
    doc = json.loads(f.read_text())
    edit(doc)
    f.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError):
        load_spm(f)


def test_load_rejects_a_cycle_through_the_fronts(tmp_path):
    # two fronts naming each other as parent: one of them names a later row
    f = tmp_path / "map.json"
    dump_spm(build_spm(canonical_scene("S2")), f)
    doc = json.loads(f.read_text())
    nodes = doc["nodes"]
    k = len(nodes)
    nodes.append({"kind": "remainder", "dir": "N", "line": 5, "key": 6, "parent": k + 1})
    nodes.append({"kind": "remainder", "dir": "N", "line": 5, "key": 6, "parent": k})
    doc["cells"][0] = {"kind": "flat", "rect": [-1, 1, 5, 11], "off": 1, "node": k}
    f.write_text(json.dumps(doc))
    with pytest.raises(MapFormatError):
        load_spm(f)


def test_map_file_lists_parents_first(tmp_path):
    f = tmp_path / "map.json"
    dump_spm(build_spm(random_scene(4, 10)), f)
    doc = json.loads(f.read_text())
    assert doc["version"] == 2 and set(doc) == {"format", "version", "scene", "nodes", "cells"}
    parents = [r["parent"] for r in doc["nodes"]]
    assert parents[0] is None and all(0 <= p < i for i, p in enumerate(parents) if i)


def test_source_equal_destination_scene():
    e = TransientEdge(0, (1, 5), (6, 5), 2, 9)
    scene = Scene(edges=(e,), vmax=1, source=(3, 3), dest=(3, 3))
    m = build_spm(scene)
    t, path = m.query((3, 3))
    assert t == 0 and len(path.waypoints) == 1
    assert m.arrival((3, 6)) == 3  # crossing exactly at appear time is legal


def test_cell_count_stays_linear():
    # Rough regression bound: the sweep settles O(n) sources and each leaves
    # a constant number of surviving records.
    for seed, n in ((1, 20), (2, 30), (3, 40)):
        scene = random_scene(seed, n)
        m = build_spm(scene)
        assert len(m.cells) <= 60 * n
