import json
import random
from fractions import Fraction

import pytest

from test_exact_labels import _ladder_scenes

import rectipath
from rectipath.engine import DIAGS, SegNode, SrcNode, _Engine
from rectipath.fast import _FastEngine, fast_plan
from rectipath.geometry import Scene, TransientEdge, validate_path
from rectipath.oracle import bench_scene, oracle_arrivals, random_scene
from rectipath.scenario import canonical_scene, dump_scene, load_scene
from rectipath.pathrec import WitnessError
from rectipath.spm import (
    _CLASSES,
    _GRADS,
    MapFormatError,
    OutsideBoundingBox,
    ShortestPathMap,
    _harvest,
    _map_bytes,
    _spm_to_dict,
    build_spm,
    dump_spm,
    load_spm,
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
    assert all(isinstance(c.node, SrcNode) and c.dir in DIAGS for c in m.cells)
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
    flats = [c for c in m.cells if isinstance(c.node, SegNode)]
    assert flats and all(f.dir == "N" and f.node.line == 5 for f in flats)
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
            t, path = m.query(q)
            assert t == w
            assert validate_path(_retarget(scene, q), path, t).ok


def test_terminals_on_edge_endpoints():
    # A terminal on an edge endpoint is a vertex of the map sweep like any
    # other: it settles, leaves the live vertex set and (the destination
    # too) spawns its arrangement.  Left live, it re-split its own wavelets
    # forever.
    rng = random.Random(4343)
    for seed in range(1, 21):
        base = random_scene(seed, 3 + seed % 12)
        ends = sorted({p for e in base.edges for p in (e.p1, e.p2)})
        src, dst = rng.sample(ends, 2)
        for scene in (
            Scene(edges=base.edges, vmax=1, source=src, dest=base.dest),
            Scene(edges=base.edges, vmax=1, source=base.source, dest=dst),
            Scene(edges=base.edges, vmax=1, source=src, dest=dst),
        ):
            m = build_spm(scene)
            xlo, xhi, ylo, yhi = _hull(scene)
            qs = [scene.dest] + [(rng.randint(xlo, xhi), rng.randint(ylo, yhi)) for _ in range(15)]
            for q, w in zip(qs, oracle_arrivals(scene, qs)):
                t, path = m.query(q)
                assert t == w, (seed, scene.source, scene.dest, q)
                assert validate_path(_retarget(scene, q), path, t).ok, (seed, scene.source, scene.dest, q)


def test_matches_planner_on_mid_size_scenes():
    for seed in (3, 11, 27):
        scene = random_scene(seed, 10 + (seed * 7) % 31)
        m = build_spm(scene)
        t, path = m.query(scene.dest)
        assert t == fast_plan(scene).arrival
        assert validate_path(scene, path, t).ok


def test_map_at_every_vertex_of_two_ladders_equals_the_naive_label():
    # Every vertex of two ladders, the map against the plain engine's
    # whole-box label.
    for seed in (0, 16):
        scene = _ladder_scenes()["ladder_scene"](rectipath, seed)
        eng = _Engine(scene)
        eng.run(stop_at_dest=False)
        want = {eng.sc.point_out(p): eng.sc.time_out(node.time) for p, node in eng.labels.items()}
        m = build_spm(scene)
        verts = sorted({p for e in scene.edges for p in (e.p1, e.p2)})
        assert [m.arrival(v) for v in verts] == [want[v] for v in verts], seed


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


def test_scale_in_equals_the_fraction_formula():
    # ints take an integer fast path; every point, its coordinate types
    # included, scales to what the Fraction formula gives
    scene = random_scene(3, 10)

    def halved(p):
        return (Fraction(p[0], 2), Fraction(p[1], 2))

    edges = [TransientEdge(e.id, halved(e.p1), halved(e.p2), e.appear, e.disappear) for e in scene.edges]
    half = Scene(edges=edges, vmax=scene.vmax, source=halved(scene.source), dest=halved(scene.dest))
    xlo, xhi, ylo, yhi = _hull(scene)
    lo, hi = min(xlo, ylo) - 1, max(xhi, yhi) + 1
    vals = list(range(lo, hi + 1)) + [Fraction(v, 3) for v in range(3 * lo, 3 * hi)] + [0.5, 1.25, 2.0, -0.75]
    checked = 0
    for m in (build_spm(scene), build_spm(half)):
        for x, y in zip(vals, reversed(vals)):
            fx, fy = Fraction(x) * m.sc.coord_scale, Fraction(y) * m.sc.coord_scale
            want = tuple(int(f) if f.denominator == 1 else f for f in (fx, fy))
            try:
                got = m._scale_in((x, y))
            except OutsideBoundingBox:
                bxlo, bxhi, bylo, byhi = m.sc.bbox
                assert not (bxlo <= want[0] <= bxhi and bylo <= want[1] <= byhi), (x, y)
                continue
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (x, y)
            checked += 1
    assert checked > 100


def test_values_do_not_depend_on_cell_order():
    scene = random_scene(15, 9)
    m = build_spm(scene)
    rev = ShortestPathMap(m.sc, list(reversed(m.cells)), m.stop)
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


def test_float_scene_and_its_map_round_trip(tmp_path):
    # Floats are taken as their exact binary fractions, so both files hold
    # exact numbers and load back to the same scene and the same answers.
    base = random_scene(21, 10)
    pt = lambda p: (p[0] * 0.1, p[1] * 0.1)  # noqa: E731
    edges = tuple(TransientEdge(e.id, pt(e.p1), pt(e.p2), e.appear * 0.3, e.disappear * 0.3) for e in base.edges)
    scene = Scene(edges=edges, vmax=1.1, source=pt(base.source), dest=pt(base.dest))
    f = tmp_path / "scene.json"
    dump_scene(scene, f)
    assert load_scene(f) == scene
    m = build_spm(scene)
    f = tmp_path / "map.json"
    dump_spm(m, f)
    m2 = load_spm(f)
    rng = random.Random(3)
    xlo, xhi, ylo, yhi = _hull(base)
    for _ in range(40):
        q = pt((rng.randint(xlo, xhi), rng.randint(ylo, yhi)))
        t, path = m.query(q)
        assert m2.query(q) == (t, path) and m2.arrival(q) == t
        if not any(e.contains_point(q) for e in scene.edges):
            assert validate_path(_retarget(scene, q), path, t).ok, q


def test_load_rejects_other_files(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(MapFormatError):
        load_spm(f)
    f.write_text("{not json")
    with pytest.raises(MapFormatError):
        load_spm(f)
    # files the JSON decoder itself chokes on: nesting deeper than its
    # recursion allows, a byte that is no UTF-8, an integer too long to
    # convert
    for data in (b"[" * 100000 + b"]" * 100000, b'{"format": "\xff"}', b'{"version": ' + b"1" * 5000 + b"}"):
        f.write_bytes(data)
        with pytest.raises(MapFormatError):
            load_spm(f)


def _resigned(f, doc):
    """Write doc to f with a digest of its own, as a forger would: the
    loader's checks against the scene are what must catch the edit."""
    doc.pop("sha256", None)
    f.write_bytes(_map_bytes(doc))


def test_load_rejects_edited_or_corrupted_files(tmp_path):
    f = tmp_path / "map.json"
    dump_spm(build_spm(random_scene(4, 10)), f)
    data = f.read_bytes()
    doc = json.loads(data)
    assert len(doc["sha256"]) == 64 and data.endswith(b'"}\n')
    edited = dict(doc, cells=doc["cells"][1:])
    corrupt = {
        "edited": json.dumps(edited, separators=(",", ":")).encode() + b"\n",
        "reformatted": json.dumps(doc).encode(),
        "byte-flipped": data[:40] + bytes([data[40] ^ 1]) + data[41:],
        "digest-flipped": data[:-5] + (b"0" if data[-5:-4] != b"0" else b"1") + data[-4:],
        "truncated": data[: len(data) // 2],
        "no-digest": json.dumps({k: v for k, v in doc.items() if k != "sha256"}).encode(),
    }
    for what, body in corrupt.items():
        f.write_bytes(body)
        with pytest.raises(MapFormatError):
            load_spm(f)
    # the digest names the mismatch; a resigned edit loads, and answers from
    # the cells it was given
    f.write_bytes(corrupt["edited"])
    with pytest.raises(MapFormatError, match="digest"):
        load_spm(f)
    _resigned(f, edited)
    assert len(load_spm(f).cells) == len(doc["cells"]) - 1


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


def _cone(cell):
    return "dir" in cell


def _cell_node(cone, node_kinds):
    def edit(doc):
        cell = next(c for c in doc["cells"] if _cone(c) == cone)
        cell["node"] = _first(doc["nodes"], node_kinds)

    return edit


def _node_field(kind, name, value):
    def edit(doc):
        row = doc["nodes"][_first(doc["nodes"], (kind,))]
        if value is None:
            del row[name]
        else:
            row[name] = value(doc, row) if callable(value) else value

    return edit


def _cell_edit(cone, change):
    def edit(doc):
        change(next(c for c in doc["cells"] if _cone(c) == cone))

    return edit


def _off_quadrant(cell):
    # the x range moves far to the side its diagonal points away from
    far = -(10**6) if cell["dir"] in ("NE", "SE") else 10**6
    cell["rect"][:2] = [far, far]


def _shift_rect(cell):
    cell["rect"] = [v - 1 for v in cell["rect"]]


def _append_to_piece(row):
    """Edit appending a node row whose parent is the first piece row."""

    def edit(doc):
        i = _first(doc["nodes"], ("piece",))
        edge = doc["nodes"][i]["edge"]
        doc["nodes"].append(dict(row(doc["scene"]["edges"][edge], edge), parent=i))

    return edit


# the first piece's own edge lies on the piece's line, neither behind nor ahead
_front_on_its_parents_line = _append_to_piece(lambda e, edge: {"kind": "successor", "edge": edge})
_vertex_on_its_fronts_line = _append_to_piece(lambda e, edge: {"kind": "vertex", "point": e["p1"]})


def _row_is_list(doc):
    doc["nodes"][1] = list(doc["nodes"][1].values())


def _row_is_a_number(doc):
    doc["nodes"][1] = 1


def _cell_without_rect(doc):
    del doc["cells"][0]["rect"]


def _version(v):
    def edit(doc):
        doc["version"] = v

    return edit


def _case(edit, id, match=None):
    # match: what the error must say, for the checks against the scene
    return pytest.param(edit, match, id=id)


@pytest.mark.parametrize(
    "edit, match",
    [
        _case(_vertex_parent("self"), "self-cycle"),
        _case(_vertex_parent("next"), "later-row"),
        _case(_vertex_parent(-1), "negative"),
        _case(_vertex_parent(10**6), "out-of-range"),
        _case(_vertex_parent("0"), "not-an-int"),
        _case(_set_parent("successor", ("start", "vertex", "wait")), "bad-front"),
        _case(_set_parent("remainder", ("start", "vertex", "wait")), "remainder-of-a-source"),
        _case(_set_parent("wait", _FRONTS), "wait-after-a-front"),
        _case(_set_parent("piece", _FRONTS), "piece-of-a-front"),
        _case(_node_field("start", "parent", 0), "start-with-a-parent"),
        _case(_cell_node(True, _FRONTS), "cone-at-a-front"),
        _case(_cell_node(False, ("start",)), "flat-at-a-source"),
        _case(_node_field("wait", "host", lambda doc, row: len(doc["scene"]["edges"])), "host-outside-the-scene"),
        _case(_node_field("piece", "edge", -1), "edge-outside-the-scene"),
        _case(_node_field("successor", "edge", "0"), "edge-not-an-int"),
        _case(_node_field("vertex", "point", [1, 2, 3]), "point-of-three"),
        _case(_node_field("remainder", "kind", "front"), "unknown-kind"),
        _case(_node_field("wait", "kind", ["wait"]), "kind-not-a-string"),
        _case(_row_is_list, "row-is-a-list"),
        _case(_row_is_a_number, "row-is-a-number"),
        _case(_cell_without_rect, "cell-without-rect"),
        _case(_version(1), "version-1"),
        _case(_version(2), "version-2", "unsupported map version 2"),
        _case(_node_field("vertex", "point", [10**6, 10**6]), "vertex-not-a-scene-vertex", "not a scene vertex"),
        _case(
            _node_field("wait", "point", lambda doc, row: [c + 1 for c in row["point"]]),
            "wait-off-its-host",
            "off its host",
        ),
        _case(
            _node_field("piece", "dir", lambda doc, row: "E" if row["dir"] in ("N", "S") else "N"),
            "piece-parallel-to-its-edge",
            "parallel to edge",
        ),
        _case(
            _node_field("piece", "dir", lambda doc, row: {"N": "S", "S": "N", "E": "W", "W": "E"}[row["dir"]]),
            "piece-behind-its-source",
            "behind its parent",
        ),
        _case(_front_on_its_parents_line, "front-behind-its-parent", "behind its parent"),
        _case(_vertex_on_its_fronts_line, "vertex-behind-its-front", "behind its front"),
        _case(_cell_edit(True, _off_quadrant), "cone-rect-outside-its-quadrant", "quadrant"),
        _case(_cell_edit(False, _shift_rect), "flat-rect-off-its-line", "front's line"),
        _case(_cell_edit(True, lambda cell: cell.pop("dir")), "cone-cell-without-dir", "'dir'"),
        _case(_cell_edit(False, lambda cell: cell.update(dir="N")), "flat-cell-with-dir", "front's direction"),
    ],
)
def test_load_rejects_bad_provenance_references(tmp_path, edit, match):
    # random_scene(4, 10) has a node row of every kind
    f = tmp_path / "map.json"
    dump_spm(build_spm(random_scene(4, 10)), f)
    doc = json.loads(f.read_text())
    edit(doc)
    _resigned(f, doc)
    with pytest.raises(MapFormatError, match=match):
        load_spm(f)


def test_load_rejects_a_cycle_through_the_fronts(tmp_path):
    # two fronts naming each other as parent: one of them names a later row
    f = tmp_path / "map.json"
    dump_spm(build_spm(canonical_scene("S2")), f)
    doc = json.loads(f.read_text())
    nodes = doc["nodes"]
    k = len(nodes)
    nodes.append({"kind": "remainder", "edge": 0, "parent": k + 1})
    nodes.append({"kind": "remainder", "edge": 0, "parent": k})
    doc["cells"][0] = {"rect": [-1, 1, 5, 11], "node": k}
    _resigned(f, doc)
    with pytest.raises(MapFormatError):
        load_spm(f)


def _int_fields(doc):
    """Every int a node row holds (parent, host, edge, point coordinates)
    and every cell's rect coordinates and diagonal, as (rows, i, key, j)."""
    out = []
    for i, row in enumerate(doc["nodes"]):
        for k, v in row.items():
            if type(v) is int:
                out.append(("nodes", i, k, None))
            elif type(v) is list:
                out += [("nodes", i, k, j) for j in range(len(v))]
    for i, row in enumerate(doc["cells"]):
        out += [("cells", i, "rect", j) for j in range(4)]
        if "dir" in row:
            out.append(("cells", i, "dir", None))
    return out


def _load_or_none(f):
    try:
        return load_spm(f)
    except MapFormatError:
        return None


def test_edited_maps_fail_to_load_or_answer(tmp_path):
    # A map edited by one small shift either fails to load or answers every
    # query exactly as the unedited map.  The cell list is the sweep's
    # choice, which the loader cannot check against the scene, so the digest
    # must turn every edit away.  Resigned, as a forger would, the edit
    # either fails to load or answers; the loader derives every time, so
    # nothing is left that a query trips over.
    f = tmp_path / "map.json"
    for seed in (4, 7, 11, 19, 23):
        dump_spm(build_spm(random_scene(seed, 10)), f)
        data = f.read_bytes()
        unedited = load_spm(f)
        rng = random.Random(seed)
        fields = _int_fields(json.loads(data))
        for _ in range(300):
            doc = json.loads(data)
            rows, i, key, j = rng.choice(fields)
            by = rng.choice((-3, -2, -1, 1, 2, 3))
            row = doc[rows][i]
            if key == "dir":
                row[key] = DIAGS[(DIAGS.index(row[key]) + by) % 4]
            elif j is None:
                row[key] += by
            else:
                row[key][j] += by
            f.write_bytes(json.dumps(doc, separators=(",", ":")).encode() + b"\n")
            edited = _load_or_none(f)
            _resigned(f, doc)
            forged = _load_or_none(f)
            if edited is None and forged is None:
                continue
            xlo, xhi, ylo, yhi = unedited.sc.bbox
            for _ in range(30):
                q = unedited.sc.point_out((rng.randint(xlo, xhi), rng.randint(ylo, yhi)))
                if edited is not None:
                    assert edited.query(q)[0] == unedited.query(q)[0], (seed, rows, i, key, q)
                if forged is not None:
                    forged.query(q)


def test_map_file_lists_parents_first(tmp_path):
    f = tmp_path / "map.json"
    dump_spm(build_spm(random_scene(4, 10)), f)
    doc = json.loads(f.read_text())
    assert doc["version"] == 4 and set(doc) == {"format", "version", "scene", "nodes", "cells", "sha256"}
    parents = [r["parent"] for r in doc["nodes"]]
    assert parents[0] is None and all(0 <= p < i for i, p in enumerate(parents) if i)
    # rows hold only the sweep's choices; every time is derived on load
    for row in doc["nodes"] + doc["cells"]:
        assert not set(row) & {"time", "key", "line", "arrive", "off"}


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


def test_locate_is_the_minimum_over_all_cells():
    # Point location against a scan of every cell, at each cell corner and
    # its eight neighbours (inside, on the bounds, just outside, and outside
    # the box where no cell reaches) and at the map benchmark's query lattice
    scene = bench_scene(1, 200)
    m = build_spm(scene)
    pts = set()
    for c in m.cells:
        xlo, xhi, ylo, yhi = c.rect
        for x in (xlo, xhi):
            for y in (ylo, yhi):
                pts.update((x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
    rng = random.Random(1 * 7919 + 17)
    xlo, xhi, ylo, yhi = scene.bbox
    side = 28
    xs, ys = (
        [rng.randint(lo + (hi - lo) * i // side, lo + (hi - lo) * (i + 1) // side - 1) for i in range(side)]
        for lo, hi in ((xlo, xhi), (ylo, yhi))
    )
    pts.update(m._scale_in((x, y)) for x in xs for y in ys)
    cells = [(c.rect, c.off, _GRADS[c.dir], _CLASSES.index(c.dir), i) for i, c in enumerate(m.cells)]
    column = {x: [c for c in cells if c[0][0] <= x <= c[0][1]] for x in {p[0] for p in pts}}
    outside = 0
    for x, y in pts:
        want = min(
            ((off + gx * x + gy * y, ci, i) for r, off, (gx, gy), ci, i in column[x] if r[2] <= y <= r[3]),
            default=None,
        )
        if want is None:
            outside += 1
            with pytest.raises(WitnessError):
                m._locate((x, y))
        else:
            assert m._locate((x, y)) == want, (x, y)
    # 2579 cells: a root whose registered lower root's region holds its own
    # is never queued and leaves no record, nor is a flat front that an
    # earlier front of its (direction, line, key) holds, nor a wait fan
    # strictly inside the union of its edge's swept fronts, and since equal
    # (key, rank) events pop in push order alone, a front or fan may take
    # another equal-time claimant as its source
    assert len(m.cells) == 2579 and 0 < outside < len(pts)


class _AdmitEveryRoot(_FastEngine):
    """The sweep queueing every root, dominated ones too."""

    def _admit(self, p, w):
        super()._admit(p, w)  # the registry update alone
        return True


def test_dominated_roots_change_no_map_answer():
    # Maps with and without the roots refused at spawn, at every cell
    # corner of either and its eight neighbours inside the box, and at the
    # map benchmark's query lattice, where the witnesses are checked.  On
    # the ladders some map witnesses bend between vertex visits with or
    # without the refusal (ROADMAP item 1); they must be invalid at the
    # same points and for that reason alone.
    ns = _ladder_scenes()
    ladders = (ns["ladder_scene"](rectipath, 0), ns["ladder_scene"](rectipath, 16))
    for scene, allowed in [(bench_scene(1, 200), set())] + [(s, {"NonMonotoneSubpath"}) for s in ladders]:
        m = build_spm(scene)
        eng = _AdmitEveryRoot(scene, trace=True)
        eng.run(stop_at_dest=False)
        full = ShortestPathMap(eng.sc, _harvest(eng.trace), eng.stop)
        assert len(m.cells) < len(full.cells)
        xlo, xhi, ylo, yhi = m.sc.bbox
        pts = set()
        for c in m.cells + full.cells:
            for x in c.rect[:2]:
                for y in c.rect[2:]:
                    pts.update(
                        (x + dx, y + dy)
                        for dx in (-1, 0, 1)
                        for dy in (-1, 0, 1)
                        if xlo <= x + dx <= xhi and ylo <= y + dy <= yhi
                    )
        for q in map(m.sc.point_out, sorted(pts)):
            assert m.arrival(q) == full.arrival(q), q
        for q in ns["serve_points"](rectipath, scene, 1):
            codes = []
            for mm in (m, full):
                t, path = mm.query(q)
                codes.append(validate_path(_retarget(scene, q), path, t).codes())
            assert codes[0] == codes[1] and codes[0] <= allowed, q
