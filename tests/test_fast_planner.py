"""Narrowing planner: root order, witnesses from its own provenance."""

import random
import sys
from dataclasses import replace
from fractions import Fraction

from test_exact_labels import _ladder_scenes

import rectipath
from rectipath import engine
from rectipath.engine import (
    DIAGS,
    _RANK_POINT,
    _RANK_SEGMENT,
    PointWavelet,
    SegNode,
    SrcNode,
    _arrival,
    _Engine,
    naive_plan,
    run_plan,
)
from rectipath.fast import _NEAREST_CORNER, _FastEngine, _inside, _join, fast_plan
from rectipath.geometry import Scene, TransientEdge, l1_distance, validate_path, validate_scene
from rectipath.oracle import bench_scene, oracle_plan, random_scene
from rectipath.pathrec import build_path
from rectipath.scenario import canonical_scene
from rectipath.spm import ShortestPathMap, _harvest, build_spm
from rectipath.stopindex import _GRADS


def _piece(rng, roots):
    """A random root of roots and a random closed rectangle of its region,
    either anywhere in the region or in the quadrant of a region point."""
    root = rng.choice(roots)
    sx, sy = _GRADS[root.dir]
    xlo, xhi, ylo, yhi = root.rect
    if rng.random() < 0.5:
        o = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        xlo, xhi = (o[0], xhi) if sx > 0 else (xlo, o[0])
        ylo, yhi = (o[1], yhi) if sy > 0 else (ylo, o[1])
    x0, x1 = sorted((rng.randint(xlo, xhi), rng.randint(xlo, xhi)))
    y0, y1 = sorted((rng.randint(ylo, yhi), rng.randint(ylo, yhi)))
    return root, (x0, x1, y0, y1)


def test_lower_ranked_root_is_no_later_anywhere_in_the_overlap():
    # Roots made by the engine's own arrangement spawns at random points and
    # times of an open box; a random piece of each root's region is drawn.
    # Wherever two pieces of same-direction roots overlap, the root that
    # ranks lower arrives no later, so a cut by the lower root never removes
    # the earliest arrival.
    eng = _Engine(Scene(edges=(), vmax=1, source=(-8, -8), dest=(8, 8)))
    xlo, xhi, ylo, yhi = eng.bbox
    rng = random.Random(5)
    roots = {d: [] for d in DIAGS}
    eng._admit = lambda p, w: roots[w.dir].append(w) or _Engine._admit(eng, p, w)  # logs every root spawned
    for _ in range(40):
        p, t = (rng.randint(xlo, xhi), rng.randint(ylo, yhi)), rng.randrange(0, 12)
        eng._spawn_arrangement(p, t, SrcNode("vertex", p, t))
    done = 0
    while done < 300:
        d = rng.choice(DIAGS)
        (a, ra), (b, rb) = (_piece(rng, roots[d]) for _ in range(2))
        if a is b:
            continue
        xlo, xhi = max(ra[0], rb[0]), min(ra[1], rb[1])
        ylo, yhi = max(ra[2], rb[2]), min(ra[3], rb[3])
        if xlo > xhi or ylo > yhi:
            continue
        done += 1
        win, lose = (a, b) if a.rank < b.rank else (b, a)
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                # each root's own departure plus distance, and its value function
                a_win = win.src.time + l1_distance(win.src.point, (x, y))
                a_lose = lose.src.time + l1_distance(lose.src.point, (x, y))
                assert a_win == _arrival(win, (x, y)) and a_lose == _arrival(lose, (x, y))
                assert a_win <= a_lose, (win.rect, lose.rect, d, (x, y))


def _bars(spec, src, dst):
    edges = tuple(TransientEdge(i, p1, p2, a, d) for i, (p1, p2, a, d) in enumerate(spec))
    return Scene(edges=edges, vmax=1, source=src, dest=dst)


def test_waits_at_three_bars_are_witnessed_by_the_fast_engine():
    # The robot waits at each bar in turn.  The fast engine's own provenance
    # must yield the witness; no other engine is run for it.
    spec = [((-10, 2 * i + 1), (10, 2 * i + 1), 0, 5 * (i + 1)) for i in range(3)]
    scene = _bars(spec, (0, 0), (0, 7))
    eng = _FastEngine(scene)
    eng.run(stop_at_dest=True)
    path = build_path(eng)
    assert path.waypoints[-1].arrive == 17
    assert validate_path(scene, path, 17).ok


def test_fast_engine_does_not_settle_before_the_optimum():
    spec = [
        ((-28, 3), (27, 3), 1, 6),
        ((-24, 5), (24, 5), 1, 15),
        ((-24, 7), (24, 7), 2, 20),
        ((-26, 9), (24, 9), 2, 30),
        ((-27, 13), (25, 13), 1, 37),
        ((-24, 15), (27, 15), 1, 46),
    ]
    scene = _bars(spec, (0, 0), (2, 17))
    res = fast_plan(scene)
    assert res.arrival == 48 == oracle_plan(scene)
    # The path itself may still fail validate_path with NonMonotoneSubpath:
    # the sweep places each wait at the far end of its bar's accessible
    # interval (ROADMAP item 1), so only its arrival is checked here.
    assert res.path.waypoints[-1].arrive == 48


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_path_replay_depth_does_not_grow_with_the_ladder():
    # Waiting at each of 20 bars in turn gives a provenance chain 20 fronts
    # long.  Replaying it must not recurse once per hop: 20 frames above the
    # caller are plenty for the sweep and an iterative replay.
    spec = [((-50, 2 * i + 1), (50, 2 * i + 1), 0, 5 * (i + 1)) for i in range(20)]
    scene = _bars(spec, (0, 0), (0, 41))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        res = fast_plan(scene)
    finally:
        sys.setrecursionlimit(limit)
    assert res.arrival == 102
    assert validate_path(scene, res.path, 102).ok


def test_canonical_arrivals_match_and_paths_validate():
    for name, want in [("S0", 10), ("S1", 20), ("S2", 11), ("S3", 10)]:
        scene = canonical_scene(name)
        res = fast_plan(scene)
        assert res.arrival == want, name
        assert validate_path(scene, res.path, res.arrival).ok, name


def test_unobstructed_scene_stats():
    stats = fast_plan(canonical_scene("S0")).stats
    assert stats.point_wavelets == 4
    assert stats.segment_wavelets == 0
    assert stats.fronts_dropped == 0
    assert stats.fans_refused == 0


def test_stats_are_deterministic():
    a = fast_plan(canonical_scene("S1")).stats
    b = fast_plan(canonical_scene("S1")).stats
    assert a == b


def test_plan_is_deterministic():
    scene = random_scene(99, 9)
    a = fast_plan(scene)
    b = fast_plan(scene)
    assert a.arrival == b.arrival
    assert a.path.waypoints == b.path.waypoints
    assert a.stats == b.stats


def test_fuzz_matches_naive_and_reference():
    for seed in range(1, 151):
        scene = random_scene(seed, seed % 11)
        res = fast_plan(scene)
        assert res.arrival == oracle_plan(scene), seed
        assert validate_path(scene, res.path, res.arrival).ok, seed


def test_fuzz_matches_naive_at_larger_sizes():
    for seed in range(1, 41):
        scene = random_scene(1000 + seed, 10 + (seed * 7) % 31)
        res = fast_plan(scene)
        assert res.arrival == naive_plan(scene).arrival, seed
        assert validate_path(scene, res.path, res.arrival).ok, seed


def endpoint_terminal_scenes(seeds):
    """(seed, which, scene) with the source, the destination or both moved
    onto edge endpoints, which validate_scene allows."""
    for seed in seeds:
        base = random_scene(seed, 3 + seed % 12)
        rng = random.Random(seed)
        ends = sorted({p for e in base.edges for p in (e.p1, e.p2)})
        for which in ("source", "dest", "both"):
            s, d = base.source, base.dest
            if which != "dest":
                s = rng.choice(ends)
            if which != "source":
                d = rng.choice([p for p in ends if p != s])
            scene = replace(base, source=s, dest=d)
            assert validate_scene(scene).ok
            yield seed, which, scene


def test_terminals_on_edge_endpoints():
    # A source on an endpoint is settled at time 0 and leaves the live
    # vertex set at once; left in it, both engines re-split their own root
    # wavelets forever.
    for seed, which, scene in endpoint_terminal_scenes(range(1, 41)):
        want = oracle_plan(scene)
        for plan in (fast_plan, naive_plan):
            res = plan(scene)
            assert res.arrival == want, (seed, which, plan.__name__)
            assert validate_path(scene, res.path, res.arrival).ok, (seed, which, plan.__name__)


def test_whole_box_labels_with_terminals_on_edge_endpoints():
    # A lineage leaves its root's own vertex out of its bitset; at a source
    # on an endpoint that vertex is the source itself.  Over the whole box
    # the fast sweep settles every point at the plain engine's label, and
    # fast_plan's witnesses hold.
    for seed, which, scene in endpoint_terminal_scenes(range(1, 61)):
        labels = []
        for engine_cls in (_FastEngine, _Engine):
            eng = engine_cls(scene)
            eng.run(stop_at_dest=False)
            labels.append({p: node.time for p, node in eng.labels.items()})
        assert labels[0] == labels[1], (seed, which)
        res = fast_plan(scene)
        assert res.arrival == eng.sc.time_out(labels[1][eng.dest]), (seed, which)
        assert validate_path(scene, res.path, res.arrival).ok, (seed, which)


def _chain(node):
    """node's provenance chain back to the start, as comparable values."""
    out = []
    while node is not None:
        out.append(tuple(getattr(node, k) for k in node.__slots__ if k != "parent"))
        node = node.parent
    return out


def _plan_and_whole_box(engine_cls, scene):
    """A plan's engine and a whole-box run's, both run."""
    plan, whole = engine_cls(scene), engine_cls(scene)
    plan.run(stop_at_dest=True)
    whole.run(stop_at_dest=False)
    return plan, whole


def _check_exit(plan, whole, what):
    """The plan's destination label, its provenance and its witness are the
    whole-box run's."""
    node, node_whole = plan.labels[plan.dest], whole.labels[whole.dest]
    assert (node.time, _chain(node)) == (node_whole.time, _chain(node_whole)), what
    assert build_path(plan).waypoints == build_path(whole).waypoints, what


def test_plans_at_the_lower_bound_equal_the_whole_box_run():
    # A plan settles the destination at its first claim at the source's L1
    # distance and returns at the next pop.  Wherever that exit is taken,
    # by either engine, the label, its provenance and the witness are those
    # of the sweep that never exits.
    scenes = [("bench", s, n, bench_scene(s, n)) for s in (1, 2, 3) for n in (100, 400)]
    scenes += [("random", seed, None, random_scene(seed, 5 + seed % 36)) for seed in range(1, 301)]
    at_bound = 0
    for engine_cls in (_FastEngine, _Engine):
        for what in scenes:
            plan, whole = _plan_and_whole_box(engine_cls, what[-1])
            if plan.labels[plan.dest].time == l1_distance(plan.source, plan.dest):
                _check_exit(plan, whole, (engine_cls.__name__,) + what[:3])
                assert plan.stats.point_wavelets <= whole.stats.point_wavelets, what[:3]
                at_bound += 1
    # arrivals are exact, so which plans meet their bound is fixed: all 6
    # bench plans and 294 of the 300 random ones
    assert at_bound == 2 * (6 + 294)


def test_free_space_plan_stops_after_its_first_pops():
    # The destination of bench_scene(1, 800) is claimed at the bound by the
    # start's first root pop; the whole-box sweep counts 20,162 point
    # wavelets.
    assert fast_plan(bench_scene(1, 800)).stats.point_wavelets <= 8


def _index_built(eng):
    """Whether the engine has built its vertex index, which it does at the
    index's first use (_Engine._vertex_index)."""
    return eng.drm is not None


def test_a_plan_that_exits_at_its_first_root_builds_no_vertex_index():
    # The destination of these bench scenes lies in the start's first
    # popped root, which claims it at the bound.  That pop returns at the
    # claim, before the sweep uses the vertex index, so neither engine
    # builds one, and the narrowing engine queues no lineage after it: the
    # start's four roots are its only point wavelets.
    for scene in (bench_scene(1, 100), bench_scene(2, 100), bench_scene(1, 800), bench_scene(2, 800)):
        want = naive_plan(scene)
        for engine_cls in (_FastEngine, _Engine):
            eng = engine_cls(scene)
            res = run_plan(eng)
            node = eng.labels[eng.dest]
            assert node.time == l1_distance(eng.source, eng.dest) and node.parent.kind == "start"
            assert not _index_built(eng), engine_cls.__name__
            assert (res.arrival, res.path) == (want.arrival, want.path), engine_cls.__name__
            assert res.stats.point_wavelets == 4


def _lazy_and_eager(engine_cls, scene, stop_at_dest):
    """Two runs of the scene: one as the engine runs it, and one whose
    vertex index was built before its sweep began."""
    lazy, eager = engine_cls(scene), engine_cls(scene)
    eager._vertex_index()
    lazy.run(stop_at_dest=stop_at_dest)
    eager.run(stop_at_dest=stop_at_dest)
    return lazy, eager


def test_runs_that_use_the_vertex_index_build_it_and_keep_their_labels():
    # A destination in a later popped root of the start (the bench scenes
    # with their terminals swapped, so the first popped root, NE, misses
    # it), a source on an edge endpoint, plans above the bound (gated
    # ladders) and whole-box runs all use the index.  Each builds it, with
    # the source out of its live set, and settles every point at the label
    # of a run that built it before its sweep, by the same events.
    swapped = [replace(sc, source=sc.dest, dest=sc.source) for sc in (bench_scene(1, 200), bench_scene(2, 200))]
    on_endpoint = [scene for _seed, which, scene in endpoint_terminal_scenes(range(1, 6)) if which == "source"]
    ns = _ladder_scenes()
    ladders = [ns["ladder_scene"](rectipath, s) for s in (0, 8)]
    cases = [
        ("later root", swapped, True),
        ("source on an endpoint", on_endpoint, True),
        ("above the bound", ladders, True),
        ("whole box", swapped[:1] + on_endpoint[:1] + ladders[:1], False),
    ]
    for engine_cls in (_FastEngine, _Engine):
        for what, scenes, stop_at_dest in cases:
            for i, scene in enumerate(scenes):
                where = (engine_cls.__name__, what, i)
                lazy, eager = _lazy_and_eager(engine_cls, scene, stop_at_dest)
                assert _index_built(lazy), where
                sx, sy = lazy.source
                assert lazy.drm.report((sx, sx, sy, sy)) == [], where
                assert {p: n.time for p, n in lazy.labels.items()} == {p: n.time for p, n in eager.labels.items()}, where
                assert lazy.stats == eager.stats, where
                if stop_at_dest:
                    assert build_path(lazy).waypoints == build_path(eager).waypoints, where
                if what == "above the bound":
                    assert lazy.labels[lazy.dest].time > l1_distance(lazy.source, lazy.dest), where
    assert on_endpoint and all(sc.source in _Engine(sc).sc.verts for sc in on_endpoint)


class _DestClaims(_FastEngine):
    """The narrowing sweep, logging the key of every claim of the
    destination while it is unsettled."""

    def __init__(self, scene):
        super().__init__(scene)
        self.dest_claims = []

    def _claim(self, p, t, parent):
        if p == self.dest and p not in self.labels:
            self.dest_claims.append(t)
        super()._claim(p, t, parent)


def test_exit_after_a_first_claim_above_the_bound():
    # Found by a seeded search of random_scene: the destination's first
    # claim lies above its L1 bound, a later one meets it, and the plan
    # settles that one.
    scene = random_scene(6, 11)
    plan = _DestClaims(scene)
    plan.run(stop_at_dest=True)
    bound = l1_distance(plan.source, plan.dest)
    assert plan.dest_claims[0] > bound == plan.dest_claims[-1] == plan.labels[plan.dest].time
    for engine_cls in (_FastEngine, _Engine):
        _check_exit(*_plan_and_whole_box(engine_cls, scene), engine_cls.__name__)
    res = fast_plan(scene)
    assert res.arrival == oracle_plan(scene)
    assert validate_path(scene, res.path, res.arrival).ok


def test_exit_at_a_destination_on_an_edge_endpoint():
    # The destination is a vertex.  A whole-box run settles it in the loop,
    # removes it from the vertex index and spawns its roots; a plan settles
    # it at its claim and returns, with the same label and witness.
    _, _, scene = next(s for s in endpoint_terminal_scenes([1]) if s[1] == "dest")
    for engine_cls in (_FastEngine, _Engine):
        plan, whole = _plan_and_whole_box(engine_cls, scene)
        assert plan.dest in plan.sc.verts
        assert plan.labels[plan.dest].time == l1_distance(plan.source, plan.dest)
        assert plan.stats.point_wavelets < whole.stats.point_wavelets
        _check_exit(plan, whole, engine_cls.__name__)
    res = fast_plan(scene)
    assert res.arrival == oracle_plan(scene)
    assert validate_path(scene, res.path, res.arrival).ok


class _Recorded(_FastEngine):
    """The narrowing sweep, logging every root it spawns and every push."""

    def __init__(self, scene):
        super().__init__(scene)
        self.roots, self.pushes = [], []

    def _admit(self, p, w):
        self.roots.append(w)  # each root passes here, queued or dominated
        return super()._admit(p, w)

    def _push(self, key, rank, payload):
        what = payload
        if rank == _RANK_POINT:
            what = (what.dir, what.rank)
        elif rank == _RANK_SEGMENT:
            what = (what.kind, what.dir, what.line, what.key, what.edge, what.lo, what.hi, what.lo_open, what.hi_open)
        else:  # a settle's or a wait fan's point
            what = payload[0]
        self.pushes.append((key, rank, self.seq + 1, what))
        super()._push(key, rank, payload)


class _Uncut(PointWavelet):
    """A root that never keeps its cut mask, so every cut builds it anew."""

    __slots__ = ()
    cut = property(lambda self: None, lambda self, mask: None)


def test_cut_masks_are_built_once_and_change_no_event(monkeypatch):
    # A registered root keeps its strict-interior cut mask from its first
    # use as a cutter on.  Every kept mask is that root's interior in its
    # diagonal's corner space, each was built by one index call, and the
    # sweep spawns the same roots and queues the same events in the same
    # order as one that builds every mask anew at every cut.
    ns = _ladder_scenes()
    scenes = [bench_scene(1, 200)] + [ns["ladder_scene"](rectipath, s) for s in (0, 16)]
    for scene in scenes:
        eng = _Recorded(scene)
        drm = eng._vertex_index()
        interior, built = drm.interior, []
        drm.interior = lambda rect, corner: built.append(rect) or interior(rect, corner)
        eng.run(stop_at_dest=False)
        held = [w for w in eng.roots if w.cut is not None]
        assert held and len(built) == len(held)
        for w in held:
            assert w.cut == ~interior(w.rect, _NEAREST_CORNER[w.dir])
        with monkeypatch.context() as m:
            m.setattr(engine, "PointWavelet", _Uncut)
            fresh = _Recorded(scene)
            fresh.run(stop_at_dest=False)
        assert all(type(w) is _Uncut for w in fresh.roots)
        assert [(w.dir, w.rank, w.rect) for w in eng.roots] == [(w.dir, w.rank, w.rect) for w in fresh.roots]
        assert eng.pushes == fresh.pushes
        assert eng.stats == fresh.stats
        assert {p: n.time for p, n in eng.labels.items()} == {p: n.time for p, n in fresh.labels.items()}


def test_each_cap_edge_is_asked_once_per_spawn():
    # The two roots a stop caps share its edge's accessible interval: one
    # accessible_on call per stop of a spawn, whatever the roots clip.
    eng = _FastEngine(bench_scene(1, 200))
    stop, calls = eng.stop, {"stop": 0, "accessible": 0}

    def counted(name, fn):
        def call(*args):
            out = fn(*args)
            calls[name] += out is not None
            return out

        return call

    stop.stop_point = counted("stop", stop.stop_point)
    stop.accessible_on = counted("accessible", stop.accessible_on)
    eng.run(stop_at_dest=False)
    assert calls["accessible"] == calls["stop"] > 0
    assert eng.stats.segment_wavelets >= 2 * calls["stop"]


class _EveryFront(_FastEngine):
    """The narrowing sweep keeping every flat front, as the plain engine
    does; each front still joins its group's record, which the fan rule
    reads (a held front leaves the record as it is)."""

    def _do_segment(self, w):
        if w.key != self.swept_key:
            self.swept_key, self.swept = w.key, {}
        _join(*self.swept.setdefault((w.dir, w.line), ([], [])), w)
        _Engine._do_segment(self, w)


def _holds(h, w):
    """The all-pairs definition of holding: front h's span holds front w's,
    open ends respected: an open end of h holds only an open end of w at
    the same coordinate."""
    return (h.lo < w.lo or h.lo == w.lo and (w.lo_open or not h.lo_open)) and (
        w.hi < h.hi or w.hi == h.hi and (w.hi_open or not h.hi_open)
    )


def _runs(group):
    """The all-pairs definition of a group's runs: the maximal closed spans
    the union of its fronts covers."""
    runs = []
    for lo, hi in sorted((w.lo, w.hi) for w in group):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return runs


def test_the_flat_front_record_answers_as_the_all_pairs_definitions():
    # A group's record keeps only its maximal spans, in two rising lists.
    # Against every front of the group kept so far: a front is held (and
    # left out) exactly when one of them holds it, the record is their
    # maximal spans, and a point lies strictly inside the record's union
    # exactly when it lies strictly inside one of their runs.  Spans have
    # open ends and single points; fan points fall on and between ends.
    rng = random.Random(32)
    answers = {"held": set(), "inside": set()}
    assert not any(_inside([], [], c) for c in (-1, 0, 1))
    for _ in range(300):
        width, kept, record = rng.choice((2, 4, 8, 20)), [], ([], [])
        for _ in range(rng.randint(1, 30)):
            lo = rng.randint(0, width)
            hi = lo if rng.random() < 0.25 else rng.randint(lo, width)
            w = SegNode("piece", "N", 0, 0, None, None, lo, hi, rng.random() < 0.3, rng.random() < 0.3)
            held = any(_holds(h, w) for h in kept)
            assert _join(*record, w) is not held
            answers["held"].add(held)
            if not held:
                kept.append(w)
            maximal = [h for h in kept if not any(g is not h and _holds(g, h) for g in kept)]
            ends = sorted(((h.lo, h.lo_open), (h.hi, not h.hi_open)) for h in maximal)
            assert list(zip(*record)) == ends
            assert record[1] == sorted(record[1])
            runs = _runs(kept)
            for c in (Fraction(i, 2) for i in range(-1, 2 * width + 2)):
                inside = any(lo < c < hi for lo, hi in runs)
                assert _inside(*record, c) is inside, (c, runs, ends)
                answers["inside"].add(inside)
    assert answers == {"held": {False, True}, "inside": {False, True}}


def _kinds(node):
    """The kinds of node's provenance chain, back to the start."""
    out = []
    while node is not None:
        out.append(node.kind)
        node = node.parent
    return out


def test_dropped_flat_fronts_change_no_answer():
    # A flat front that an earlier front of its (direction, line, key) holds
    # is dropped at its pop.  Every gated plan, the whole-box labels with
    # their provenance kinds, and the map's arrivals and witnesses at the
    # map benchmark's query lattice equal those of the same sweep keeping
    # every front.
    ns = _ladder_scenes()
    dropped = 0
    for label, scene in ns["gated_corpus"](rectipath):
        got, want = fast_plan(scene), run_plan(_EveryFront(scene))
        assert (got.arrival, got.path.waypoints) == (want.arrival, want.path.waypoints), label
        dropped += got.stats.fronts_dropped
    assert dropped > 0
    for scene in [bench_scene(1, 200)] + [ns["ladder_scene"](rectipath, s) for s in (0, 16)]:
        labels = []
        for engine_cls in (_FastEngine, _EveryFront):
            eng = engine_cls(scene)
            eng.run(stop_at_dest=False)
            labels.append({p: (node.time, _kinds(node)) for p, node in eng.labels.items()})
        assert labels[0] == labels[1]
    scene = bench_scene(1, 200)
    m = build_spm(scene)
    eng = _EveryFront(scene, trace=True)
    eng.run(stop_at_dest=False)
    every = ShortestPathMap(eng.sc, _harvest(eng.trace), eng.stop)
    assert len(m.cells) < len(every.cells)
    for q in ns["serve_points"](rectipath, scene, 1):
        assert m.arrival(q) == every.arrival(q), q
        (t, path), (t_every, path_every) = m.query(q), every.query(q)
        assert (t, path.waypoints) == (t_every, path_every.waypoints), q


class _EveryFan(_FastEngine):
    """The narrowing sweep keeping every wait fan, as the plain engine does."""

    _do_fan = _Engine._do_fan


def test_refused_fans_change_no_answer():
    # A wait fan strictly inside a run of the fronts that leave its edge's
    # line at its key is refused at its pop, unless it stands on the column
    # of its parent vertex's axis ray.
    # Every gated plan's arrival, the whole-box labels and the map's arrivals
    # at the map benchmark's query lattice equal those of the same sweep
    # keeping every fan; witnesses may take other waits.
    ns = _ladder_scenes()
    refused = 0
    for label, scene in ns["gated_corpus"](rectipath):
        got = fast_plan(scene)
        assert got.arrival == run_plan(_EveryFan(scene)).arrival, label
        refused += got.stats.fans_refused
    assert refused > 0
    for scene in [bench_scene(1, 200)] + [ns["ladder_scene"](rectipath, s) for s in (0, 16)]:
        labels = []
        for engine_cls in (_FastEngine, _EveryFan):
            eng = engine_cls(scene)
            eng.run(stop_at_dest=False)
            labels.append({p: node.time for p, node in eng.labels.items()})
        assert labels[0] == labels[1]
    scene = bench_scene(1, 200)
    m = build_spm(scene)
    eng = _EveryFan(scene, trace=True)
    eng.run(stop_at_dest=False)
    every = ShortestPathMap(eng.sc, _harvest(eng.trace), eng.stop)
    assert len(m.cells) < len(every.cells)
    for q in ns["serve_points"](rectipath, scene, 1):
        assert m.arrival(q) == every.arrival(q), q
