"""Narrowing planner: root order, witnesses from its own provenance."""

import random
import sys
from dataclasses import replace

from rectipath.engine import DIAGS, _DIAG_SIGNS, PointWavelet, _arrival, _Engine, naive_plan
from rectipath.fast import _FastEngine, fast_plan, replacement_rects
from rectipath.geometry import Scene, TransientEdge, l1_distance, validate_path, validate_scene
from rectipath.oracle import oracle_plan, random_scene
from rectipath.pathrec import build_path
from rectipath.scenario import canonical_scene


def _rand_rect(rng):
    xlo = rng.randrange(0, 10)
    ylo = rng.randrange(0, 10)
    return (xlo, xlo + rng.randrange(0, 6), ylo, ylo + rng.randrange(0, 6))


def test_replacement_rects_cover_the_difference_exactly():
    rng = random.Random(3)
    for _ in range(400):
        r1 = _rand_rect(rng)
        r2 = _rand_rect(rng)
        reps = replacement_rects(r1, r2)
        for r in reps:
            assert r[0] <= r[1] and r[2] <= r[3]
            assert r2[0] <= r[0] and r[1] <= r2[1] and r2[2] <= r[2] and r[3] <= r2[3]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                a, b = reps[i], reps[j]
                ox = (max(a[0], b[0]), min(a[1], b[1]))
                oy = (max(a[2], b[2]), min(a[3], b[3]))
                assert ox[0] >= ox[1] or oy[0] >= oy[1], (r1, r2)
        for x in range(r2[0], r2[1] + 1):
            for y in range(r2[2], r2[3] + 1):
                covered = any(r[0] <= x <= r[1] and r[2] <= y <= r[3] for r in reps)
                if r1[0] < x < r1[1] and r1[2] < y < r1[3]:
                    assert not covered, (r1, r2, x, y)
                elif not (r1[0] <= x <= r1[1] and r1[2] <= y <= r1[3]):
                    assert covered, (r1, r2, x, y)
                # r1 boundary points belong to the dominant region either way
        for x in range(r2[0], r2[1]):
            for y in range(r2[2], r2[3]):
                c = (x + 0.5, y + 0.5)
                covered = any(r[0] <= c[0] <= r[1] and r[2] <= c[1] <= r[3] for r in reps)
                in_r1 = r1[0] <= c[0] <= r1[1] and r1[2] <= c[1] <= r1[3]
                assert covered == (not in_r1), (r1, r2, c)


def _piece(rng, root):
    """A random piece of root's lineage as splits make it: a sub-rectangle of
    root's region, either anywhere in it or in the quadrant of a region
    point, queued at root's arrival at its corner nearest the origin."""
    sx, sy = _DIAG_SIGNS[root.dir]
    xlo, xhi, ylo, yhi = root.rect
    if rng.random() < 0.5:
        o = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        xlo, xhi = (o[0], xhi) if sx > 0 else (xlo, o[0])
        ylo, yhi = (o[1], yhi) if sy > 0 else (ylo, o[1])
    x0, x1 = sorted((rng.randint(xlo, xhi), rng.randint(xlo, xhi)))
    y0, y1 = sorted((rng.randint(ylo, yhi), rng.randint(ylo, yhi)))
    corner = (x0 if sx > 0 else x1, y0 if sy > 0 else y1)
    return PointWavelet(root.t0 + l1_distance(root.origin, corner), (x0, x1, y0, y1), root)


def test_lower_ranked_root_is_no_later_anywhere_in_the_overlap():
    # Roots made by the engine's own arrangement spawns at random points and
    # times of an open box; pieces of their lineages drawn as splits make
    # them.  Wherever two same-direction pieces overlap, the one whose root
    # ranks lower arrives no later, so a cut by the lower root never removes
    # the earliest arrival.
    eng = _Engine(Scene(edges=(), vmax=1, source=(-8, -8), dest=(8, 8)))
    xlo, xhi, ylo, yhi = eng.bbox
    rng = random.Random(5)
    roots = {d: [] for d in DIAGS}
    for _ in range(40):
        p = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        for w in eng._spawn_arrangement(p, rng.randrange(0, 12), None):
            roots[w.dir].append(w)
    done = 0
    while done < 300:
        d = rng.choice(DIAGS)
        a, b = (_piece(rng, rng.choice(roots[d])) for _ in range(2))
        if a.root is b.root:
            continue
        xlo, xhi = max(a.rect[0], b.rect[0]), min(a.rect[1], b.rect[1])
        ylo, yhi = max(a.rect[2], b.rect[2]), min(a.rect[3], b.rect[3])
        if xlo > xhi or ylo > yhi:
            continue
        done += 1
        win, lose = (a.root, b.root) if a.root.rank < b.root.rank else (b.root, a.root)
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                # each root's own departure plus distance, and its value function
                a_win = win.t0 + l1_distance(win.origin, (x, y))
                a_lose = lose.t0 + l1_distance(lose.origin, (x, y))
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
