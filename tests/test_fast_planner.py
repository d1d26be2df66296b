"""Narrowing planner: dominance, witnesses from its own provenance."""

import random

from rectipath.engine import PointWavelet
from rectipath.fast import _FastEngine, fast_plan, narrow, replacement_rects, wavelet_stats
from rectipath.geometry import Scene, TransientEdge, l1_distance, validate_path
from rectipath.oracle import oracle_plan, random_scene
from rectipath.pathrec import build_path
from rectipath.scenario import canonical_scene


def _pw(origin, t0, rect, d):
    return PointWavelet(origin, t0, t0, rect, d, (None, None), False, None)


def test_narrow_keeps_the_earlier_wavelet_at_the_shared_corner():
    w1 = _pw((0, 0), 0, (0, 10, 0, 10), "NE")
    w2 = _pw((5, 5), 13, (5, 15, 5, 15), "NE")
    win, rects = narrow(w1, w2)
    assert win is w1
    assert rects == [(10, 15, 5, 15), (5, 10, 10, 15)]


def test_narrow_disjoint_regions_is_a_no_op():
    w1 = _pw((0, 0), 0, (0, 4, 0, 4), "NE")
    w2 = _pw((6, 6), 1, (6, 9, 6, 9), "NE")
    assert narrow(w1, w2) is None


def test_narrow_swallows_a_contained_latecomer():
    w1 = _pw((0, 0), 0, (0, 10, 0, 10), "NE")
    w2 = _pw((4, 4), 9, (4, 8, 4, 8), "NE")
    win, rects = narrow(w1, w2)
    assert win is w1 and rects == []


def test_narrow_tie_keeps_the_first_queued():
    w1 = _pw((0, 0), 2, (0, 10, 0, 10), "NE")
    w2 = _pw((3, 3), 2 + 6, (3, 12, 3, 12), "NE")  # same arrival at (3, 3)
    win, _rects = narrow(w1, w2)
    assert win is w1


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


def _quadrant_wavelet(rng, d):
    # rect anywhere inside the origin's sweep quadrant, detached allowed
    sx = 1 if d[1] == "E" else -1
    sy = 1 if d[0] == "N" else -1
    ox, oy = rng.randrange(-4, 5), rng.randrange(-4, 5)
    a, b = rng.randrange(0, 8), rng.randrange(0, 8)
    dx, dy = rng.randrange(0, 5), rng.randrange(0, 5)
    xlo = ox + sx * dx if sx > 0 else ox - dx - a
    ylo = oy + sy * dy if sy > 0 else oy - dy - b
    return _pw((ox, oy), rng.randrange(0, 15), (xlo, xlo + a, ylo, ylo + b), d)


def test_dominant_wavelet_wins_everywhere_in_the_overlap():
    rng = random.Random(5)
    done = 0
    while done < 200:
        d = rng.choice(("NE", "NW", "SE", "SW"))
        w1 = _quadrant_wavelet(rng, d)
        w2 = _quadrant_wavelet(rng, d)
        res = narrow(w1, w2)
        if res is None:
            continue
        done += 1
        win = res[0]
        lose = w2 if win is w1 else w1
        xlo = max(w1.rect[0], w2.rect[0])
        xhi = min(w1.rect[1], w2.rect[1])
        ylo = max(w1.rect[2], w2.rect[2])
        yhi = min(w1.rect[3], w2.rect[3])
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                a_win = win.t0 + l1_distance(win.origin, (x, y))
                a_lose = lose.t0 + l1_distance(lose.origin, (x, y))
                assert a_win <= a_lose, (w1.rect, w2.rect, d, (x, y))


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
    # The path itself may still slide along a bar instead of waiting (a
    # known pathrec fault), so only its arrival is checked here.
    assert res.path.waypoints[-1].arrive == 48


def test_canonical_arrivals_match_and_paths_validate():
    for name, want in [("S0", 10), ("S1", 20), ("S2", 11), ("S3", 10)]:
        scene = canonical_scene(name)
        res = fast_plan(scene)
        assert res.arrival == want, name
        assert validate_path(scene, res.path, res.arrival).ok, name


def test_unobstructed_scene_stats():
    stats = wavelet_stats(canonical_scene("S0"))
    assert stats.point_wavelets == 4
    assert stats.segment_wavelets == 0


def test_stats_are_deterministic():
    a = wavelet_stats(canonical_scene("S1"))
    b = wavelet_stats(canonical_scene("S1"))
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
    from rectipath.engine import naive_plan

    for seed in range(1, 41):
        scene = random_scene(1000 + seed, 10 + (seed * 7) % 31)
        res = fast_plan(scene)
        assert res.arrival == naive_plan(scene).arrival, seed
        assert validate_path(scene, res.path, res.arrival).ok, seed
