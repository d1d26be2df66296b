import random
from fractions import Fraction

import pytest

from rectipath.geometry import Scene, TransientEdge, l1_distance
from rectipath.oracle import (
    ParamsInfeasible,
    oracle_arrivals,
    oracle_plan,
    random_scene,
)
from rectipath.scenario import canonical_scene


def test_canonical_scenes():
    assert oracle_plan(canonical_scene("S0")) == 10
    assert oracle_plan(canonical_scene("S1")) == 20
    assert oracle_plan(canonical_scene("S2")) == 11
    assert oracle_plan(canonical_scene("S3")) == 10


def test_tip_crossing_is_free():
    # The straight line pierces the bar exactly at its endpoint: legal.
    e = TransientEdge(0, (0, 5), (5, 5), 0, 100)
    scene = Scene(edges=(e,), vmax=1, source=(0, 0), dest=(0, 10))
    assert oracle_plan(scene) == 10


def test_boundary_instants_are_free():
    # Crossing exactly at appear or disappear is allowed (open interval).
    for ta, td in ((5, 9), (1, 5)):
        e = TransientEdge(0, (-5, 5), (5, 5), ta, td)
        scene = Scene(edges=(e,), vmax=1, source=(0, 0), dest=(0, 10))
        assert oracle_plan(scene) == 10


def test_fractional_speed():
    e = TransientEdge(0, (-5, 5), (5, 5), 0, 6)
    scene = Scene(edges=(e,), vmax=2, source=(0, 0), dest=(0, 10))
    # Blocked at t=2.5, wait on the bar until 6, then 5 units at speed 2.
    assert oracle_plan(scene) == Fraction(17, 2)


def test_arbitrary_target():
    scene = canonical_scene("S2")
    assert oracle_plan(scene, target=(3, 1)) == 4
    assert oracle_plan(scene, target=(0, 0)) == 0


def test_extra_targets_do_not_change_values():
    # Refining the grid with more lines must not move the optimum.
    for seed in range(30):
        scene = random_scene(seed, 5, coord_max=30, time_max=40)
        alone = oracle_plan(scene)
        rng = random.Random(seed + 1000)
        extras = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(3)]
        both = oracle_arrivals(scene, [scene.dest] + extras)
        assert both[0] == alone


def test_lower_bound_and_unblocked_equality():
    for seed in range(60):
        scene = random_scene(seed, seed % 6, coord_max=40, time_max=60)
        base = Fraction(l1_distance(scene.source, scene.dest), scene.vmax)
        assert oracle_plan(scene) >= base


def test_expired_windows_mean_free_space():
    e = TransientEdge(0, (-5, 5), (5, 5), 90, 100)
    scene = Scene(edges=(e,), vmax=1, source=(0, 0), dest=(0, 10))
    assert oracle_plan(scene) == 10


def test_removing_an_edge_never_hurts():
    for seed in range(40):
        scene = random_scene(seed, 4, coord_max=30, time_max=40)
        full = oracle_plan(scene)
        for i in range(len(scene.edges)):
            rest = tuple(e for j, e in enumerate(scene.edges) if j != i)
            sub = Scene(edges=rest, vmax=1, source=scene.source, dest=scene.dest)
            assert oracle_plan(sub) <= full


def test_shrinking_windows_never_hurts():
    rng = random.Random(77)
    for seed in range(40):
        scene = random_scene(seed, 4, coord_max=30, time_max=40)
        full = oracle_plan(scene)
        shrunk = []
        for e in scene.edges:
            ta, td = e.appear, e.disappear
            if td - ta > 2:
                ta, td = ta + rng.randint(0, 1), td - rng.randint(0, 1)
            shrunk.append(TransientEdge(e.id, e.p1, e.p2, ta, td))
        sub = Scene(edges=tuple(shrunk), vmax=1, source=scene.source, dest=scene.dest)
        assert oracle_plan(sub) <= full


def _mapped(scene, f):
    edges = tuple(
        TransientEdge(e.id, f(e.p1), f(e.p2), e.appear, e.disappear) for e in scene.edges
    )
    return Scene(edges=edges, vmax=scene.vmax, source=f(scene.source), dest=f(scene.dest))


def test_translation_invariance():
    for seed in range(25):
        scene = random_scene(seed, 5, coord_max=30, time_max=40)
        want = oracle_plan(scene)
        dx, dy = seed - 7, 3 * seed - 20
        assert oracle_plan(_mapped(scene, lambda p: (p[0] + dx, p[1] + dy))) == want


def test_axis_symmetry_invariance():
    maps = []
    for sx in (1, -1):
        for sy in (1, -1):
            for swap in (False, True):
                maps.append(
                    lambda p, sx=sx, sy=sy, swap=swap: (
                        (sy * p[1], sx * p[0]) if swap else (sx * p[0], sy * p[1])
                    )
                )
    assert len(maps) == 8
    for seed in range(12):
        scene = random_scene(seed, 5, coord_max=30, time_max=40)
        want = oracle_plan(scene)
        for f in maps:
            assert oracle_plan(_mapped(scene, f)) == want


def test_random_scene_determinism():
    a = random_scene(42, 7)
    b = random_scene(42, 7)
    assert a == b
    assert random_scene(43, 7) != a


def test_random_scene_shape():
    for seed in range(20):
        scene = random_scene(seed, 6, coord_max=25, time_max=30)
        assert len(scene.edges) == 6
        assert scene.vmax == 1
        for e in scene.edges:
            for (x, y) in e.endpoints:
                assert 0 <= x <= 25 and 0 <= y <= 25
            assert 0 <= e.appear < e.disappear <= 30


def test_random_scene_infeasible_params():
    with pytest.raises(ParamsInfeasible):
        random_scene(1, 50, coord_max=2, time_max=10)


def _all_pairs_scene(seed, n, coord_max=60, time_max=100, max_len=20):
    """random_scene's draws with the general-position test done against
    every placed edge: the reference its indexed test must reproduce."""
    rng = random.Random(seed)
    edges = []
    while len(edges) < n:
        a = rng.randint(0, coord_max - 1)
        b = min(a + rng.randint(1, max_len), coord_max)
        line = rng.randint(0, coord_max)
        ta = rng.randint(0, time_max - 1)
        td = min(ta + rng.randint(1, time_max), time_max)
        if rng.random() < 0.5:
            cand = TransientEdge(len(edges), (a, line), (b, line), ta, td)
        else:
            cand = TransientEdge(len(edges), (line, a), (line, b), ta, td)
        ok = True
        for e in edges:
            if e.horizontal == cand.horizontal:
                ok = e.line_coord != cand.line_coord
            else:
                h, v = (e, cand) if e.horizontal else (cand, e)
                ok = not (h.span[0] <= v.line_coord <= h.span[1] and v.span[0] <= h.line_coord <= v.span[1])
            if not ok:
                break
        if ok:
            edges.append(cand)
    terminals = []
    while len(terminals) < 2:
        p = (rng.randint(0, coord_max), rng.randint(0, coord_max))
        if p not in terminals and all(not e.contains_point(p) for e in edges):
            terminals.append(p)
    return Scene(edges=tuple(edges), vmax=1, source=terminals[0], dest=terminals[1])


def test_random_scene_matches_the_all_pairs_reference():
    cases = [(seed, n, {}) for seed in range(40) for n in (0, 1, 3, 8, 20)]
    cases += [(seed, 40, dict(coord_max=40, time_max=60)) for seed in range(3)]
    for seed, n in ((1, 100), (1, 200), (2, 200), (1, 800), (2, 800)):  # bench_scene sizes
        side = max(60, 3 * n)
        cases.append((seed, n, dict(coord_max=side, time_max=2 * side, max_len=20)))
    for seed, n, kw in cases:
        assert random_scene(seed, n, **kw) == _all_pairs_scene(seed, n, **kw), (seed, n, kw)
