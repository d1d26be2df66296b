"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a single summary line (visible with -s or on failure); the
pytest -v status of the test is the pass/fail line for that criterion.  The
two wall-clock criteria are hard when run locally and advisory under CI
(set by the CI environment variable), since shared runners make timing
ratios unreliable.
"""

import gc
import os
import random
import statistics
import time

import pytest

from rectipath.engine import naive_plan
from rectipath.fast import fast_plan
from rectipath.geometry import validate_path
from rectipath.oracle import bench_scene, oracle_arrivals, oracle_plan, random_scene
from rectipath.rangeindex import CornerWeightedVertices, RectStabber, WeightedRect
from rectipath.scenario import canonical_scene
from rectipath.spm import build_spm

_CI = bool(os.environ.get("CI"))


def _soft_fail(message):
    if _CI:
        pytest.xfail("advisory on shared hardware: " + message)
    pytest.fail(message)


def _hull(scene):
    pts = [scene.source, scene.dest] + [p for e in scene.edges for p in (e.p1, e.p2)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), max(xs), min(ys), max(ys)


@pytest.fixture(scope="module")
def small_runs():
    # Criterion 1 corpus, reused by criterion 8.
    runs = []
    for seed in range(1, 1001):
        scene = random_scene(seed, seed % 11)
        runs.append((seed, scene, fast_plan(scene), naive_plan(scene), oracle_plan(scene)))
    return runs


@pytest.fixture(scope="module")
def mid_runs():
    # Criterion 2 corpus, reused by criterion 8.
    runs = []
    for seed in range(1001, 1501):
        scene = random_scene(seed, 10 + (seed * 7) % 31)
        runs.append((seed, scene, fast_plan(scene), naive_plan(scene)))
    return runs


@pytest.fixture(scope="module")
def canonical_runs():
    runs = []
    for name, want in (("S0", 10), ("S1", 20), ("S2", 11), ("S3", 10)):
        scene = canonical_scene(name)
        runs.append((name, want, scene, fast_plan(scene), naive_plan(scene)))
    return runs


def test_criterion_1_exact_oracle_equivalence(small_runs):
    t0 = time.perf_counter()
    for seed, _scene, fast, naive, want in small_runs:
        assert fast.arrival == want, f"fast != oracle on seed {seed}"
        assert naive.arrival == want, f"naive != oracle on seed {seed}"
    dt = time.perf_counter() - t0
    print(f"criterion 1 PASS: 1000 scenes, fast = naive = oracle exactly ({dt:.1f}s compare)")


def test_criterion_2_naive_fast_equivalence_mid_size(mid_runs):
    for seed, scene, fast, naive in mid_runs:
        assert fast.arrival == naive.arrival, f"fast != naive on seed {seed}"
        for res in (fast, naive):
            report = validate_path(scene, res.path, res.arrival)
            assert report.ok, f"invalid path on seed {seed}: {report.issues[0]}"
    print("criterion 2 PASS: 500 scenes with n in [10, 40], equal arrivals, all paths valid")


def test_criterion_3_canonical_instances(canonical_runs):
    for name, want, scene, fast, naive in canonical_runs:
        assert oracle_plan(scene) == want, f"oracle disagrees with golden value on {name}"
        assert fast.arrival == want and naive.arrival == want, f"wrong arrival on {name}"
    print("criterion 3 PASS: S0=10 S1=20 S2=11 S3=10 on oracle, naive, and fast")


def test_criterion_4_linear_point_wavelet_count():
    seeds = range(1, 9)
    ratios = {}
    for n in (50, 100, 200, 400, 800):
        cm = max(60, 3 * n)
        counts = [
            fast_plan(random_scene(seed, n, coord_max=cm, time_max=2 * cm, max_len=20)).stats.point_wavelets
            for seed in seeds
        ]
        ratios[n] = statistics.fmean(counts) / n
    cap = 1.25 * ratios[50]
    over = {n: r for n, r in ratios.items() if r > cap}
    assert not over, f"point wavelets per edge grew past 1.25x the n=50 level: {over} vs cap {cap:.2f}"
    shown = ", ".join(f"n={n}: {r:.1f}" for n, r in ratios.items())
    print(f"criterion 4 PASS: point wavelets per edge stays within 1.25x of n=50 ({shown})")


def test_criterion_5_near_linear_scaling():
    # Collector pauses scale with everything the other fixtures keep alive,
    # not with this planner, so they are kept out of the timed region.  The
    # five runs per size are interleaved round-robin so that machine-load
    # drift lands on every size instead of one size's whole block.
    sizes = (100, 200, 400, 800)
    scenes = {n: bench_scene(1, n) for n in sizes}
    times = {n: [] for n in sizes}
    gc.collect()
    gc.disable()
    try:
        for rnd in range(6):
            for n in sizes:
                t0 = time.perf_counter()
                fast_plan(scenes[n])
                if rnd:  # round 0 is warmup
                    times[n].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    medians = {n: statistics.median(times[n]) for n in sizes}
    ratios = {n: medians[n] / medians[n // 2] for n in (200, 400, 800)}
    shown = ", ".join(f"T({n})/T({n // 2})={r:.2f}" for n, r in ratios.items())
    bad = {n: r for n, r in ratios.items() if r > 3.0}
    if bad:
        _soft_fail(f"doubling ratio exceeded 3.0: {shown}")
    print(f"criterion 5 PASS: {shown} (medians of 5 runs)")


def test_criterion_6_map_queries_exact_and_scalable():
    rng = random.Random(600)
    checked = 0
    for seed in range(1, 201):
        scene = random_scene(seed, seed % 11)
        m = build_spm(scene)
        xlo, xhi, ylo, yhi = _hull(scene)
        qs = [(rng.randint(xlo, xhi), rng.randint(ylo, yhi)) for _ in range(100)]
        for q, want in zip(qs, oracle_arrivals(scene, qs)):
            assert m.arrival(q) == want, f"map disagrees with oracle on seed {seed} at {q}"
            checked += 1

    maps, queries = {}, {}
    for n in (100, 800):
        scene = bench_scene(1, n)
        maps[n] = build_spm(scene)
        xlo, xhi, ylo, yhi = _hull(scene)
        queries[n] = [(rng.randint(xlo, xhi), rng.randint(ylo, yhi)) for _ in range(2000)]
        for q in queries[n][:200]:
            maps[n].arrival(q)  # warmup, untimed
    # As in criterion 5, the timed passes are interleaved round-robin and
    # compared by median, so machine-load drift lands on both sizes instead
    # of on one size's single pass.
    times = {n: [] for n in maps}
    gc.collect()
    gc.disable()
    try:
        for _rnd in range(5):
            for n, m in maps.items():
                qs = queries[n]
                t0 = time.perf_counter()
                for q in qs:
                    m.arrival(q)
                times[n].append((time.perf_counter() - t0) / len(qs))
    finally:
        gc.enable()
    per_query = {n: statistics.median(ts) for n, ts in times.items()}
    ratio = per_query[800] / per_query[100]
    print(
        f"criterion 6: {checked} queries exact; query time n=800/n=100 = {ratio:.2f} "
        f"({per_query[100] * 1e6:.0f}us -> {per_query[800] * 1e6:.0f}us, medians of 5 passes)"
    )
    if ratio > 4.0:
        _soft_fail(f"query time ratio {ratio:.2f} above 4.0")
    print("criterion 6 PASS")


def test_criterion_7_range_structures_vs_linear_scan():
    rng = random.Random(700)

    for rep in range(1000):
        rects = []
        for i in range(rng.randrange(0, 16)):
            x1, x2 = sorted(rng.randrange(0, 26) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 26) for _ in range(2))
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 9), i))
        st = RectStabber(rects)
        for _ in range(6):
            q = (rng.randrange(-2, 28), rng.randrange(-2, 28))
            floor = rng.choice([None, rng.randrange(0, 9)])
            want = min(
                (
                    (r.weight, r.payload)
                    for r in rects
                    if r.xlo <= q[0] <= r.xhi
                    and r.ylo <= q[1] <= r.yhi
                    and (floor is None or r.weight > floor)
                ),
                default=None,
            )
            got = st.query(q, floor)
            assert (None if got is None else (got.weight, got.payload)) == want

    corner_of = {
        "SW": lambda r: (r[0], r[2]),
        "SE": lambda r: (r[1], r[2]),
        "NW": lambda r: (r[0], r[3]),
        "NE": lambda r: (r[1], r[3]),
    }

    def inside(p, rect, sides):
        (x, y), (xlo, xhi, ylo, yhi) = p, rect
        return (
            (xlo < x if sides[0] else xlo <= x)
            and (x < xhi if sides[1] else x <= xhi)
            and (ylo < y if sides[2] else ylo <= y)
            and (y < yhi if sides[3] else y <= yhi)
        )

    for rep in range(1000):
        pts = sorted({(rng.randrange(0, 20), rng.randrange(0, 20)) for _ in range(rng.randrange(0, 24))})
        cw = CornerWeightedVertices([(p, i) for i, p in enumerate(pts)])
        live = set(pts)
        for _ in range(rng.randrange(1, 30)):
            op = rng.random()
            if op < 0.3 and live:
                gone = rng.choice(sorted(live))
                cw.remove(gone[0], gone[1], pts.index(gone))
                live.discard(gone)
                continue
            x1, x2 = sorted(rng.randrange(-1, 21) for _ in range(2))
            y1, y2 = sorted(rng.randrange(-1, 21) for _ in range(2))
            rect = (x1, x2, y1, y2)
            sides = tuple(rng.random() < 0.3 for _ in range(4))
            if op < 0.5:
                got = sorted((p.x, p.y) for p in cw.report(rect, sides))
                assert got == sorted(p for p in live if inside(p, rect, sides))
                continue
            corner = rng.choice(sorted(corner_of))
            cx, cy = corner_of[corner](rect)
            want = [
                min(
                    (p for p in cands if inside(p, rect, sides)),
                    key=lambda p: (abs(p[0] - cx) + abs(p[1] - cy), p),
                    default=None,
                )
                for cands in (pts, live)
            ]
            got = cw.nearest(rect, corner, sides, settled=True)
            assert [None if h is None else (h.x, h.y) for h in got] == want

    # the map's point location: minimum (weight, payload) closed rectangle,
    # no floor, with repeated weights and queries on and beside the bounds
    rng = random.Random(701)
    for rep in range(1000):
        rects = []
        for i in range(rng.randrange(0, 16)):
            x1, x2 = sorted(rng.randrange(0, 26) for _ in range(2))
            y1, y2 = sorted(rng.randrange(0, 26) for _ in range(2))
            rects.append(WeightedRect(x1, x2, y1, y2, rng.randrange(0, 5), rng.randrange(0, 16)))
        st = RectStabber(rects)
        for _ in range(6):
            if rects and rng.random() < 0.5:
                r = rng.choice(rects)
                x = rng.choice((r.xlo, r.xhi)) + rng.choice((-1, 0, 1))
                q = (x, rng.choice((r.ylo, r.yhi)) + rng.choice((-1, 0, 1)))
            else:
                q = (rng.randrange(-2, 28), rng.randrange(-2, 28))
            want = min(
                ((r.weight, r.payload) for r in rects if r.xlo <= q[0] <= r.xhi and r.ylo <= q[1] <= r.yhi),
                default=None,
            )
            got = st.query(q)
            assert (None if got is None else (got.weight, got.payload)) == want

    print(
        "criterion 7 PASS: stabbing, nearest-vertex lookup and the map's point location "
        "match linear scans on 1000 sequences each"
    )


def test_criterion_8_paths_monotone_with_legal_waits(small_runs, mid_runs, canonical_runs):
    bad = 0
    total = 0
    for seed, scene, fast, naive, _want in small_runs:
        for res in (fast, naive):
            total += 1
            bad += not validate_path(scene, res.path, res.arrival).ok
    for seed, scene, fast, naive in mid_runs:
        for res in (fast, naive):
            total += 1
            bad += not validate_path(scene, res.path, res.arrival).ok
    for _name, _want, scene, fast, naive in canonical_runs:
        for res in (fast, naive):
            total += 1
            bad += not validate_path(scene, res.path, res.arrival).ok
    assert bad == 0, f"{bad} of {total} paths failed validation"
    print(f"criterion 8 PASS: {total} paths valid (monotone subpaths, perpendicular wait departures)")
