"""The walled family: bench scenes crossed by long bars that stand until
after the sweep reaches them, so that every plan must wait and ends above
its L1 bound (oracle.walled_scene)."""

from test_exact_labels import _check_labels

from rectipath import WaveletStats, fast_plan, l1_distance, naive_plan, oracle_plan, validate_path
from rectipath.oracle import bench_scene, walled_scene


def test_walled_scene_adds_bars_on_free_lines_to_a_bench_scene():
    for seed, n in ((1, 100), (2, 400), (3, 40)):
        scene, k = walled_scene(seed, n), n // 20
        base = bench_scene(seed, n - k)
        side = max(60, 3 * (n - k))
        assert scene == walled_scene(seed, n)
        assert scene.edges[: n - k] == base.edges
        assert (scene.source, scene.dest) == (base.source, base.dest)
        bars = scene.edges[n - k :]
        assert len(bars) == k and len({e.line_coord for e in bars}) == k
        for e in bars:
            y = e.line_coord
            assert e.horizontal and (e.p1, e.p2) == ((-side, y), (2 * side, y))
            assert 2 <= y <= side - 2 and y not in (scene.source[1], scene.dest[1])
            assert e.appear == 0 and 1 <= e.disappear - (y + side) <= 40
            for f in base.edges:
                assert f.line_coord != y if f.horizontal else not f.span[0] <= y <= f.span[1]


def test_fast_equals_naive_on_walled_scenes():
    # Every plan of the family waits: none ends at its L1 bound.
    for seed in range(1, 21):
        scene = walled_scene(seed, 100)
        got = fast_plan(scene).arrival
        assert got == naive_plan(scene).arrival, seed
        assert got > l1_distance(scene.source, scene.dest), seed


def test_walled_plans_never_above_the_grid_oracle():
    for n in (40, 60):
        for seed in range(1, 11):
            scene = walled_scene(seed, n)
            assert fast_plan(scene).arrival <= oracle_plan(scene), (seed, n)


def test_whole_box_labels_on_walled_scenes():
    for seed, n in ((1, 40), (2, 60), (3, 100), (4, 100)):
        _check_labels(walled_scene(seed, n), "walled_scene(%d, %d)" % (seed, n))


def test_walled_plan_counters_are_pinned():
    # The flat-front record drops the fronts and refuses the fans that the
    # group lists it replaced did.
    assert fast_plan(walled_scene(1, 400)).stats == WaveletStats(
        point_wavelets=11185,
        dominated=1034,
        segment_wavelets=2966,
        fronts_dropped=1568,
        fans_refused=540,
        narrows=7134,
        expands=0,
    )


def test_walled_witness_faults_do_not_grow():
    # ROADMAP item 1: a chain with several waits may replay x back and
    # forth.  10 of these 40 plans fail so; the count may only fall.
    invalid = {}
    for seed in range(1, 41):
        scene = walled_scene(seed, 100)
        res = fast_plan(scene)
        codes = validate_path(scene, res.path, res.arrival).codes()
        if codes:
            invalid[seed] = codes
    print("invalid walled witnesses (seed: codes):", invalid)
    assert all(codes == {"NonMonotoneSubpath"} for codes in invalid.values()), invalid
    assert len(invalid) <= 10, invalid
