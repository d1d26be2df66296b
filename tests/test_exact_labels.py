"""Exact labels: the map's whole-box sweep settles every point at the plain
engine's label, the engines and the map answer a ladder whose answers need
crossing instants off the Hanan grid, flat fronts on tall ladders grow
near-linearly with the bars, and refused wait fans keep a wide ladder's plan
growing near-linearly too."""

from pathlib import Path

import rectipath
from rectipath.engine import _Engine, naive_plan
from rectipath.fast import _FastEngine, fast_plan
from rectipath.geometry import Scene, TransientEdge, validate_path
from rectipath.oracle import bench_scene, random_scene
from rectipath.spm import build_spm


def _ladder_scenes():
    """perfbench's scene generators, run from their source so that nothing
    is written next to them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    ns = {"__name__": "ladder_scenes"}
    exec(compile(path.read_text(), str(path), "exec"), ns)
    return ns


def _whole_box_labels(engine_cls, scene):
    eng = engine_cls(scene)
    eng.run(stop_at_dest=False)
    return {p: node.time for p, node in eng.labels.items()}


def _check_labels(scene, what):
    assert _whole_box_labels(_FastEngine, scene) == _whole_box_labels(_Engine, scene), what


def test_whole_box_labels_on_the_gated_scenes():
    # Ladders 0 and 16 settled three vertices late while the settled-vertex
    # cut ignored the root order.
    for label, scene in _ladder_scenes()["gated_corpus"](rectipath):
        _check_labels(scene, label)


def test_whole_box_labels_on_random_scenes():
    for seed in range(1, 301):
        _check_labels(random_scene(seed, 5 + seed % 36), seed)


def test_whole_box_labels_on_a_bench_scene():
    _check_labels(bench_scene(1, 200), "bench_scene(1, 200)")


def _tall_ladder(k):
    """k bars (-50, 2i+1)-(50, 2i+1), bar i standing over [0, 5(i+1)], with
    the source under them at the origin."""
    edges = tuple(TransientEdge(i, (-50, 2 * i + 1), (50, 2 * i + 1), 0, 5 * (i + 1)) for i in range(k))
    return Scene(edges=edges, vmax=1, source=(0, 0), dest=(0, 2 * k + 1))


def test_whole_box_labels_on_tall_ladders():
    for k in (6, 10, 14, 20, 40, 80):
        _check_labels(_tall_ladder(k), "%d bars" % k)


def _wide_ladder(k):
    """The tall ladder's k bars, each 10k units wide: (-5k, 2i+1)-(5k, 2i+1)."""
    edges = tuple(TransientEdge(i, (-5 * k, 2 * i + 1), (5 * k, 2 * i + 1), 0, 5 * (i + 1)) for i in range(k))
    return Scene(edges=edges, vmax=1, source=(0, 0), dest=(0, 2 * k + 1))


def test_whole_box_labels_on_wide_ladders():
    for k in list(range(4, 13)) + [20, 40]:
        _check_labels(_wide_ladder(k), "%d wide bars" % k)


def test_whole_box_labels_on_wait_ladders():
    # Staggered bars and short walls, turned on their side or upside down by
    # the seed, so fronts and wait fans sweep in every direction.  Imported
    # here, as test_waits imports this module through test_fast_planner.
    from test_waits import wait_ladder

    for seed in range(240):
        _check_labels(wait_ladder(seed), "wait ladder %d" % seed)


def test_wait_fans_on_a_wide_ladder():
    # Every root under a bar caps on it, so a plan keeping every wait fan
    # spawned 3k^2 fans and pushed 121,056 point wavelets at 80 bars; a fan
    # strictly inside the union of the fronts that leave its bar's line at
    # its key is refused at its pop, and the plan's point wavelets grow
    # near-linearly with the bars.  Its flat fronts (130 / 460 / 1,720 /
    # 6,640) still grow near-quadratically; they are held to at most 4x per
    # doubling.
    counts, fronts = [], []
    for k in (10, 20, 40, 80):
        res = fast_plan(_wide_ladder(k))
        assert res.stats.fans_refused > 0, (k, res.stats)
        counts.append(res.stats.point_wavelets)
        fronts.append(res.stats.segment_wavelets)
    assert res.arrival == 402
    assert all(b <= 2.3 * a for a, b in zip(counts, counts[1:])), counts
    assert all(b <= 4.0 * a for a, b in zip(fronts, fronts[1:])), fronts


def test_flat_fronts_on_tall_ladders_grow_near_linearly():
    # Every bar's pieces share its line and disappearance, so their fronts
    # and the successors below them overlap; a front that an earlier one of
    # its (direction, line, key) holds is dropped at its pop.  Keeping every
    # front, the whole-box sweep pushed 14,800 / 98,940 / 504,820 fronts at
    # 20 / 40 / 80 bars.
    pushed = []
    for k in (20, 40, 80, 160):
        eng = _FastEngine(_tall_ladder(k))
        eng.run(stop_at_dest=False)
        pushed.append(eng.stats.segment_wavelets)
    ratios = [b / a for a, b in zip(pushed, pushed[1:])]
    assert all(b <= a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 2.3, pushed


def test_ladder_86_waits_off_the_hanan_grid():
    # The Hanan-grid reference answers 50 and 59 here: it has no line through
    # the crossing instants these routes need.  Every witness is checked.
    scene = _ladder_scenes()["ladder_scene"](rectipath, 86)
    m = build_spm(scene)
    for q, want in (((17, 30), 49), ((17, 39), 58)):
        at_q = Scene(edges=scene.edges, vmax=scene.vmax, source=scene.source, dest=q)
        for plan in (fast_plan, naive_plan):
            res = plan(at_q)
            assert res.arrival == want, (q, plan.__name__)
            assert validate_path(at_q, res.path, want).ok, (q, plan.__name__)
        assert m.arrival(q) == want, q
        t, path = m.query(q)
        assert t == want, q
        assert validate_path(at_q, path, want).ok, q
