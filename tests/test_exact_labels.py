"""Exact labels: the map's whole-box sweep settles every point at the plain
engine's label, and the engines and the map answer a ladder whose answers
need crossing instants off the Hanan grid."""

from pathlib import Path

import rectipath
from rectipath.engine import _Engine, naive_plan
from rectipath.fast import _FastEngine, fast_plan
from rectipath.geometry import Scene, validate_path
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
    return {p: t for p, (t, _node) in eng.labels.items()}


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
