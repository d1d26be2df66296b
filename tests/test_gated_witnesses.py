"""The benchmark's gated scenes (perfbench/scenes.py gated_corpus: 24 ladders
whose answers wait at several bars, plus two repros) as a tier-1 gate:
fast_plan answers each as naive_plan does, and every witness but ladder 8's
passes validate_path.  Ladder 8's still fails with NonMonotoneSubpath, since
wait points sit at fan endpoints (ROADMAP item 1); no other scene and no
other code may fail.  The map's witnesses at every integer point of the two
repros must all pass."""

from dataclasses import replace

from test_exact_labels import _ladder_scenes

import rectipath
from rectipath.engine import naive_plan
from rectipath.fast import fast_plan
from rectipath.geometry import validate_path, validate_scene
from rectipath.spm import build_spm


def test_gated_plans_match_naive_and_their_witnesses_validate():
    corpus = _ladder_scenes()["gated_corpus"](rectipath)
    assert len(corpus) == 26
    invalid = {}
    for label, scene in corpus:
        res = fast_plan(scene)
        assert res.arrival == naive_plan(scene).arrival, label
        codes = validate_path(scene, res.path, res.arrival).codes()
        if codes:
            invalid[label] = codes
    assert invalid == {"ladder-8": {"NonMonotoneSubpath"}}


def test_map_witnesses_at_every_integer_point_of_the_repros():
    # Every point of the scene's box that is a valid destination; no
    # witness may fail validate_path.  NonMonotoneSubpath failures are
    # counted and printed, so that a regression shows where it is.
    ns = _ladder_scenes()
    counts = {}
    for name in ("early_settle_repro", "fallback_repro"):
        scene = ns[name](rectipath)
        m = build_spm(scene)
        xlo, xhi, ylo, yhi = scene.bbox
        points = non_monotone = 0
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                at = replace(scene, dest=(x, y))
                if not validate_scene(at).ok:
                    continue
                points += 1
                t, path = m.query((x, y))
                assert t == fast_plan(at).arrival, (name, (x, y))
                codes = validate_path(at, path, t).codes()
                assert codes <= {"NonMonotoneSubpath"}, (name, (x, y), codes)
                non_monotone += bool(codes)
        counts[name] = (non_monotone, points)
    print("NonMonotoneSubpath map witnesses (of points):", counts)
    assert counts == {"early_settle_repro": (0, 710), "fallback_repro": (0, 111)}, counts
