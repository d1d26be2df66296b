"""The benchmark's gated scenes (perfbench/scenes.py gated_corpus: 24 ladders
whose answers wait at several bars, plus two repros) as a tier-1 gate:
fast_plan answers each as naive_plan does, and every witness but ladder 8's
passes validate_path.  Ladder 8's still fails with NonMonotoneSubpath, since
wait points sit at fan endpoints (ROADMAP item 1); no other scene and no
other code may fail."""

from test_exact_labels import _ladder_scenes

import rectipath
from rectipath.engine import naive_plan
from rectipath.fast import fast_plan
from rectipath.geometry import validate_path


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
