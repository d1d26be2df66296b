"""Malformed scenes fail at the planner entry points with ScenarioError.

One scene per validate_scene issue code (two for some), each otherwise the
canonical crossbar scene S2; fast_plan, naive_plan and build_spm must all
refuse it before any sweep, naming the issue.
"""

import pytest

from rectipath import ScenarioError, build_spm, fast_plan, naive_plan, validate_scene
from rectipath.geometry import Scene, TransientEdge

_BAR = TransientEdge(0, (-5, 5), (5, 5), 0, 6)


def _scene(*edges, vmax=1, source=(0, 0), dest=(0, 10)):
    return Scene(edges=(_BAR,) + edges, vmax=vmax, source=source, dest=dest)


MALFORMED = [
    ("BadSpeed", "zero speed", _scene(vmax=0)),
    ("BadSpeed", "negative speed", _scene(vmax=-1)),
    ("NonAxisParallel", "diagonal edge", _scene(TransientEdge(1, (7, 1), (9, 3), 0, 6))),
    ("NonAxisParallel", "edge of one point", _scene(TransientEdge(1, (7, 1), (7, 1), 0, 6))),
    ("BadInterval", "empty time window", _scene(TransientEdge(1, (7, 1), (7, 3), 4, 4))),
    ("BadInterval", "window before time 0", _scene(TransientEdge(1, (7, 1), (7, 3), -2, 4))),
    ("OverlappingEdges", "crossing edges", _scene(TransientEdge(1, (2, 3), (2, 7), 0, 6))),
    ("OverlappingEdges", "a T-touching pair", _scene(TransientEdge(1, (2, 5), (2, 8), 0, 6))),
    ("CollinearEdges", "two edges on one line", _scene(TransientEdge(1, (7, 5), (9, 5), 0, 6))),
    ("TerminalOnEdge", "source on an edge interior", _scene(source=(1, 5))),
    ("TerminalOnEdge", "destination on an edge interior", _scene(dest=(-1, 5))),
]


@pytest.mark.parametrize("code, what, scene", MALFORMED, ids=[m[1] for m in MALFORMED])
def test_entry_points_reject_malformed_scenes(code, what, scene):
    assert validate_scene(scene).codes() == {code}, what
    for entry in (fast_plan, naive_plan, build_spm):
        with pytest.raises(ScenarioError, match=code):
            entry(scene)


def test_every_issue_code_has_a_malformed_scene():
    codes = {"NonAxisParallel", "BadInterval", "OverlappingEdges", "CollinearEdges", "TerminalOnEdge", "BadSpeed"}
    assert {m[0] for m in MALFORMED} == codes
    assert validate_scene(_scene()).ok  # the base scene itself is well formed
