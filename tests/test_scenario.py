"""Scene documents: every refusal of the reader names its cause, and no
number string makes it build an unbounded power of ten."""

import json
import re
from fractions import Fraction

import pytest

from rectipath import ScenarioError, loads_scene
from rectipath.scenario import _dec_num, _dec_point, canonical_scene, dumps_scene, scene_from_dict


def _doc():
    """S1 as a scene document: one transient crossbar."""
    return json.loads(dumps_scene(canonical_scene("S1")))


@pytest.mark.parametrize(
    "value, fragment",
    [
        (True, "vmax: expected a number, got True"),
        ("abc", "vmax: bad number string 'abc'"),
        ("1/0", "vmax: bad number string '1/0'"),
        (1.5, "vmax: expected int or numeric string, got float"),
        ("1e4301", "vmax: exponent beyond +-4300 in '1e4301'"),
        ("2.5E-4301", "vmax: exponent beyond +-4300 in '2.5E-4301'"),
    ],
    ids=["bool", "bad string", "zero denominator", "JSON float", "exponent", "negative exponent"],
)
def test_dec_num_refusals(value, fragment):
    with pytest.raises(ScenarioError, match=re.escape(fragment)):
        _dec_num(value, "vmax")


def test_dec_num_takes_exponents_up_to_the_limit():
    assert _dec_num("1e4300", "vmax") == 10**4300
    assert _dec_num("-3E-4300", "vmax") == Fraction(-3, 10**4300)
    assert _dec_num("2.5e1", "vmax") == 25


@pytest.mark.parametrize("value", [[1, 2, 3], [1], "1,2", {"x": 1, "y": 2}], ids=["three", "one", "string", "object"])
def test_dec_point_refuses_what_is_not_a_pair(value):
    with pytest.raises(ScenarioError, match=re.escape("source: expected [x, y]")):
        _dec_point(value, "source")


def _edited(edit):
    doc = _doc()
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ([], "top level must be an object"),
        (_edited(lambda d: d.update(version=2)), "unsupported version 2"),
        (_edited(lambda d: d.pop("vmax")), "missing field 'vmax'"),
        (_edited(lambda d: d.update(edges={})), "edges must be a list"),
        (_edited(lambda d: d.update(edges=[5])), "edges[0]: expected an object"),
        (_edited(lambda d: d["edges"][0].update(color="red")), "edges[0]: unknown fields: ['color']"),
        (_edited(lambda d: d["edges"][0].pop("appear")), "edges[0]: missing field 'appear'"),
        (_edited(lambda d: d["edges"][0].update(id="0")), "edges[0].id: expected an integer"),
        (_edited(lambda d: d["edges"][0].update(id=True)), "edges[0].id: expected an integer"),
    ],
    ids=[
        "not an object",
        "unsupported version",
        "missing field",
        "edges not a list",
        "edge not an object",
        "unknown edge field",
        "missing edge field",
        "string id",
        "bool id",
    ],
)
def test_scene_from_dict_refusals(doc, fragment):
    with pytest.raises(ScenarioError, match=re.escape(fragment)):
        scene_from_dict(doc)


def test_canonical_scene_refuses_an_unknown_name():
    with pytest.raises(ScenarioError, match=re.escape("unknown canonical scene 'S9'")):
        canonical_scene("S9")


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda d: d.update(vmax="1e100000"), "vmax"),
        (lambda d: d["edges"][0]["p1"].__setitem__(0, "1e100000"), "edges[0].p1.x"),
        (lambda d: d.update(dest=[0, "-1e100000"]), "dest.y"),
        (lambda d: d["edges"][0].update(disappear="1e100000"), "edges[0].disappear"),
        (lambda d: d["edges"][0].update(appear="1e-100000"), "edges[0].appear"),
    ],
    ids=["vmax", "edge coordinate", "destination coordinate", "time", "time of negative exponent"],
)
def test_a_huge_exponent_is_refused(edit, where):
    # Fraction would build a power of ten of that many digits: a hang for
    # "1e999999999", so the reader refuses the exponent before parsing
    with pytest.raises(ScenarioError, match=re.escape(where + ": exponent beyond +-4300")):
        loads_scene(json.dumps(_edited(edit)))
