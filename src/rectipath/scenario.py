"""Scene files: a small versioned JSON format plus the canonical test scenes.

Numbers are written as plain integers when integral and as exact strings
("1/3", "2.5") otherwise, so a parse -> serialize -> parse round trip is
identity.  Unknown fields are rejected rather than ignored; silently
accepting typos in hand-written scene files has burned us before.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, Union

from .geometry import Scene, TransientEdge, validate_scene

FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario document."""


# Fraction builds 10**k for an exponent k, which takes seconds from k = 10**7
# on; int() and the JSON decoder stop integers at 4300 digits
_MAX_EXPONENT = 4300


def _enc_num(v: Union[int, Fraction]):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


def _dec_num(v: Any, where: str) -> Union[int, Fraction]:
    if isinstance(v, bool):
        raise ScenarioError(f"{where}: expected a number, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        _, e, exp = v.upper().partition("E")
        try:
            big = e and abs(int(exp)) > _MAX_EXPONENT
        except ValueError:  # no exponent int() reads: Fraction refuses the string
            big = False
        if big:
            raise ScenarioError(f"{where}: exponent beyond +-{_MAX_EXPONENT} in {v!r}")
        try:
            f = Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"{where}: bad number string {v!r}") from exc
        return int(f) if f.denominator == 1 else f
    raise ScenarioError(f"{where}: expected int or numeric string, got {type(v).__name__}")


def _dec_point(v: Any, where: str):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ScenarioError(f"{where}: expected [x, y]")
    return (_dec_num(v[0], where + ".x"), _dec_num(v[1], where + ".y"))


def scene_to_dict(scene: Scene) -> Dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "vmax": _enc_num(scene.vmax),
        "source": [_enc_num(scene.source[0]), _enc_num(scene.source[1])],
        "dest": [_enc_num(scene.dest[0]), _enc_num(scene.dest[1])],
        "edges": [
            {
                "id": e.id,
                "p1": [_enc_num(e.p1[0]), _enc_num(e.p1[1])],
                "p2": [_enc_num(e.p2[0]), _enc_num(e.p2[1])],
                "appear": _enc_num(e.appear),
                "disappear": _enc_num(e.disappear),
            }
            for e in scene.edges
        ],
    }


def scene_from_dict(doc: Any) -> Scene:
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    extra = set(doc) - {"version", "vmax", "source", "dest", "edges"}
    if extra:
        raise ScenarioError(f"unknown fields: {sorted(extra)}")
    if "version" not in doc:
        raise ScenarioError("missing version field")
    if doc["version"] != FORMAT_VERSION:
        raise ScenarioError(f"unsupported version {doc['version']!r}")
    for field in ("vmax", "source", "dest", "edges"):
        if field not in doc:
            raise ScenarioError(f"missing field {field!r}")
    if not isinstance(doc["edges"], list):
        raise ScenarioError("edges must be a list")
    edges = []
    for i, ed in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(ed, dict):
            raise ScenarioError(f"{where}: expected an object")
        extra = set(ed) - {"id", "p1", "p2", "appear", "disappear"}
        if extra:
            raise ScenarioError(f"{where}: unknown fields: {sorted(extra)}")
        for field in ("id", "p1", "p2", "appear", "disappear"):
            if field not in ed:
                raise ScenarioError(f"{where}: missing field {field!r}")
        if not isinstance(ed["id"], int) or isinstance(ed["id"], bool):
            raise ScenarioError(f"{where}.id: expected an integer")
        edges.append(
            TransientEdge(
                ed["id"],
                _dec_point(ed["p1"], where + ".p1"),
                _dec_point(ed["p2"], where + ".p2"),
                _dec_num(ed["appear"], where + ".appear"),
                _dec_num(ed["disappear"], where + ".disappear"),
            )
        )
    scene = Scene(
        edges=tuple(edges),
        vmax=_dec_num(doc["vmax"], "vmax"),
        source=_dec_point(doc["source"], "source"),
        dest=_dec_point(doc["dest"], "dest"),
    )
    return check_scene(scene)


def check_scene(scene: Scene) -> Scene:
    """The scene itself, or ScenarioError naming every issue validate_scene
    finds in it."""
    report = validate_scene(scene)
    if not report.ok:
        raise ScenarioError("invalid scene: " + "; ".join(str(i) for i in report.issues))
    return scene


def dumps_scene(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2) + "\n"


def loads_scene(text: str) -> Scene:
    # json.loads recurses once per nesting level, and raises ValueError, not
    # JSONDecodeError, on an integer too long to convert
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    return scene_from_dict(doc)


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"not UTF-8 text: {exc}") from exc
    return loads_scene(text)


def dump_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_scene(scene))


# Canonical hand-checkable scenes: one horizontal bar halfway between the
# terminals, with windows chosen so the optimum is respectively unobstructed,
# forced around, forced to wait, and expired on arrival.
_CROSSBAR = ((-5, 5), (5, 5))


def canonical_scene(name: str) -> Scene:
    windows = {"S0": None, "S1": (0, 20), "S2": (0, 6), "S3": (10, 20)}
    if name not in windows:
        raise ScenarioError(f"unknown canonical scene {name!r}")
    w = windows[name]
    edges = () if w is None else (TransientEdge(0, _CROSSBAR[0], _CROSSBAR[1], w[0], w[1]),)
    return Scene(edges=edges, vmax=1, source=(0, 0), dest=(0, 10))
