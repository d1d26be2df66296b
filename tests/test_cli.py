import dataclasses
import json
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from rectipath import cli
from rectipath.fast import _FastEngine, fast_plan
from rectipath.geometry import Scene, TransientEdge, validate_path
from rectipath.oracle import bench_scene, walled_scene
from rectipath.scenario import (
    ScenarioError,
    canonical_scene,
    dump_scene,
    dumps_scene,
    loads_scene,
)
from rectipath.spm import build_spm, load_spm
from rectipath.svg import render_svg

_SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def scene_file(tmp_path):
    def write(name, scene=None):
        f = tmp_path / (name + ".json")
        dump_scene(canonical_scene(name) if scene is None else scene, f)
        return str(f)

    return write


def test_scene_round_trip():
    for name in ("S0", "S1", "S2", "S3"):
        scene = canonical_scene(name)
        assert loads_scene(dumps_scene(scene)) == scene
    frac = Scene(
        edges=(TransientEdge(0, (Fraction(1, 2), 0), (Fraction(1, 2), 4), 1, Fraction(7, 3)),),
        vmax=Fraction(3, 2),
        source=(0, 0),
        dest=(2, 2),
    )
    assert loads_scene(dumps_scene(frac)) == frac


def test_scene_rejects_unknown_and_unversioned():
    doc = json.loads(dumps_scene(canonical_scene("S0")))
    doc["comment"] = "hi"
    with pytest.raises(ScenarioError):
        loads_scene(json.dumps(doc))
    del doc["comment"], doc["version"]
    with pytest.raises(ScenarioError):
        loads_scene(json.dumps(doc))


def test_plan_canonical(scene_file, capsys):
    f = scene_file("S0")
    assert cli.main(["plan", f]) == 0
    assert capsys.readouterr().out == "10\n"
    # and stable across repeated runs
    assert cli.main(["plan", f]) == 0
    assert capsys.readouterr().out == "10\n"


def test_plan_prints_rational_and_decimal(scene_file, capsys):
    e = TransientEdge(0, (-5, 5), (5, 5), 0, 6)
    f = scene_file("frac", Scene(edges=(e,), vmax=2, source=(0, 0), dest=(0, 10)))
    assert cli.main(["plan", f]) == 0
    assert capsys.readouterr().out == "17/2 (8.5)\n"


def test_plan_writes_path_and_svg(scene_file, tmp_path, capsys):
    f = scene_file("S2")
    out = tmp_path / "path.json"
    svg = tmp_path / "pic.svg"
    assert cli.main(["plan", f, "--out", str(out), "--svg", str(svg)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["arrival"] == 11
    assert doc["waypoints"][0] == {"point": [0, 0], "arrive": 0, "depart": 0}
    assert doc["waypoints"][-1]["arrive"] == 11
    ET.fromstring(svg.read_text())  # well-formed


def test_oracle_subcommand(scene_file, capsys):
    f = scene_file("S2")
    assert cli.main(["oracle", f]) == 0
    assert capsys.readouterr().out == "11\n"
    assert cli.main(["oracle", f, "--target", "3,1"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_spm_subcommand(scene_file, tmp_path, capsys):
    f = scene_file("S1")
    assert cli.main(["spm", f, "--query", "0,6"]) == 0
    assert capsys.readouterr().out == "16\n"
    dump = tmp_path / "map.json"
    assert cli.main(["spm", f, "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert load_spm(dump).arrival((0, 6)) == 16


def test_spm_query_outside_box(scene_file, capsys):
    assert cli.main(["spm", scene_file("S0"), "--query", "500,500"]) == 1
    assert "error" in capsys.readouterr().err


def test_fuzz_clean_run(capsys):
    assert cli.main(["fuzz", "--seed", "7", "--count", "25", "--max-edges", "8"]) == 0
    assert capsys.readouterr().out == "ok: 25 scenes, checks naive,fast,oracle\n"


def test_fuzz_includes_spm_check(capsys):
    rc = cli.main(
        ["fuzz", "--seed", "11", "--count", "8", "--max-edges", "6", "--check", "naive,fast,oracle,spm"]
    )
    assert rc == 0
    capsys.readouterr()


def test_fuzz_reports_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_plan", lambda scene, target=None: -1)
    rc = cli.main(["fuzz", "--seed", "7", "--count", "3", "--max-edges", "4"])
    assert rc == 2
    out = capsys.readouterr().out
    assert "mismatch on seed 7" in out and "reproduce" in out


def test_bench_json_layers(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--sizes", "4,8", "--seed", "2", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [s["n"] for s in doc["sizes"]] == [4, 8]
    assert set(doc["machine"]) == {"python", "system", "machine", "cpus"}
    for s, n in zip(doc["sizes"], (4, 8)):
        res = fast_plan(bench_scene(2, n))
        assert s["arrival"] == str(Fraction(res.arrival))
        assert s["counters"]["point_wavelets"] == res.stats.point_wavelets
        parts = ("check_scene", "scaled_scene", "stop_oracle", "vertex_index", "init", "sweep", "path", "plan")
        assert set(s["seconds"]) == set(parts) and all(s["seconds"][k] > 0 for k in parts)
        assert s["seconds"]["plan"] >= s["seconds"]["sweep"]
        # the engine builds its vertex index at the sweep's first use of it
        plan = _FastEngine(bench_scene(2, n))
        plan.run(stop_at_dest=True)
        assert s["vertex_index_built"] is (plan.drm is not None)
        for part in (s, s["map"]):
            for k, median in part["seconds"].items():
                assert part["seconds_q1"][k] <= median <= part["seconds_q3"][k], k
        m = build_spm(bench_scene(2, n))
        assert s["map"]["cells"] == len(m.cells) and s["map"]["queries"] > 0
        # the map's sweep never exits early: its counters are a whole-box run's
        whole = _FastEngine(bench_scene(2, n))
        whole.run(stop_at_dest=False)
        assert s["map"]["counters"] == dataclasses.asdict(whole.stats)
        parts = ("sweep", "harvest", "index", "arrival", "witness", "dump", "load")
        assert set(s["map"]["seconds"]) == set(parts) and all(s["map"]["seconds"][k] > 0 for k in parts)
        assert s["map"]["file_kib"] > 0 and s["map"]["index_mib"] > 0
        # one plan of the walled scene of the same seed and size
        walled = fast_plan(walled_scene(2, n))
        assert s["walled"]["arrival"] == str(Fraction(walled.arrival))
        assert s["walled"]["counters"] == dataclasses.asdict(walled.stats)
        assert set(s["walled"]["seconds"]) == set(s["seconds"])
        for k, median in s["walled"]["seconds"].items():
            assert s["walled"]["seconds_q1"][k] <= median <= s["walled"]["seconds_q3"][k], k


def test_bench_size_without_a_scene_exits_1(tmp_path, capsys):
    # walled_scene(7, 20) finds no free line for its bar
    assert cli.main(["bench", "--sizes", "20", "--seed", "7", "--json", str(tmp_path / "b.json")]) == 1
    assert "no room" in capsys.readouterr().err


def test_render_svg_structure(scene_file, capsys):
    f = scene_file("S2")
    assert cli.main(["render", f]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    res = fast_plan(canonical_scene("S2"))
    polys = root.findall(f".//{_SVG}polyline")
    assert len(polys) == len(res.path.waypoints) - 1
    waits = [c for c in root.findall(f".//{_SVG}circle") if c.get("class") == "wait"]
    assert len(waits) == sum(1 for wp in res.path.waypoints if wp.depart > wp.arrive)
    assert len(root.findall(f".//{_SVG}line")) == 1


def test_render_trace_overlay(scene_file, capsys):
    assert cli.main(["render", scene_file("S2"), "--trace"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    rects = root.findall(f".//{_SVG}rect")
    assert any(r.get("class") == "cone" for r in rects)
    assert any(r.get("class") == "flat" for r in rects)


def test_render_direct_call_matches_scene():
    scene = canonical_scene("S3")
    res = fast_plan(scene)
    assert validate_path(scene, res.path, res.arrival).ok
    doc = render_svg(scene, res.path)
    assert doc.startswith("<?xml") and "</svg>" in doc


def test_usage_errors_exit_64(capsys):
    assert cli.main(["nonsense"]) == 64
    assert cli.main(["plan"]) == 64
    assert cli.main(["fuzz", "--seed", "1", "--count", "2", "--max-edges", "3", "--check", "psychic"]) == 64
    assert cli.main(["oracle", "x.json", "--target", "1;2"]) == 64
    capsys.readouterr()


def test_bad_counts_exit_64(tmp_path, capsys):
    # Sizes, scene counts and edge caps must be non-negative integers; a
    # bench run also needs its output file.  None of these starts any work.
    out = tmp_path / "b.json"
    for argv in (
        ["bench", "--sizes", "4,x", "--json", str(out)],
        ["bench", "--sizes", "-3", "--json", str(out)],
        ["bench", "--sizes", "4,-8", "--json", str(out)],
        ["bench", "--sizes", "4"],
        ["fuzz", "--seed", "1", "--count", "2", "--max-edges", "-1"],
        ["fuzz", "--seed", "1", "--count", "-2", "--max-edges", "3"],
        ["fuzz", "--seed", "1", "--count", "two", "--max-edges", "3"],
    ):
        assert cli.main(argv) == 64, argv
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    for word in ("'x'", "'-3'", "'-8'", "--json", "'-1'", "'-2'", "'two'"):
        assert word in captured.err, word


def test_bad_scenario_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{")
    assert cli.main(["plan", str(f)]) == 1
    assert cli.main(["plan", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
