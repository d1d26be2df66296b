"""Command-line surface: planning, oracle checks, maps, fuzzing, rendering.

Exit codes: 0 success, 1 invalid input (bad scenario file, unreadable path,
query outside the map), 2 invariant violation (a fuzz cross-check found a
mismatch), 64 usage errors.

Arrival times are printed as exact rationals; non-integers get a decimal
rendering appended so humans do not have to divide.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from typing import List, Optional

from .engine import DIAGS, naive_plan, run_plan
from .fast import _FastEngine, fast_plan
from .geometry import ScaledScene, Scene, validate_path
from .oracle import ParamsInfeasible, bench_scene, oracle_plan, random_scene, walled_scene
from .pathrec import build_path
from .rangeindex import CornerWeightedVertices
from .scenario import ScenarioError, _enc_num, check_scene, load_scene
from .spm import (
    OutsideBoundingBox,
    ShortestPathMap,
    _harvest,
    _spm_from_dict,
    _spm_to_dict,
    build_spm,
    dump_spm,
    load_spm,
)
from .stopindex import StopOracle
from .svg import render_svg


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage("%s: %s" % (self.prog, message))


def _fmt_time(v) -> str:
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return "%s (%s)" % (f, format(float(f), ".15g"))


def _num(text: str):
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Usage("not a number: %r" % text)
    return int(f) if f.denominator == 1 else f


def _count(text: str) -> int:
    """A non-negative integer option value; anything else is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError("not a non-negative integer: %r" % text)
    return n


def _counts(text: str) -> List[int]:
    return [_count(part) for part in text.split(",")]


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise _Usage("expected x,y, got %r" % text)
    return (_num(parts[0]), _num(parts[1]))


def _path_doc(arrival, path) -> dict:
    return {
        "version": 1,
        "arrival": _enc_num(Fraction(arrival)),
        "waypoints": [
            {
                "point": [_enc_num(Fraction(wp.point[0])), _enc_num(Fraction(wp.point[1]))],
                "arrive": _enc_num(Fraction(wp.arrive)),
                "depart": _enc_num(Fraction(wp.depart)),
            }
            for wp in path.waypoints
        ],
    }


def _cmd_plan(args) -> int:
    scene = load_scene(args.scene)
    res = fast_plan(scene)
    print(_fmt_time(res.arrival))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_path_doc(res.arrival, res.path), fh, indent=2)
            fh.write("\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(scene, res.path))
    return 0


def _cmd_oracle(args) -> int:
    target = _parse_point(args.target) if args.target else None
    scene = load_scene(args.scene)
    print(_fmt_time(oracle_plan(scene, target=target)))
    return 0


def _cmd_spm(args) -> int:
    query = _parse_point(args.query) if args.query else None
    scene = load_scene(args.scene)
    m = build_spm(scene)
    if query is not None:
        t, _path = m.query(query)
        print(_fmt_time(t))
    else:
        dump_spm(m, args.dump)
        print("%d cells -> %s" % (len(m.cells), args.dump))
    return 0


_CHECKS = ("naive", "fast", "oracle", "spm")


def _cmd_fuzz(args) -> int:
    checks = args.check.split(",")
    for c in checks:
        if c not in _CHECKS:
            raise _Usage("unknown check %r (pick from %s)" % (c, ",".join(_CHECKS)))
    for k in range(args.count):
        seed = args.seed + k
        scene = random_scene(seed, seed % (args.max_edges + 1))
        vals = {}
        for c in checks:
            if c == "oracle":
                vals[c] = oracle_plan(scene)
                continue
            if c == "spm":
                # a reloaded map answers from the times its loader derived
                doc = json.loads(json.dumps(_spm_to_dict(build_spm(scene))))
                vals[c], path = _spm_from_dict(doc).query(scene.dest)
            else:
                res = (naive_plan if c == "naive" else fast_plan)(scene)
                vals[c], path = res.arrival, res.path
            report = validate_path(scene, path, vals[c])
            if not report.ok:
                print("invalid %s path on seed %d: %s" % (c, seed, report.issues[0]))
                return 2
        if len(set(vals.values())) > 1:
            detail = ", ".join("%s=%s" % (c, _fmt_time(vals[c])) for c in checks)
            print("mismatch on seed %d: %s" % (seed, detail))
            print(
                "reproduce: rectipath fuzz --seed %d --count 1 --max-edges %d --check %s"
                % (seed, args.max_edges, args.check)
            )
            return 2
    print("ok: %d scenes, checks %s" % (args.count, ",".join(checks)))
    return 0


def _fast_plan_phases(scene):
    """Wall seconds of each layer of one fast_plan run, and its engine.

    The scene check and the builds of the three indexes the engine uses run
    once more on their own, so that each is timed alone.  The engine builds
    the vertex index inside its sweep, and only when the sweep uses it
    (``vertex_index_built`` in the bench output)."""
    clock = time.perf_counter
    t0 = clock()
    check_scene(scene)
    t1 = clock()
    sc = ScaledScene(scene)
    t2 = clock()
    StopOracle(sc.edges)
    t3 = clock()
    CornerWeightedVertices(sc.verts)
    t4 = clock()
    eng = _FastEngine(scene)
    t5 = clock()
    eng.run(stop_at_dest=True)
    t6 = clock()
    build_path(eng)
    t7 = clock()
    return {
        "check_scene": t1 - t0,
        "scaled_scene": t2 - t1,
        "stop_oracle": t3 - t2,
        "vertex_index": t4 - t3,
        "init": t5 - t4,
        "sweep": t6 - t5,
        "path": t7 - t6,
        "plan": t7 - t4,
    }, eng


def _map_phases(scene, points, file):
    """Wall seconds of each layer of one build_spm run, per query of an
    arrival and a witness pass over points, and of a dump to file and a
    load back; and the map with its sweep's counters."""
    clock = time.perf_counter
    t = [clock()]
    eng = _FastEngine(scene, trace=True)
    eng.run(stop_at_dest=False)
    t.append(clock())
    cells = _harvest(eng.trace)
    t.append(clock())
    m = ShortestPathMap(eng.sc, cells, eng.stop)
    t.append(clock())
    for ask in (m.arrival, m.query):
        for q in points:
            ask(q)
        t.append(clock())
    dump_spm(m, file)
    t.append(clock())
    load_spm(file)
    t.append(clock())
    names = ("sweep", "harvest", "index", "arrival", "witness", "dump", "load")
    seconds = {k: b - a for k, a, b in zip(names, t, t[1:])}
    seconds["arrival"] /= len(points)
    seconds["witness"] /= len(points)
    return seconds, (m, eng.stats)


def _medians(runs, phases, *args):
    """Median seconds per layer of runs calls of phases(*args), collector
    off, with each layer's first and third quartile over the runs beside it
    ("seconds", "seconds_q1", "seconds_q3"), and what the last call built."""
    samples = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(runs):
            seconds, built = phases(*args)
            samples.append(seconds)
    finally:
        gc.enable()
    spread = {"seconds": {}, "seconds_q1": {}, "seconds_q3": {}}
    for k in seconds:
        values = [s[k] for s in samples]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread["seconds"][k] = statistics.median(values)
        spread["seconds_q1"][k], spread["seconds_q3"][k] = q1, q3
    return spread, built


def _cmd_bench(args) -> int:
    runs = 5
    seed = args.seed
    out = {
        "version": 2,
        "what": (
            "fast_plan and build_spm on bench_scene(seed, n), and fast_plan on walled_scene(seed, n): "
            "median wall seconds per layer of %d runs, "
            "collector off, with the first and third quartiles of the runs (seconds_q1, seconds_q3); "
            "map arrival and witness seconds are per query over a seeded lattice" % runs
        ),
        "seed": seed,
        "machine": {
            "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
            "system": "%s %s" % (platform.system(), platform.release()),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "sizes": [],
    }
    for n in args.sizes:
        scene = bench_scene(seed, n)
        spread, eng = _medians(runs, _fast_plan_phases, scene)
        walled, walled_eng = _medians(runs, _fast_plan_phases, walled_scene(seed, n))
        # a seeded 20 x 20 lattice of integer points of the scaled box
        rng, (xlo, xhi, ylo, yhi) = random.Random(seed), eng.sc.bbox
        xs, ys = (sorted(rng.randint(lo, hi) for _ in range(20)) for lo, hi in ((xlo, xhi), (ylo, yhi)))
        points = [eng.sc.point_out((x, y)) for x in xs for y in ys]
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "map.json")
            map_spread, (m, map_stats) = _medians(runs, _map_phases, scene, points, file)
            file_kib = os.path.getsize(file) / 1024
        tracemalloc.start()
        index = ShortestPathMap(m.sc, m.cells, m.stop)
        index_mib = tracemalloc.get_traced_memory()[0] / 2**20
        tracemalloc.stop()
        del index
        out["sizes"].append(
            {
                "n": n,
                "vertices": len(eng.sc.verts),
                "arrival": str(eng.sc.time_out(eng.labels[eng.dest].time)),
                # whether the plan paid for the vertex index, which the
                # engine builds at its first use (engine._Engine._vertex_index)
                "vertex_index_built": eng.drm is not None,
                **spread,
                "counters": dataclasses.asdict(eng.stats),
                # a plan that must wait, so that its sweep shows: every
                # bench_scene plan ends at its L1 bound
                "walled": {
                    "arrival": str(walled_eng.sc.time_out(walled_eng.labels[walled_eng.dest].time)),
                    **walled,
                    "counters": dataclasses.asdict(walled_eng.stats),
                },
                "map": {
                    "cells": len(m.cells),
                    "queries": len(points),
                    **map_spread,
                    "counters": dataclasses.asdict(map_stats),
                    "file_kib": file_kib,
                    "index_mib": index_mib,
                },
            }
        )
        print(
            "n=%d plan %.3f s, walled plan %.3f s, map sweep %.3f s"
            % (n, spread["seconds"]["plan"], walled["seconds"]["plan"], map_spread["seconds"]["sweep"])
        )
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def _cmd_render(args) -> int:
    scene = load_scene(args.scene)
    eng = _FastEngine(scene, trace=args.trace)
    res = run_plan(eng)
    trace = None
    if args.trace:
        k = eng.sc.coord_scale
        trace = [
            ("cone" if d in DIAGS else "flat", tuple(Fraction(v, k) for v in rect))
            for rect, d, _node in eng.trace
        ]
    sys.stdout.write(render_svg(scene, res.path, trace))
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="rectipath", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("plan", help="minimum arrival time and a witness path")
    sp.add_argument("scene")
    sp.add_argument("--out", help="write the timestamped path as JSON")
    sp.add_argument("--svg", help="write a picture of the scene and path")
    sp.set_defaults(func=_cmd_plan)

    sp = sub.add_parser("oracle", help="grid-oracle arrival time")
    sp.add_argument("scene")
    sp.add_argument("--target", help="query point x,y (default: the destination)")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("spm", help="build the all-destinations map")
    sp.add_argument("scene")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--query", help="answer one query point x,y")
    g.add_argument("--dump", help="serialize the map to a file")
    sp.set_defaults(func=_cmd_spm)

    sp = sub.add_parser("fuzz", help="cross-check planners on random scenes")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=_count, required=True)
    sp.add_argument("--max-edges", type=_count, required=True)
    sp.add_argument("--check", default="naive,fast,oracle")
    sp.set_defaults(func=_cmd_fuzz)

    sp = sub.add_parser("bench", help="per-layer wall times of fast_plan and build_spm")
    sp.add_argument("--sizes", type=_counts, required=True, help="comma-separated edge counts")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--json", required=True, help="write the median seconds per layer and their quartiles here")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("render", help="SVG of scene and path on stdout")
    sp.add_argument("scene")
    sp.add_argument("--trace", action="store_true", help="overlay swept wavefront regions")
    sp.set_defaults(func=_cmd_render)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 64
    except (ScenarioError, OutsideBoundingBox, ParamsInfeasible, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
