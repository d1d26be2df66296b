"""Self-test of the benchmark's answer checkers; run from the checkout root.

    python3 perfbench/selftest.py

Feeds the checkers right answers, a wrong arrival and broken paths, and
shows that only the bad ones are labelled and counted as failed.  Exits 1
if any checker misses a bad answer or flags a good one.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rectipath as rp  # noqa: E402

import checks  # noqa: E402
import scenes  # noqa: E402


def shifted(path, index, dx):
    """The path with one waypoint moved sideways by dx."""
    wps = list(path.waypoints)
    w = wps[index]
    wps[index] = replace(w, point=(w.point[0] + dx, w.point[1]))
    return rp.TimedPath(tuple(wps))


def main():
    results = []

    def expect(label, got, bad):
        ok = (got is not None) == bad
        results.append(ok)
        print("%-4s %-46s -> %s" % ("ok" if ok else "MISS", label, got))
        return got

    # canonical S1: one crossbar between the terminals
    scene = rp.canonical_scene("S1")
    res = rp.fast_plan(scene)
    best = rp.oracle_plan(scene)
    verdicts = [
        expect("plan: right answer", checks.check_plan(rp, scene, res, best), False),
        expect("plan: wrong arrival", checks.check_plan(rp, scene, replace(res, arrival=res.arrival - 1), best), True),
        expect("plan: path with a waypoint moved", checks.check_plan(rp, scene, replace(res, path=shifted(res.path, 1, 1)), best), True),
    ]
    # L1 certification on a bench scene
    bench = rp.bench_scene(1, 30)
    res = rp.fast_plan(bench)
    expect("open plan: right answer", checks.check_open_plan(rp, bench, res), False)
    expect("open plan: arrival below L1", checks.check_open_plan(rp, bench, replace(res, arrival=res.arrival - 1)), True)
    expect("open plan: arrival above L1 (oracle decides)", checks.check_open_plan(rp, bench, replace(res, arrival=res.arrival + 1)), True)
    expect("open plan: path with a waypoint moved", checks.check_open_plan(rp, bench, replace(res, path=shifted(res.path, 1, 1))), True)
    # map answers
    m = rp.build_spm(bench)
    pts = scenes.serve_points(rp, bench, 1, side=2)[:3]
    exp = rp.oracle_arrivals(bench, pts)
    t, path = m.query(pts[0])
    expect("witness: right answer", checks.check_witness(rp, bench, pts[0], (t, path), exp[0]), False)
    expect("witness: wrong arrival", checks.check_witness(rp, bench, pts[0], (t + 1, path), exp[0]), True)
    expect("witness: path to another point", checks.check_witness(rp, bench, pts[1], (exp[1], path), exp[1]), True)
    expect("arrival: right answer", checks.check_arrival(m.arrival(pts[2]), exp[2]), False)
    expect("arrival: wrong answer", checks.check_arrival(m.arrival(pts[2]) + 1, exp[2]), True)
    # the known faults are labelled as such
    ladder = scenes.early_settle_repro(rp)
    try:
        rp.fast_plan(ladder)
        label = None
    except Exception as exc:  # the fault under test
        label = checks.classify_raise(exc)
    expect("fast_plan raising on the early-settle repro", label, True)
    results.append(label == checks.EARLY_SETTLE)
    res = rp.naive_plan(ladder)
    label = checks.check_plan(rp, ladder, res, rp.oracle_plan(ladder))
    expect("naive path on the early-settle repro", label, True)
    results.append(label == checks.SLIDE_WAIT)

    # counting: two bad answers out of three, over five rounds
    faults, failed, unexpected = checks.tally(verdicts, 5)
    print("tally of the three plan answers over 5 rounds: failed=%d faults=%s" % (failed, faults))
    results.append(failed == 10 and unexpected == sorted(faults))
    _, _, unexpected = checks.tally([checks.SLIDE_WAIT, None], 3, checks.KNOWN_FAULTS)
    results.append(unexpected == [])

    if all(results):
        print("selftest: all %d checks passed" % len(results))
        return 0
    print("selftest: %d of %d checks FAILED" % (results.count(False), len(results)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
