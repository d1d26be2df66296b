"""Waits and admitted edge cases: plans and map witnesses against the oracle.

Seeded ladders make the robot wait at several bars in turn; degenerate
placements put a terminal on an edge endpoint or on an edge's line outside
its span, under vmax 1, 2 and 1/2.  Every plan must match naive_plan and the
oracle, every map arrival on a small lattice the oracle, and no witness may
fail to replay.  Ladder witnesses may still fail validate_path with
NonMonotoneSubpath (wait points at fan endpoints, ROADMAP item 1); those are
counted, printed and held to no plan and at most 1 map witness, and no
other code is allowed anywhere.  A seeded fuzz over random scenes on
fractional scales holds plans and map witnesses to the same answers and
accepts no invalid witness at all.
"""

import random
from dataclasses import replace
from fractions import Fraction

from test_fast_planner import _bars

from rectipath.engine import naive_plan
from rectipath.fast import fast_plan
from rectipath.geometry import Scene, TransientEdge, validate_path, validate_scene
from rectipath.oracle import oracle_arrivals, oracle_plan, random_scene
from rectipath.spm import build_spm

SPEEDS = (1, 2, Fraction(1, 2))


def wait_ladder(seed):
    """3-7 staggered bars between the terminals, so the fastest route waits
    at several of them, plus a few short walls between the bars; turned on
    its side or upside down by the seed."""
    rng = random.Random(seed)
    spec = []
    walls = rng.sample([x for x in range(-4, 5) if x], 8)  # one line each
    y = t = 0
    for _ in range(rng.randint(3, 7)):
        gap = rng.randint(1, 4)
        y += gap
        td = t + gap + rng.randint(1, 5)
        spec.append(((-rng.randint(10, 16), y), (rng.randint(10, 16), y), rng.randint(0, 1), td))
        t = td
        if gap >= 3 and rng.random() < 0.6:
            x = walls.pop()
            wa = rng.randint(0, t)
            spec.append(((x, y - gap + 1), (x, y - 1), wa, wa + rng.randint(1, 12)))
    src = (rng.randint(-3, 3), 0)
    dst = (rng.randint(-4, 4), y + rng.randint(1, 3))
    flip = rng.random() < 0.5
    turn = rng.random() < 0.5

    def move(p):
        x, y = p[0], -p[1] if flip else p[1]
        return (y, x) if turn else (x, y)

    scene = _bars([(move(a), move(b), ta, td) for a, b, ta, td in spec], move(src), move(dst))
    assert validate_scene(scene).ok
    return scene


def _on_line_outside(scene, rng):
    """A point on some edge's supporting line, outside its span and off
    every edge, or None."""
    for e in rng.sample(scene.edges, len(scene.edges)):
        lo, hi = e.span
        c = lo - rng.randint(1, 5) if rng.random() < 0.5 else hi + rng.randint(1, 5)
        p = (c, e.line_coord) if e.horizontal else (e.line_coord, c)
        if not any(f.contains_point(p) for f in scene.edges):
            return p
    return None


def degenerate(scene, seed):
    """scene with one terminal moved onto an edge endpoint or onto an
    edge's line outside its span (left in place when no such point is
    free), and its speed drawn from SPEEDS."""
    rng = random.Random(seed)
    which = rng.choice(("source", "dest"))
    other = scene.dest if which == "source" else scene.source
    if rng.random() < 0.5:
        p = rng.choice([q for e in scene.edges for q in e.endpoints if q != other])
    else:
        p = _on_line_outside(scene, rng)
    if p is None or p == other:
        p = getattr(scene, which)
    out = replace(scene, vmax=SPEEDS[seed % 3], **{which: p})
    assert validate_scene(out).ok
    return out


def _scenes():
    """(label, scene, NonMonotoneSubpath allowed)"""
    for seed in range(24):
        ladder = wait_ladder(seed)
        yield "ladder-%d" % seed, ladder, True
        yield "ladder-%d-degenerate" % seed, degenerate(ladder, seed), True
    for seed in range(1, 31):
        yield "random-%d-degenerate" % seed, degenerate(random_scene(seed, 3 + seed % 10), seed), False


def _lattice(scene, side=5):
    xlo, xhi, ylo, yhi = scene.bbox
    xs = sorted({xlo + (xhi - xlo) * i // (side - 1) for i in range(side)})
    ys = sorted({ylo + (yhi - ylo) * i // (side - 1) for i in range(side)})
    return [(x, y) for x in xs for y in ys if not any(e.contains_point((x, y)) for e in scene.edges)]


def _codes(scene, target, path, t):
    rep = validate_path(Scene(scene.edges, scene.vmax, scene.source, target), path, t)
    return rep.codes()


def test_waits_and_degenerate_placements_match_the_oracle():
    non_monotone = {"plan": 0, "map": 0}
    for label, scene, ladder in _scenes():
        allowed = {"NonMonotoneSubpath"} if ladder else set()
        want = oracle_plan(scene)
        res = fast_plan(scene)
        assert res.arrival == naive_plan(scene).arrival == want, label
        codes = _codes(scene, scene.dest, res.path, res.arrival)
        assert codes <= allowed, (label, codes)
        non_monotone["plan"] += bool(codes)
        m = build_spm(scene)
        points = _lattice(scene)
        for p, w in zip(points, oracle_arrivals(scene, points)):
            t, path = m.query(p)
            assert t == m.arrival(p) == w, (label, p)
            codes = _codes(scene, p, path, t)
            assert codes <= allowed, (label, p, codes)
            non_monotone["map"] += bool(codes)
    print("NonMonotoneSubpath witnesses on ladders:", non_monotone)
    assert non_monotone["plan"] == 0 and non_monotone["map"] <= 1, non_monotone


def _fractional(seed):
    """random_scene(seed, 4 + seed % 9) with its coordinates divided by 2 or
    3, its times by 2 or 3 and vmax 1, 1/2 or 2; in about a third of the
    scenes a terminal moves onto an edge endpoint."""
    rng = random.Random(seed)
    base = random_scene(seed, 4 + seed % 9)
    c, t = Fraction(1, rng.choice((2, 3))), Fraction(1, rng.choice((2, 3)))
    pt = lambda p: (p[0] * c, p[1] * c)  # noqa: E731
    edges = tuple(TransientEdge(e.id, pt(e.p1), pt(e.p2), e.appear * t, e.disappear * t) for e in base.edges)
    ends = {"source": pt(base.source), "dest": pt(base.dest)}
    if rng.random() < 1 / 3:
        which, other = rng.choice((("source", "dest"), ("dest", "source")))
        ends[which] = rng.choice([q for e in edges for q in e.endpoints if q != ends[other]])
    scene = Scene(edges, SPEEDS[rng.randrange(3)], **ends)
    assert validate_scene(scene).ok
    return scene


def test_fractional_scales_match_across_engines_and_the_map():
    for seed in range(1, 121):
        scene = _fractional(seed)
        res = fast_plan(scene)
        assert res.arrival == naive_plan(scene).arrival, seed
        assert res.arrival <= oracle_plan(scene), seed
        assert validate_path(scene, res.path, res.arrival).ok, seed
        m = build_spm(scene)
        for p in [scene.dest] + _lattice(scene):
            t, path = m.query(p)
            if p == scene.dest:
                assert t == res.arrival, seed
            assert not _codes(scene, p, path, t), (seed, p)
