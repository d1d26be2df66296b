"""Inputs of the three workloads.

``plan_open`` and ``spm_serve`` use the library's ``bench_scene`` (terminals
pinned near opposite corners of a random scene): plan_open two fixed scenes
of n=800, spm_serve one fixed scene of n=200 with query points drawn from
the run's seed.  ``plan_gated`` uses the
ladder generator below, written for this benchmark: a stack of wide
horizontal bars between the terminals whose disappearance times are
staggered so that the fastest route waits at several of them, amid short
random clutter edges.  Its corpus is fixed too (corpus seeds 0..23 plus
the two smallest reproductions of known planner faults).  README.md says
why only the query points depend on ``--seed``.
"""

from __future__ import annotations

import random

GATED_CORPUS_SEEDS = range(24)
OPEN_N = 800
SERVE_N = 200
OPEN_SCENE_SEEDS = (1, 2)
SERVE_SCENE_SEED = 1
SERVE_GRID = 28  # query lattice side: up to 784 points


def _disjoint(edges, cand):
    """General position: no shared supporting line and no contact."""
    (ax, ay), (bx, by) = cand.p1, cand.p2
    c_h = ay == by
    for e in edges:
        (px, py), (qx, qy) = e.p1, e.p2
        e_h = py == qy
        if e_h == c_h:
            if (e_h and py == ay) or (not e_h and px == ax):
                return False
            continue
        h, v = ((px, qx, py), (ax, ay, by)) if e_h else ((ax, bx, ay), (px, py, qy))
        hx0, hx1 = min(h[0], h[1]), max(h[0], h[1])
        vy0, vy1 = min(v[1], v[2]), max(v[1], v[2])
        if hx0 <= v[0] <= hx1 and vy0 <= h[2] <= vy1:
            return False
    return True


def _on_edge(edges, p):
    for e in edges:
        (px, py), (qx, qy) = e.p1, e.p2
        if min(px, qx) <= p[0] <= max(px, qx) and min(py, qy) <= p[1] <= max(py, qy):
            return True
    return False


def ladder_scene(rp, seed):
    """A ladder of 4-12 bars of half-width 16-24 with staggered windows,
    terminals below and above it, and 20-55 clutter edges around it."""
    rng = random.Random(seed)
    k = rng.randint(4, 12)
    half = 20
    edges = []
    y = t = 0
    for _ in range(k):
        gap = rng.randint(2, 4)
        y += gap
        left, right = rng.randint(half - 4, half + 4), rng.randint(half - 4, half + 4)
        # arrival straight from the previous bar's disappearance, then a wait
        td = t + gap + rng.randint(1, 5)
        edges.append(rp.TransientEdge(len(edges), (-left, y), (right, y), rng.randint(0, 1), td))
        t = td
    top = y
    src = (rng.randint(-3, 3), -rng.randint(1, 3))
    dst = (rng.randint(-3, 3), top + rng.randint(1, 3))
    want = k + rng.randint(20, 55)
    tmax = t + 40
    tries = 0
    while len(edges) < want and tries < 20000:
        tries += 1
        length = rng.randint(1, 12)
        x0, y0 = rng.randint(-2 * half, 2 * half), rng.randint(-20, top + 20)
        if rng.random() < 0.5:
            p1, p2 = (x0, y0), (x0 + length, y0)
        else:
            p1, p2 = (x0, y0), (x0, y0 + length)
        ta = rng.randint(0, tmax)
        cand = rp.TransientEdge(len(edges), p1, p2, ta, ta + rng.randint(1, tmax))
        if _disjoint(edges, cand) and not _on_edge([cand], src) and not _on_edge([cand], dst):
            edges.append(cand)
    return rp.Scene(edges=tuple(edges), vmax=1, source=src, dest=dst)


def _bars(rp, spec, src, dst):
    edges = tuple(rp.TransientEdge(i, p1, p2, a, d) for i, (p1, p2, a, d) in enumerate(spec))
    return rp.Scene(edges=edges, vmax=1, source=src, dest=dst)


def fallback_repro(rp):
    """Three bars the robot waits at in turn.  The fast engine's witness
    trips pathrec's staircase assertion and fast_plan reruns the naive
    engine; the answer (17) and its path are correct."""
    spec = [((-10, 2 * i + 1), (10, 2 * i + 1), 0, 5 * (i + 1)) for i in range(3)]
    return _bars(rp, spec, (0, 0), (0, 7))


def early_settle_repro(rp):
    """Six bars on which the fast engine settles the destination at 45
    while the optimum is 48; fast_plan's fallback check raises."""
    spec = [
        ((-28, 3), (27, 3), 1, 6),
        ((-24, 5), (24, 5), 1, 15),
        ((-24, 7), (24, 7), 2, 20),
        ((-26, 9), (24, 9), 2, 30),
        ((-27, 13), (25, 13), 1, 37),
        ((-24, 15), (27, 15), 1, 46),
    ]
    return _bars(rp, spec, (0, 0), (2, 17))


def gated_corpus(rp):
    """(label, scene) pairs planned by one round of plan_gated."""
    out = [("ladder-%d" % s, ladder_scene(rp, s)) for s in GATED_CORPUS_SEEDS]
    out.append(("repro-fallback", fallback_repro(rp)))
    out.append(("repro-early-settle", early_settle_repro(rp)))
    return out


def serve_points(rp, scene, seed, side=SERVE_GRID):
    """Query points on a side x side lattice over the scene's bounding box:
    one uniform integer x in each of side vertical strips, one uniform y in
    each of side horizontal strips, and every (x, y) pair that lies off every
    edge and off the source.  A lattice adds only 2 * side lines to the
    oracle's grid, so checking every point stays cheap."""
    rng = random.Random(seed * 7919 + 17)
    xlo, xhi, ylo, yhi = scene.bbox

    def strips(lo, hi):
        return [rng.randint(lo + (hi - lo) * i // side, lo + (hi - lo) * (i + 1) // side - 1) for i in range(side)]

    xs, ys = strips(xlo, xhi), strips(ylo, yhi)
    return [
        (x, y) for x in xs for y in ys if (x, y) != scene.source and not _on_edge(scene.edges, (x, y))
    ]
