"""Narrowing planner: the wavefront sweep with near-linear growth.

The sweep is the plain engine's continuous Dijkstra, point wavelets and flat
fronts alike, plus one device that tames its quadratic point-wavelet count
without changing any arrival time.

Narrowing.  Diagonal point wavelets sweeping the same direction overlap; once
two of them find the same vertex, the one arriving later at the overlap's
near corner is redundant there, so its region is cut down to the part the
dominant one does not cover (at most four rectangles).  A registry of
(vertex, direction) -> first claimant detects the pairs.

Narrowed pieces keep their wavelet's root source and flat fronts keep the
plain engine's provenance chains, so plans and maps are witnessed by the
same path reconstruction as naive_plan.  Destination arrivals equal
naive_plan's, and so do the map's answers; only the wavelet counts and the
work differ.  The whole-box labels of the map's sweep are not all equal:
on two ladder scenes of the benchmark's generator a few vertices settle
later than under the plain engine, while the map still answers them
right (tests/test_spm.py).

Dead regions.  A point wavelet whose region holds no live vertex ends at
once, before any narrowing.  The live vertex set only shrinks, and every
piece that narrowing or splitting would push is a sub-rectangle of the
region with the same origin, departure time and root source.  So that
whole subtree could claim no vertex; its destination claims would repeat
the one the region already made, at the same value; and its map records
would lie inside the region's arrangement record with the same node, which
the map keeps instead.

One index pass.  The vertex lookup answers both questions a wavelet asks,
the nearest vertex of any kind past its own root and the nearest live one,
in one pass: the root vertex is left out of the first answer only.  A region
with no live vertex ends that pass as soon as its live mask is empty, before
either answer is picked; that is 38,006 of the 75,899 point wavelets of a
plan on bench_scene(1, 800).
"""

from __future__ import annotations

from typing import List, Tuple

from .engine import (
    _DIAG_SIGNS,
    _NEAREST_CORNER,
    _RANK_POINT,
    PlanResult,
    PointWavelet,
    _Engine,
    run_plan,
)
from .geometry import Scene

Rect = Tuple[int, int, int, int]  # (xlo, xhi, ylo, yhi), closed


def replacement_rects(r1: Rect, r2: Rect) -> List[Rect]:
    """Cover r2 minus r1's interior with at most four rectangles whose
    interiors are pairwise disjoint (side strips first, then the clipped
    band above and below)."""
    axlo, axhi, aylo, ayhi = r1
    bxlo, bxhi, bylo, byhi = r2
    out = []
    if bxlo < axlo:
        out.append((bxlo, min(bxhi, axlo), bylo, byhi))
    if bxhi > axhi:
        out.append((max(bxlo, axhi), bxhi, bylo, byhi))
    mxlo, mxhi = max(bxlo, axlo), min(bxhi, axhi)
    if mxlo <= mxhi:
        if bylo < aylo:
            out.append((mxlo, mxhi, bylo, min(byhi, aylo)))
        if byhi > ayhi:
            out.append((mxlo, mxhi, max(bylo, ayhi), byhi))
    return out


def narrow(w1: PointWavelet, w2: PointWavelet):
    """Resolve an overlap between same-direction point wavelets.

    Returns None when the regions are disjoint.  Otherwise returns the
    dominant wavelet (earlier at the overlap's near corner; ties keep w1,
    which entered the queue first) and the rectangles that remain of the
    other's region.
    """
    if w1.dir != w2.dir:
        raise ValueError(f"cannot narrow a {w1.dir} wavelet against a {w2.dir} one")
    r1, r2 = w1.rect, w2.rect
    xlo, xhi = max(r1[0], r2[0]), min(r1[1], r2[1])
    ylo, yhi = max(r1[2], r2[2]), min(r1[3], r2[3])
    if xlo > xhi or ylo > yhi:
        return None
    sx, sy = _DIAG_SIGNS[w1.dir]
    px, py = (xlo if sx > 0 else xhi), (ylo if sy > 0 else yhi)
    a1 = w1.t0 + abs(px - w1.origin[0]) + abs(py - w1.origin[1])
    a2 = w2.t0 + abs(px - w2.origin[0]) + abs(py - w2.origin[1])
    win, lose = (w2, w1) if a2 < a1 else (w1, w2)
    return win, replacement_rects(win.rect, lose.rect)


class _FastEngine(_Engine):
    def __init__(self, scene: Scene, trace: bool = False):
        super().__init__(scene, trace)
        self.registry = {}  # (vertex, diagonal) -> first claimant wavelet

    # -- narrowing ------------------------------------------------------------

    def _spawn_arrangement(self, p, t, src):
        made = super()._spawn_arrangement(p, t, src)
        for w in made:
            self.registry[(p, w.dir)] = w
        return made

    def _split_vertex(self, w: PointWavelet):
        # One index pass gives the nearest vertex of w's region, settled or
        # not, and the nearest live one.  The first leaves out the region's
        # own root vertex: the root sits at the source corner of every region
        # descended from its arrangement and would otherwise hide every
        # vertex behind it.  Settled vertices count because a sweep that
        # reaches one duplicates that vertex's own wavelet beyond it: the
        # sweep passes the vertex no earlier than it settled, so past the
        # vertex the resident wavelet dominates.  Keep only the parts it does
        # not cover.  The vertex's own descendants are exempt; they carry its
        # label node as root source.
        skip = None
        lab = self.labels.get(w.origin)
        if lab is not None and lab[1] is w.src:
            payload = self.vert_payload.get(w.origin)
            if payload is not None:
                skip = (w.origin[0], w.origin[1], payload)
        hit_any, hit = self.drm.nearest(w.rect, _NEAREST_CORNER[w.dir], settled=True, skip=skip)
        if hit is None:
            # No live vertex: this region and all it would narrow or split
            # into can claim nothing (see the module docstring).  Otherwise
            # hit_any is set too: the root vertex it leaves out is settled.
            return None
        p = (hit_any.x, hit_any.y)
        lab = self.labels.get(p)
        if lab is None:
            # Nothing settled sits closer, so this is also the nearest
            # live vertex.
            hit = hit_any
        else:
            if w.src is not lab[1]:
                spawn = self.registry.get((p, w.dir))
                if spawn is not None and spawn is not w and spawn.src is lab[1]:
                    res = narrow(spawn, w)
                    # A boundary-only overlap clips nothing; proceed normally
                    # then, or this wavelet would requeue itself forever.
                    if res is not None and w.rect not in res[1]:
                        win, rects = res
                        if win is not spawn:
                            raise AssertionError(f"wavelet beat the resident wavelet of settled {p}")
                        self.stats.narrows += 1
                        for rect in rects:
                            child = PointWavelet(
                                w.origin, w.t0, w.key, rect, w.dir, (None, None), False, w.src
                            )
                            self._push(w.key, _RANK_POINT, w.origin, ("pw", child))
                            self.stats.point_wavelets += 1
                        return None
        v = (hit.x, hit.y)
        tprime = w.t0 + abs(hit.x - w.origin[0]) + abs(hit.y - w.origin[1])
        self._claim(v, tprime, w.src)
        prev = self.registry.get((v, w.dir))
        if prev is not None:
            resolved = narrow(prev, w)
            if resolved is None:  # both regions contain v
                raise AssertionError(f"registered wavelet of {v} misses it")
            win, rects = resolved
            if win is w:
                self.stats.narrows += 1
                self.registry[(v, w.dir)] = w
            elif w.rect not in rects:
                self.stats.narrows += 1
                for rect in rects:
                    child = PointWavelet(w.origin, w.t0, tprime, rect, w.dir, (None, None), False, w.src)
                    self._push(tprime, _RANK_POINT, w.origin, ("pw", child))
                    self.stats.point_wavelets += 1
                return None
            # else the shared region is a boundary sliver: splitting at v
            # makes strict progress where requeueing the same rect would not
        else:
            self.registry[(v, w.dir)] = w
        return v


def fast_plan(scene: Scene) -> PlanResult:
    """Same contract as naive_plan; narrowed propagation."""
    return run_plan(_FastEngine(scene))
