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
same path reconstruction as naive_plan.  Arrivals are identical to
naive_plan on every scene; only the wavelet counts and the work differ.
"""

from __future__ import annotations

from typing import List, Tuple

from .engine import (
    _DIAG_SIGNS,
    _NEAREST_CORNER,
    _RANK_POINT,
    PlanResult,
    PointWavelet,
    WaveletStats,
    _Engine,
)
from .geometry import Scene, TimedPath, Waypoint
from .rangeindex import CornerWeightedVertices

Rect = Tuple[int, int, int, int]  # (xlo, xhi, ylo, yhi), closed


def _isect(r1: Rect, r2: Rect) -> Rect:
    return (max(r1[0], r2[0]), min(r1[1], r2[1]), max(r1[2], r2[2]), min(r1[3], r2[3]))


def _shared_corner(r: Rect, d: str) -> Tuple[int, int]:
    sx, sy = _DIAG_SIGNS[d]
    return (r[0] if sx > 0 else r[1], r[2] if sy > 0 else r[3])


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
    assert w1.dir == w2.dir
    r = _isect(w1.rect, w2.rect)
    if r[0] > r[1] or r[2] > r[3]:
        return None
    p = _shared_corner(r, w1.dir)
    a1 = w1.t0 + abs(p[0] - w1.origin[0]) + abs(p[1] - w1.origin[1])
    a2 = w2.t0 + abs(p[0] - w2.origin[0]) + abs(p[1] - w2.origin[1])
    win, lose = (w2, w1) if a2 < a1 else (w1, w2)
    return win, replacement_rects(win.rect, lose.rect)


class _FastEngine(_Engine):
    def __init__(self, scene: Scene, trace: bool = False):
        super().__init__(scene, trace)
        self.registry = {}  # (vertex, diagonal) -> first claimant wavelet
        # Settled vertices leave self.drm; this copy keeps them so a sweep
        # that reaches one can be cut against that vertex's own wavelet.
        verts = sorted(self.vert_payload)
        self.drm_all = CornerWeightedVertices(self.bbox, [(p, i) for i, p in enumerate(verts)])

    # -- narrowing ------------------------------------------------------------

    def _spawn_arrangement(self, p, t, src):
        made = super()._spawn_arrangement(p, t, src)
        for w in made:
            self.registry[(p, w.dir)] = w
        return made

    def _nearest_past_root(self, w: PointWavelet):
        """Nearest vertex of w's region, measured from its origin, looking
        past the region's own root vertex when that is what comes first:
        the root sits at the source corner of every region descended from
        its arrangement and would otherwise hide every vertex behind it."""
        corner = _NEAREST_CORNER[w.dir]
        hit = self.drm_all.nearest(w.rect, corner)
        if hit is None or (hit.x, hit.y) != w.origin:
            return hit
        lab = self.labels.get(w.origin)
        if lab is None or lab[1] is not w.src:
            return hit
        ox, oy = w.origin
        xlo, xhi, ylo, yhi = w.rect
        sx, sy = _DIAG_SIGNS[w.dir]
        subs = []
        if xlo < xhi:
            subs.append((xlo + 1, xhi, ylo, yhi) if sx > 0 else (xlo, xhi - 1, ylo, yhi))
        if ylo < yhi:
            subs.append((ox, ox, ylo + 1, yhi) if sy > 0 else (ox, ox, ylo, yhi - 1))
        best = None
        bestd = None
        for rect in subs:
            h = self.drm_all.nearest(rect, corner)
            if h is None:
                continue
            d = abs(h.x - ox) + abs(h.y - oy)
            if bestd is None or (d, h.x, h.y) < bestd:
                best, bestd = h, (d, h.x, h.y)
        return best

    def _do_point(self, w: PointWavelet):
        ox, oy = w.origin
        xlo, xhi, ylo, yhi = w.rect
        if self.trace is not None:
            self.trace.append(("cone", w.origin, w.t0, w.rect, w.dir, w.src))
        dx, dy = self.dest
        if xlo <= dx <= xhi and ylo <= dy <= yhi:
            self._claim(self.dest, w.t0 + abs(dx - ox) + abs(dy - oy), ("p", w))
        if w.fresh:
            if w.caps[1] is not None:
                self._cap_pieces(w, w.caps[1], True)
            if w.caps[0] is not None:
                self._cap_pieces(w, w.caps[0], False)
        # A sweep that reaches a settled vertex duplicates that vertex's own
        # wavelet beyond it: the sweep passes the vertex no earlier than it
        # settled, so past the vertex the resident wavelet dominates.  Keep
        # only the parts it does not cover.  The vertex's own descendants are
        # exempt; they carry its label node as root source.
        hit_any = self._nearest_past_root(w)
        if hit_any is None:
            return
        p = (hit_any.x, hit_any.y)
        lab = self.labels.get(p)
        if lab is None:
            # Nothing settled sits closer, so this is also the nearest
            # live vertex; the live structure need not be asked again.
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
                        assert win is spawn
                        self.stats.narrows += 1
                        for rect in rects:
                            child = PointWavelet(
                                w.origin, w.t0, w.key, rect, w.dir, (None, None), False, w.src
                            )
                            self._push(w.key, _RANK_POINT, w.origin, ("pw", child))
                            self.stats.point_wavelets += 1
                        return
            hit = self.drm.nearest(w.rect, _NEAREST_CORNER[w.dir])
            if hit is None:
                return
        v = (hit.x, hit.y)
        tprime = w.t0 + abs(hit.x - ox) + abs(hit.y - oy)
        self._claim(v, tprime, ("p", w))
        prev = self.registry.get((v, w.dir))
        if prev is not None:
            resolved = narrow(prev, w)
            assert resolved is not None  # both regions contain v
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
                return
            # else the shared region is a boundary sliver: splitting below
            # makes strict progress where requeueing the same rect would not
        else:
            self.registry[(v, w.dir)] = w
        sx, sy = _DIAG_SIGNS[w.dir]
        # Unlike the plain engine, narrowed regions are detached from the
        # origin corner, so the column and row parts must stay clipped to the
        # region being split or they would regrow what a narrow removed.
        r1 = (max(xlo, min(ox, v[0])), min(xhi, max(ox, v[0])), ylo, yhi)
        r2 = (xlo, xhi, max(ylo, min(oy, v[1])), min(yhi, max(oy, v[1])))
        r3 = (
            (v[0], xhi) if sx > 0 else (xlo, v[0]),
            (v[1], yhi) if sy > 0 else (ylo, v[1]),
        )
        for rect, origin, t0 in (
            (r1, w.origin, w.t0),
            (r2, w.origin, w.t0),
            ((r3[0][0], r3[0][1], r3[1][0], r3[1][1]), v, tprime),
        ):
            child = PointWavelet(origin, t0, tprime, rect, w.dir, (None, None), False, w.src)
            self._push(tprime, _RANK_POINT, origin, ("pw", child))
            self.stats.point_wavelets += 1


def fast_plan(scene: Scene) -> PlanResult:
    """Same contract as naive_plan; narrowed propagation."""
    from .pathrec import build_path

    eng = _FastEngine(scene)
    if eng.source == eng.dest:
        wp = Waypoint(scene.source, 0, 0)
        return PlanResult(0, TimedPath((wp,)), eng.stats)
    eng.run(stop_at_dest=True)
    t, _node = eng.labels[eng.dest]
    return PlanResult(eng.sc.time_out(t), build_path(eng), eng.stats)


def wavelet_stats(scene: Scene) -> WaveletStats:
    """Wavelet counts of a fast plan run (deterministic per scene)."""
    eng = _FastEngine(scene)
    if eng.source != eng.dest:
        eng.run(stop_at_dest=True)
    return eng.stats
