"""Narrowing planner: the wavefront sweep, cut in one order of roots.

The sweep is the plain engine's continuous Dijkstra, point wavelets and flat
fronts alike, plus one device that tames its quadratic point-wavelet count
without changing any label: same-direction point wavelets that overlap are
cut against each other, in one fixed order.

Root order.  Every point wavelet is a rectangle of a root, the arrangement
wavelet spawned at a settled vertex or a wait point, and only the root
holds the front's value function: with (sx, sy) the signs of the diagonal,
the arrival at any (x, y) of the rectangle is c + sx * x + sy * y, where
c = t0 - sx * ox - sy * oy of the root.  So over the whole overlap of two
same-direction regions the wavelet with the smaller c is the earlier, by
the same margin everywhere, and one comparison decides it.  Roots are
ranked by (c, spawn order), a total order (PointWavelet.rank).

Cuts.  A registry maps (vertex, direction) to the claimant of the vertex
whose root ranks lowest so far, the roots spawned at the vertex included.
Both cuts follow the root order; a cut keeps what lies of the cut region
outside the cutter's interior, at most four rectangles:
- a wavelet whose nearest vertex (its own root vertex left out) is settled
  is cut by the registered root's whole region there, if that root ranks
  strictly below its own;
- a wavelet that claims a live vertex registered by a rival of another
  root is cut by the rival root's whole region if that root ranks below
  its own, and otherwise takes the rival's place in the registry; a rival
  of the same root cuts it by the rival's own region, which carries the
  same value function.
A cut that would clip nothing (the regions share at most boundary) is
skipped, and the wavelet splits as usual.

Lowest roots are never cut.  A point q leaves a wavelet's region only
through a root that ranks strictly lower and contains q, or through a piece
of the wavelet's own root that contains q.  So, per direction, the lowest
ranked root whose region contains q is never cut at q: its lineage covers q
until q settles, and it offers q the least arrival of that direction's
roots.  The plain engine settles q at the least arrival of the same roots
and flat fronts, so by induction on the settle order both engines spawn the
same roots at the same times and settle every point at the same label, over
the whole box as at the destination (tests/test_exact_labels.py).  Only the
provenance of equal-time ties may differ.  Pieces keep their root source and
flat fronts keep the plain engine's provenance chains, so plans and maps are
witnessed by the same path reconstruction as naive_plan.

Dead regions.  A point wavelet whose region holds no live vertex ends at
once, before any cut.  The live vertex set only shrinks, and every piece
that cutting or splitting would push is a sub-rectangle of the region with
the same root, so the same value function and root source.  So that whole
subtree could claim no vertex; its destination claims would repeat the one
the region already made, at the same value; and its map records would lie
inside the root's arrangement record with the same node, which the map
keeps instead.

One index pass.  The vertex lookup answers both questions a wavelet asks,
the nearest vertex of any kind past its own root and the nearest live one,
in one pass: the root vertex is left out of the first answer only.  A region
with no live vertex ends that pass as soon as its live mask is empty, before
either answer is picked; that is 21,374 of the 40,150 point wavelets of a
plan on bench_scene(1, 800).
"""

from __future__ import annotations

from typing import List, Tuple

from .engine import (
    _NEAREST_CORNER,
    _RANK_POINT,
    PlanResult,
    PointWavelet,
    _arrival,
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


class _FastEngine(_Engine):
    def __init__(self, scene: Scene, trace: bool = False):
        super().__init__(scene, trace)
        # (vertex, diagonal) -> the wavelet whose root ranks lowest among the
        # vertex's claimants and the roots spawned there
        self.registry = {}

    # -- cutting --------------------------------------------------------------

    def _spawn_arrangement(self, p, t, src):
        made = super()._spawn_arrangement(p, t, src)
        for w in made:
            prev = self.registry.get((p, w.dir))
            if prev is None or w.rank < prev.root.rank:
                self.registry[(p, w.dir)] = w
        return made

    def _cut(self, w: PointWavelet, rect: Rect, key) -> bool:
        """Requeue at key what lies of w's region outside rect's interior.
        False, with nothing pushed, when they share at most boundary: w then
        splits as usual, since requeueing its own rect would loop forever."""
        rects = replacement_rects(rect, w.rect)
        if w.rect in rects:
            return False
        self.stats.narrows += 1
        for piece in rects:
            self._push(key, _RANK_POINT, ("pw", PointWavelet(key, piece, w.root)))
            self.stats.point_wavelets += 1
        return True

    def _split_vertex(self, w: PointWavelet):
        # One index pass gives the nearest vertex of w's region, settled or
        # not, and the nearest live one.  The first leaves out the region's
        # own root vertex: the root sits at the source corner of every region
        # descended from its arrangement and would otherwise hide every
        # vertex behind it.  That is a start or vertex root, spawned with its
        # point's own label node; a wait root never is.  A settled vertex
        # nearest in the region cuts w by the region of the root registered
        # there when that root ranks below w's.
        root = w.root
        skip = None if root.src.kind == "wait" else root.origin
        p, v = self.drm.nearest(w.rect, _NEAREST_CORNER[root.dir], skip)
        if v is None:
            # No live vertex: this region and all it would be cut or split
            # into can claim nothing (see the module docstring).  Otherwise
            # p is set too: the root vertex it leaves out is settled.
            return None
        if p not in self.labels:
            # Nothing settled sits closer, so this is also the nearest
            # live vertex.
            v = p
        else:
            resident = self.registry[(p, root.dir)].root
            if resident.rank < root.rank and self._cut(w, resident.rect, w.key):
                return None
        tprime = _arrival(root, v)
        self._claim(v, tprime, root.src)
        prev = self.registry.get((v, root.dir))
        if prev is None:
            self.registry[(v, root.dir)] = w
        elif prev.root is root:
            # one value function: the rival piece covers the overlap
            if self._cut(w, prev.rect, tprime):
                return None
        elif root.rank < prev.root.rank:
            self.stats.narrows += 1  # an overlap resolved, though nothing is cut
            self.registry[(v, root.dir)] = w
        elif self._cut(w, prev.root.rect, tprime):
            return None
        return v


def fast_plan(scene: Scene) -> PlanResult:
    """Same contract as naive_plan; propagation cut in root order."""
    return run_plan(_FastEngine(scene))
