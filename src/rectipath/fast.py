"""Narrowing planner: the wavefront sweep, one lineage per root, cut in one
order of roots.

The sweep is the plain engine's continuous Dijkstra, point wavelets and flat
fronts alike, with one device that tames its quadratic point-wavelet count
without changing any label: each root's point wavelet is one lineage that
claims its region's vertices one at a time, and same-direction lineages that
overlap are cut against each other, in one fixed order.

Root order.  A root is the arrangement wavelet spawned at a settled vertex
or a wait point, and it holds the front's value function: with (sx, sy) the
signs of the diagonal, the arrival at any (x, y) of its region is
c + sx * x + sy * y, where c = t0 - sx * ox - sy * oy of the root.  So over
the whole overlap of two same-direction regions the root with the smaller c
is the earlier, by the same margin everywhere, and one comparison decides
it.  Roots are ranked by (c, spawn order), a total order (PointWavelet.rank).

Lineages.  A root is queued once at its spawn, unless it is dominated there
(below), and, after each vertex it claims, once more at that claim's
arrival.  Its first pop records it for the map, claims the destination if
the region holds it, and fills the lineage's bitset with the region's
vertices (CornerWeightedVertices.region), its own vertex left out: a start
or vertex root sits at the source corner of its region, on a vertex settled
with its point's own label node.  A wait root's point keeps its bit: it is
a vertex only when a fan ends on an edge endpoint, which may still be live
there.  The corner's order of the bitset is the root's arrival order, so
each pop picks the first vertex of any kind p and the first live one v,
claims v at the root's arrival there, keeps the bits at or after v (the
ones before it are settled already), and requeues the lineage at v's
arrival.  The plain engine splits the region into three overlapping
children at v instead and queues each.

Cuts.  A registry maps, per diagonal, each vertex to the lowest ranked root
among the vertex's claimants and the roots spawned there.  Both cuts follow
the root order and clear, from the lineage's bitset, the vertices strictly
inside the registered root's region; the vertices on its boundary stay.
That root's cut mask, every vertex but its region's interior, is built at
its first use as a cutter and kept on the root (PointWavelet.cut): neither
its region nor the index's rank space ever changes, so each later cut by it
is one AND.  The cuts:
- when p is settled and its registered root ranks below the lineage's, the
  lineage is cut by that root's region and picks again;
- when v is registered to a lower ranked root, the lineage is cut by that
  root's region after its claim; otherwise the lineage takes v's entry.
A cut that clears nothing ends the cutting, and the lineage claims v.

Lowest roots are never cut.  A vertex q leaves a lineage only once it is
settled, or through a root that ranks strictly lower and holds q in its
region's interior.  So, per direction, the lowest ranked root whose region
contains q never loses q: its lineage offers q the least arrival of that
direction's roots before q can settle later.  The plain engine settles q at
the least arrival of the same roots and flat fronts, so by induction on the
settle order both engines spawn the same roots at the same times and settle
every point at the same label, over the whole box as at the destination
(tests/test_exact_labels.py).  Only the provenance of equal-time ties may
differ.  Lineages keep their root source and flat fronts keep the plain
engine's provenance chains, so plans and maps are witnessed by the same path
reconstruction as naive_plan.

Dominated roots.  A root w spawned at p is refused when the registry's root
at (p, w.dir) ranks below it and that root's closed region contains w's:
w is never queued, claims nothing, the destination included, and leaves no
trace record, while its cap pieces and wait fans are spawned as for any
root.  This is the lowest-root argument again: the registered root ranks
lower and holds every point of w's region, so w is the lowest ranked root
of none of them and the argument never calls on it.  Each of those points,
the destination too, is offered no later by the lowest ranked root that
contains it, and the registered root's record covers w's in the map with
no larger values.  A refused root still takes its spawn order, so every
root keeps the rank it has in the plain engine.

Dead ends.  A lineage whose bitset holds no live vertex ends, and its bitset
is dropped with it: at a pop, or already at a claim that leaves no live
vertex besides v, which settles by v's arrival.  The live vertex set only
shrinks, so it could claim nothing more; and its map record is the one its
first pop made.

One index pass.  Each pop asks the vertex index once, and once more after
each cut, with the lineage's bitset (CornerWeightedVertices.nearest), for
both picks from one mask; a bitset with no live vertex ends that pass before
either is picked.  A cut itself asks the index for its mask only at the
cutter's first cut; every later one reuses the mask kept on the cutter.
"""

from __future__ import annotations

from .engine import (
    DIAGS,
    _NEAREST_CORNER,
    _RANK_POINT,
    PlanResult,
    PointWavelet,
    _arrival,
    _Engine,
    run_plan,
)
from .geometry import Scene


def _cut_mask(drm, root: PointWavelet, corner: str) -> int:
    """The bits, in the corner's rank space, of every vertex but those
    strictly inside root's region: built at the root's first use as a
    cutter and kept on it, since neither its region nor the index's rank
    space changes."""
    cut = root.cut
    if cut is None:
        cut = root.cut = ~drm.interior(root.rect, corner)
    return cut


class _FastEngine(_Engine):
    def __init__(self, scene: Scene, trace: bool = False):
        super().__init__(scene, trace)
        # diagonal -> vertex -> the root ranking lowest among the vertex's
        # claimants and the roots spawned there
        self.registry = {d: {} for d in DIAGS}
        # root -> bitset of the vertices its queued lineage may still claim,
        # in the rank space of its nearest corner; absent before the first pop
        # and once the lineage ends
        self.lineages = {}

    def _admit(self, p, w):
        registry = self.registry[w.dir]
        prev = registry.get(p)
        if prev is None or w.rank < prev.rank:
            registry[p] = w
            return True
        xlo, xhi, ylo, yhi = w.rect
        pxlo, pxhi, pylo, pyhi = prev.rect
        if pxlo <= xlo and xhi <= pxhi and pylo <= ylo and yhi <= pyhi:
            self.stats.dominated += 1
            return False
        return True

    def _do_point(self, w: PointWavelet):
        drm, corner, registry = self.drm, _NEAREST_CORNER[w.dir], self.registry[w.dir]
        bits = self.lineages.pop(w, None)
        if bits is None:
            if self.trace is not None:
                self.trace.append((w.rect, w.dir, w.src))
            xlo, xhi, ylo, yhi = w.rect
            dx, dy = self.dest
            if xlo <= dx <= xhi and ylo <= dy <= yhi:
                self._claim(self.dest, _arrival(w, self.dest), w.src)
            bits = drm.region(w.rect, corner, None if w.src.kind == "wait" else w.src.point)
        p, v = drm.nearest(bits, corner)
        # p differs from v only when p is settled: the live set shrinks only
        # as vertices settle
        while v is not None and p != v:
            resident = registry[p]
            if not resident.rank < w.rank:
                break
            kept = bits & _cut_mask(drm, resident, corner)
            if kept == bits:
                break
            self.stats.narrows += 1
            bits = kept
            p, v = drm.nearest(bits, corner)
        if v is None:
            return  # a dead end: nothing live is left to claim
        tprime = _arrival(w, v)
        self._claim(v, tprime, w.src)
        prev = registry.get(v)
        if prev is None or not prev.rank < w.rank:
            # w's own entry too: a wait root standing on a live vertex
            registry[v] = w
        else:
            kept = bits & _cut_mask(drm, prev, corner)
            if kept != bits:
                self.stats.narrows += 1
                bits = kept
        bits &= drm.suffix(v, corner)
        if drm.live(bits, corner, v):  # v itself settles by tprime
            self.lineages[w] = bits
            self._push(tprime, _RANK_POINT, ("pw", w))
            self.stats.point_wavelets += 1


def fast_plan(scene: Scene) -> PlanResult:
    """Same contract as naive_plan; one lineage per root, cut in root order."""
    return run_plan(_FastEngine(scene))
