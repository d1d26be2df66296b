"""Narrowing planner: the wavefront sweep, one lineage per root, cut in one
order of roots.

The sweep is the plain engine's continuous Dijkstra, point wavelets and flat
fronts alike, with three devices that tame its wavelet counts without
changing any label: each root's point wavelet is one lineage that claims its
region's vertices one at a time, and same-direction lineages that overlap
are cut against each other, in one fixed order; a flat front that an
earlier front of its (direction, line, key) already holds is dropped at its
pop; and a wait fan strictly inside the union of the fronts that leave its
edge's line at its key is refused at its pop.

Root order.  A root is the arrangement wavelet spawned at a settled vertex
or a wait point, and it holds the front's value function: with (sx, sy) the
signs of the diagonal, the arrival at any (x, y) of its region is
c + sx * x + sy * y, where c = t0 - sx * ox - sy * oy of the root.  So over
the whole overlap of two same-direction regions the root with the smaller c
is the earlier, by the same margin everywhere, and one comparison decides
it.  Roots are ranked by (c, spawn order), a total order (PointWavelet.rank).

Lineages.  A root is queued once at its spawn, unless it is dominated there
(below), and, after each vertex it claims, once more at that claim's
arrival.  Its first pop (_Engine._first_pop, as in the plain engine) records
it for the map and claims the destination if the region holds it; then it
fills the lineage's bitset with the region's vertices
(CornerWeightedVertices.region), its own vertex left out: a start or vertex
root sits at the source corner of its region, on a vertex settled with its
point's own label node.  A wait root's point keeps its bit: it is a vertex
only when a fan ends on an edge endpoint, which may still be live there.
The corner's order of the bitset is the root's arrival order, so
each pop picks the first vertex of any kind p and the first live one v,
claims v at the root's arrival there, keeps the bits at or after v (the
ones before it are settled already), and requeues the lineage at v's
arrival.  The plain engine instead claims every live vertex of the region
at the root's one pop.

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
differ.  Lineages keep their root source and flat fronts the plain engine's
kinds of provenance node, so plans and maps are witnessed by the same path
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

Flat fronts.  A front on line L moving toward d with key k arrives at
k + s * (distance from L) wherever it sweeps, so every front of one
(d, L, k) group has the same value function; a front's key is its queue
key, so a group's fronts all pop in one bucket.  A front is dropped at its
pop when one front of its group popped before it holds its whole span:
holding is containment, with left ends ordered as (lo, lo_open) and right
ends as (hi, not hi_open).  It is transitive, so a group keeps only its
maximal spans, whose ends rise together, and a front is held when the last
kept span starting at or before it reaches as far right (_join).
The dropped front makes no stop query, claim, trace
record, successor or remainder, so the cascade below it goes too.  Its
columns are claimed no later, through the holder's sweep, successor and
remainder chain, which has the same value function.  Every edge that blocks
the dropped front's span blocks the holder's at the same instant, so the
holder stops on a line no farther away.  Up to that line the holder's band
covers the dropped one's.  If both stop at one edge, the holder's successor
and remainders hold the dropped front's, group by group.  If the holder
stops at an edge the dropped front passes, that edge's open span misses the
dropped front's columns, which go on in the holder's remainder at the same
values; only a column at the edge's endpoint falls on the remainder's open
end, and the holder claims that endpoint on its stop line at the same
value, so the endpoint's own roots carry the column on.  Past the holder's
stop line these claims are pushed later than the dropped front would have
pushed them, so another claimant of equal time may win the tie there: the
labels are the plain engine's, which keeps every front, and only the
provenance of such ties may differ.  Only single fronts hold: matching
against the union of a group's spans would drop more fronts but move more
ties.

Wait fans.  A root whose axis ray stops at edge e pushes a piece, the part of
e its staircases reach while e stands, sweeping away from the root's side
from e's disappearance td, and a fan at each end of the piece, which spawns
the four roots of a wait at td.  A front stopped by e pushes a successor, its
clip of e, departing at td too.  So the groups (d, e's line, td) of the flat
fronts above, one per sweep direction d across e, hold e's pieces and
successors; remainders on e's line depart before td, where e still blocks,
and no other edge shares the line.  At a fan's pop at (td, _RANK_FAN) those
groups hold every front that leaves e's line at td, and a front dropped as
held has its holder there.  The rule needs this one condition: no front of
another key pops between a key's fronts and its fans, which would reset the
groups.  It holds as every front is pushed at a key later than the pop that
pushes it (a disappearance after the hit, or a later arrival at the next
line), so td's fronts are all queued before td's bucket opens, and fronts
rank before fans.  A run is a maximal closed span of one group's union,
which held fronts leave as it is: c is strictly inside one when the last
kept span starting before c reaches c and the last starting at or before c
passes it (_inside).  A fan strictly inside a run of either direction is
refused: it spawns nothing.  Take a fan at f strictly inside a run [a, b]
that sweeps toward d; the robot stands at every point of [a, b] on e's far
side from d by td.  The fan's two cones toward d are its forward cones.
Every front of the group leaves the line at td with one value function, so
a point of them over [a, b] is offered by the run's fronts at td plus its
distance from e's line, no more than the fan's td + its L1 distance from f;
where an edge stops the fronts short of it but not the fan's staircase,
that edge ends between f's column and the point's, and its endpoint,
claimed on the fronts' stop line at their value, carries the point on
through its own roots, as in the flat fronts above.  A point past the run's
end b is offered no later from b, which departs at td too and is nearer by
|b - f|: b is strictly inside no run toward d, as runs of one direction are
disjoint, so its fan is kept, or it lies strictly inside a run toward -d,
where its cones toward d are back cones.  The fan's two other cones, its
back cones, point to the side the robot came from, and their staircases
leave e's line without crossing it: they never needed e gone.  The front of
the group that holds f came from a source on that side: a piece from the
root whose staircases reach it, a successor from its parent front's band.
Inside that root's region or that band, the source arrives at f by td and
runs at slope one, so it offers each back-cone point no later than the fan;
past it, the fan's staircase leaves it at a point the source reached
earlier, and the same route taken from there at once, waiting only in front
of edges that block it, is at every point no later, so its labels are those
of routes that never wait at f, which the sweep's other sources offer.  By
induction on the settle order, as for the lowest roots, the sweep settles
every point at the plain engine's label, and the plain engine keeps every
fan (tests/test_exact_labels.py holds the whole-box labels of both equal,
ladders wide, tall and turned included).  One fan strictly inside a run is
kept: the one on its parent's own column, where the axis ray of a parent
that is not a wait hit e.  That choice is about witness shape, not labels,
as keeping a fan is always sound: a wait moved off the ray's hit point to
the union's end makes the replayed chain walk back and forth (ladder 1's
plan witness did).

One index pass.  Each pop asks the vertex index once, and once more after
each cut, with the lineage's bitset (CornerWeightedVertices.nearest), for
both picks from one mask; a bitset with no live vertex ends that pass before
either is picked.  A cut itself asks the index for its mask only at the
cutter's first cut; every later one reuses the mask kept on the cutter.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .engine import (
    DIAGS,
    _RANK_POINT,
    PlanResult,
    PointWavelet,
    SegNode,
    _arrival,
    _Engine,
    run_plan,
)
from .geometry import Scene

_NEAREST_CORNER = {"NE": "SW", "NW": "SE", "SE": "NW", "SW": "NE"}


def _cut_mask(drm, root: PointWavelet, corner: str) -> int:
    """The bits, in the corner's rank space, of every vertex but those
    strictly inside root's region: built at the root's first use as a
    cutter and kept on it, since neither its region nor the index's rank
    space changes."""
    cut = root.cut
    if cut is None:
        cut = root.cut = ~drm.interior(root.rect, corner)
    return cut


def _join(los, his, w: SegNode) -> bool:
    """Add front w to its group's record (Flat fronts) unless a kept span holds it; whether it did."""
    lo, hi = (w.lo, w.lo_open), (w.hi, not w.hi_open)
    j = bisect_right(los, lo)
    if j and hi <= his[j - 1]:
        return False
    j, k = bisect_left(los, lo, 0, j), bisect_right(his, hi, j)
    los[j:k], his[j:k] = [lo], [hi]
    return True


def _inside(los, his, c) -> bool:
    """Whether c lies strictly inside a run of the group's record (Wait fans)."""
    i = bisect_left(los, (c, False))
    return i > 0 and his[i - 1] >= (c, False) and his[bisect_right(los, (c, True), i) - 1] > (c, True)


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
        # (direction, line) -> the record of the flat fronts swept at swept_key
        # (_join): a group's fronts all pop in one bucket, before its wait fans
        self.swept_key, self.swept = None, {}

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
        corner, registry = _NEAREST_CORNER[w.dir], self.registry[w.dir]
        bits = self.lineages.pop(w, None)
        if bits is None:
            if self._first_pop(w):
                return  # the plan's exit: nothing after it could settle
            bits = (self.drm or self._vertex_index()).region(
                w.rect, corner, None if w.src.kind == "wait" else w.src.point
            )
        drm = self.drm  # built at the lineage's first pop
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

    def _do_fan(self, key, fp, edge_idx, parent):
        e = self.edges[edge_idx]
        i = 0 if e.horizontal else 1
        c = fp[i]
        if parent.kind == "wait" or parent.point[i] != c:
            if any(_inside(*self.swept.get((d, e.line), ((), ())), c) for d in ("NS" if e.horizontal else "EW")):
                self.stats.fans_refused += 1
                return
        super()._do_fan(key, fp, edge_idx, parent)

    def _do_segment(self, w: SegNode):
        if w.key != self.swept_key:
            self.swept_key, self.swept = w.key, {}
        if not _join(*self.swept.setdefault((w.dir, w.line), ([], [])), w):
            self.stats.fronts_dropped += 1
            return
        super()._do_segment(w)


def fast_plan(scene: Scene) -> PlanResult:
    """Same contract as naive_plan; one lineage per root, cut in root order."""
    return run_plan(_FastEngine(scene))
