"""Arrival-time map for a fixed source, answering point queries in log time.

The narrowing planner's exhaustive sweep leaves a trace of everything it
swept: cones (a point source covering a rectangle of its diagonal quadrant)
and flat bands (a front sliding off an edge across a strip).  Each trace
record is an achievable arrival time over a closed rectangle, and every
point's true optimum is the value of the record that swept it first, so the
map is the lower envelope of the records.

Within one sweep direction a record's value is offset + g . q with a fixed
gradient g (the four diagonal cone classes, the four axial flat classes), so
the envelope query reduces to eight minimum-weight rectangle stabbing
queries: min offset among stabbed rectangles of a class, plus the class's
linear term.  Witness paths replay the winning record's provenance chain the
same way settled labels do.

Serialized form (JSON, versioned): the scene, the cell list, and the
flattened provenance tables (point sources and front chains by index), all in
scaled integer units.  A loaded map answers exactly like the one that was
dumped.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from .engine import _DIAG_SIGNS, SegNode, SrcNode
from .fast import _FastEngine
from .geometry import ScaledScene, Scene, TimedPath, Waypoint
from .pathrec import _from_flat, _from_source, _host_of, _staircase
from .rangeindex import RectStabber, WeightedRect
from .scenario import scene_from_dict, scene_to_dict

_FORMAT = "rectipath-spm"
_VERSION = 1

# class index -> value gradient; cones first so they win boundary ties
# against the flats that depart from those same boundary lines
_CLASSES = ("NE", "NW", "SE", "SW", "N", "S", "E", "W")
_GRADS = {
    "NE": (1, 1),
    "NW": (-1, 1),
    "SE": (1, -1),
    "SW": (-1, -1),
    "N": (0, 1),
    "S": (0, -1),
    "E": (1, 0),
    "W": (-1, 0),
}


class OutsideBoundingBox(ValueError):
    """Query point outside the scene's padded bounding box."""


class MapFormatError(ValueError):
    """Unrecognized or incompatible serialized map."""


class ConeCell:
    """value(q) = off + sx*qx + sy*qy inside rect; witnessed from src."""

    __slots__ = ("rect", "dir", "off", "src")

    def __init__(self, rect, dir, off, src):
        self.rect = rect
        self.dir = dir
        self.off = off
        self.src = src


class FlatCell:
    """value(q) = off +/- q_perp inside rect; witnessed along the chain."""

    __slots__ = ("rect", "dir", "off", "line", "node")

    def __init__(self, rect, dir, off, line, node):
        self.rect = rect
        self.dir = dir
        self.off = off
        self.line = line
        self.node = node


class ShortestPathMap:
    """Immutable arrival-time map; safe for concurrent queries."""

    def __init__(self, scene: Scene, cells):
        self.scene = scene
        self.sc = ScaledScene(scene)
        self.edges = self.sc.edges  # pathrec reads engine-likes through this
        self.cells: List = list(cells)
        per_class: Dict[str, List[WeightedRect]] = {}
        for i, c in enumerate(self.cells):
            xlo, xhi, ylo, yhi = c.rect
            per_class.setdefault(c.dir, []).append(
                WeightedRect(xlo, xhi, ylo, yhi, c.off, i)
            )
        self._stab = {d: RectStabber(rs) for d, rs in per_class.items()}

    # -- queries ----------------------------------------------------------

    def _scale_in(self, q):
        x = Fraction(q[0]) * self.sc.coord_scale
        y = Fraction(q[1]) * self.sc.coord_scale
        x = int(x) if x.denominator == 1 else x
        y = int(y) if y.denominator == 1 else y
        xlo, xhi, ylo, yhi = self.sc.bbox
        if not (xlo <= x <= xhi and ylo <= y <= yhi):
            raise OutsideBoundingBox(repr(q))
        return (x, y)

    def _locate(self, qs):
        best = None
        for ci, d in enumerate(_CLASSES):
            stab = self._stab.get(d)
            if stab is None:
                continue
            r = stab.query(qs)
            if r is None:
                continue
            gx, gy = _GRADS[d]
            cand = (r.weight + gx * qs[0] + gy * qs[1], ci, r.payload)
            if best is None or cand < best:
                best = cand
        assert best is not None, "bounding box point missed by every record"
        return best

    def arrival(self, q):
        """Minimum arrival time at q, in scene units."""
        val, _ci, _idx = self._locate(self._scale_in(q))
        return self.sc.time_out(val)

    def query(self, q) -> Tuple[object, TimedPath]:
        """Arrival time at q plus a witness path achieving it."""
        qs = self._scale_in(q)
        val, _ci, idx = self._locate(qs)
        cell = self.cells[idx]
        if isinstance(cell, ConeCell):
            tris = _from_source(self, cell.src)
            _staircase(self, tris, qs, host=_host_of(cell.src))
        else:
            horizontal = cell.dir in ("N", "S")
            cross = qs[0] if horizontal else qs[1]
            perp = qs[1] if horizontal else qs[0]
            tris = _from_flat(self, cell.node, cross, perp)
        assert tris[-1][0] == qs and tris[-1][1] == val
        sc = self.sc
        wps = tuple(
            Waypoint(sc.point_out(p), sc.time_out(a), sc.time_out(b)) for p, a, b in tris
        )
        return sc.time_out(val), TimedPath(wps)


def _harvest(trace) -> List:
    """Normalize trace records into cells, dropping records whose value
    function and region are covered by an already kept record."""
    cells: List = []
    kept: Dict[tuple, List[Tuple[int, int, int, int]]] = {}
    for rec in trace:
        if rec[0] == "cone":
            _, origin, t0, rect, d, src = rec
            sx, sy = _DIAG_SIGNS[d]
            off = t0 - sx * origin[0] - sy * origin[1]
            cell = ConeCell(rect, d, off, src)
        else:
            _, lo, hi, _lo_open, _hi_open, line, key, d, reach, node = rec
            if d in ("N", "S"):
                rect = (lo, hi, min(line, reach), max(line, reach))
            else:
                rect = (min(line, reach), max(line, reach), lo, hi)
            off = key - line if d in ("N", "E") else key + line
            cell = FlatCell(rect, d, off, line, node)
        group = kept.setdefault((cell.dir, cell.off), [])
        xlo, xhi, ylo, yhi = cell.rect
        if any(kx0 <= xlo and xhi <= kx1 and ky0 <= ylo and yhi <= ky1 for kx0, kx1, ky0, ky1 in group):
            continue
        group.append(cell.rect)
        cells.append(cell)
    return cells


def build_spm(scene: Scene) -> ShortestPathMap:
    """Sweep the whole bounding box from the source and index the trace."""
    eng = _FastEngine(scene, trace=True)
    eng.run(stop_at_dest=False)
    return ShortestPathMap(scene, _harvest(eng.trace))


def spm_query(spm: ShortestPathMap, q):
    """Arrival time and witness path at q.  Raises OutsideBoundingBox."""
    return spm.query(q)


# -- serialization ----------------------------------------------------------


def _spm_to_dict(spm: ShortestPathMap) -> dict:
    src_ix: Dict[int, int] = {}
    src_rows: List[Optional[dict]] = []
    seg_ix: Dict[int, int] = {}
    seg_rows: List[Optional[dict]] = []

    def src_of(node) -> int:
        k = id(node)
        if k in src_ix:
            return src_ix[k]
        i = len(src_rows)
        src_ix[k] = i
        src_rows.append(None)
        row = {"kind": node.kind, "point": list(node.point), "time": node.time}
        if node.kind == "wait":
            row["via"] = src_of(node.via)
            row["host"] = node.host
        elif node.kind == "vertex":
            via = node.via
            if via[0] == "p":
                row["via"] = ["p", src_of(via[1].src)]
            else:
                row["via"] = ["s", seg_of(via[1].node), via[1].dir]
        src_rows[i] = row
        return i

    def seg_of(node) -> int:
        k = id(node)
        if k in seg_ix:
            return seg_ix[k]
        i = len(seg_rows)
        seg_ix[k] = i
        seg_rows.append(None)
        row = {"kind": node.kind, "dir": node.dir, "line": node.line, "key": node.key}
        if node.kind == "piece":
            row["src"] = src_of(node.src)
            row["edge"] = node.edge
        elif node.kind == "successor":
            row["parent"] = seg_of(node.parent)
            row["edge"] = node.edge
            row["arrive"] = node.arrive
        else:
            row["parent"] = seg_of(node.parent)
        seg_rows[i] = row
        return i

    cell_rows = []
    for c in spm.cells:
        if isinstance(c, ConeCell):
            cell_rows.append(
                {"kind": "cone", "rect": list(c.rect), "dir": c.dir, "off": c.off, "src": src_of(c.src)}
            )
        else:
            cell_rows.append(
                {
                    "kind": "flat",
                    "rect": list(c.rect),
                    "dir": c.dir,
                    "off": c.off,
                    "line": c.line,
                    "node": seg_of(c.node),
                }
            )
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "scene": scene_to_dict(spm.scene),
        "cells": cell_rows,
        "sources": src_rows,
        "fronts": seg_rows,
    }


def _spm_from_dict(doc) -> ShortestPathMap:
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise MapFormatError("not a shortest-path map file")
    if doc.get("version") != _VERSION:
        raise MapFormatError("unsupported map version %r" % (doc.get("version"),))
    scene = scene_from_dict(doc["scene"])
    src_rows = doc["sources"]
    seg_rows = doc["fronts"]
    srcs: List[Optional[SrcNode]] = [None] * len(src_rows)
    segs: List[Optional[SegNode]] = [None] * len(seg_rows)

    def mk_src(i: int) -> SrcNode:
        if srcs[i] is None:
            row = src_rows[i]
            point = tuple(row["point"])
            if row["kind"] == "start":
                srcs[i] = SrcNode("start", point, row["time"])
            elif row["kind"] == "wait":
                srcs[i] = SrcNode(
                    "wait", point, row["time"], via=mk_src(row["via"]), host=row["host"]
                )
            else:
                tag = row["via"]
                if tag[0] == "p":
                    via = ("p", SimpleNamespace(src=mk_src(tag[1])))
                else:
                    via = ("s", SimpleNamespace(node=mk_seg(tag[1]), dir=tag[2]))
                srcs[i] = SrcNode("vertex", point, row["time"], via=via)
        return srcs[i]

    def mk_seg(i: int) -> SegNode:
        if segs[i] is None:
            row = seg_rows[i]
            if row["kind"] == "piece":
                segs[i] = SegNode(
                    "piece", row["dir"], row["line"], row["key"], src=mk_src(row["src"]), edge=row["edge"]
                )
            elif row["kind"] == "successor":
                segs[i] = SegNode(
                    "successor",
                    row["dir"],
                    row["line"],
                    row["key"],
                    parent=mk_seg(row["parent"]),
                    edge=row["edge"],
                    arrive=row["arrive"],
                )
            else:
                segs[i] = SegNode(
                    "remainder", row["dir"], row["line"], row["key"], parent=mk_seg(row["parent"])
                )
        return segs[i]

    cells: List = []
    for row in doc["cells"]:
        rect = tuple(row["rect"])
        if row["kind"] == "cone":
            cells.append(ConeCell(rect, row["dir"], row["off"], mk_src(row["src"])))
        else:
            cells.append(FlatCell(rect, row["dir"], row["off"], row["line"], mk_seg(row["node"])))
    return ShortestPathMap(scene, cells)


def dump_spm(spm: ShortestPathMap, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_spm_to_dict(spm), fh, separators=(",", ":"))
        fh.write("\n")


def load_spm(path) -> ShortestPathMap:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise MapFormatError(str(exc)) from exc
    return _spm_from_dict(doc)
