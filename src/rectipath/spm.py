"""Arrival-time map for a fixed source, answering point queries by eight
rectangle stabs.

The narrowing planner's exhaustive sweep leaves a trace of everything it
swept: cones (a point source covering a rectangle of its diagonal quadrant,
recorded once per root, since all its lineage later claims lies inside it
with the same value function) and flat bands (a front sliding off an edge
across a strip).  A root dominated at its spawn leaves no record: the
lower ranked root of its vertex and diagonal whose region holds its whole
region has one, and is nowhere later than it there.  Each trace record is
an achievable arrival time over a closed rectangle, and every point's true
optimum is the value of the record that swept it first, so the map is the
lower envelope of the records.

Within one sweep direction a record's value is offset + g . q with a fixed
gradient g (the four diagonal cone classes, the four axial flat classes), so
within a class the envelope is that of the offsets alone: the minimum
offset among the class's cells holding the point, one
:class:`~rectipath.rangeindex.RectStabber` query per class.  Its four
bisects are logarithmic; its three ANDs are word-parallel but linear in
the class's cells.  A query takes the minimum over the eight classes of the
located offset plus the class's linear term; the classes cannot share one
rectilinear subdivision, since a north-east cone x + y + c1 and a south-west
cone -x - y + c2 trade places along a diagonal.  Witness paths replay the
winning record's provenance chain, with the query point as its last node,
in the walk that replays settled labels.  Each hop is routed among the
blockers the scene's stop oracle lists for it: the map keeps the sweep's
oracle, and a loaded map builds its own.

Serialized form (JSON, version 4): the scene, one table of provenance nodes
and the cell list, all in scaled integer units.  Every node row names its
parent by index, and the parent is always an earlier row, so a loader builds
the nodes in one forward pass; a cell names its node the same way.  Rows
store no times: a node's time, or its line and key, follows from the scene
and its parent, and a cell's value function from its node, so the loader
derives them and checks the rest against the scene.  The last field is the
SHA-256 of every byte before it, which the loader checks over the bytes it
read: the cell list is the sweep's choice, which no check against the scene
can confirm, so an edited or corrupted file must not load.  A loaded map
answers exactly like the one that was dumped.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Tuple

# CPython's own SHA-256, which hashlib falls back to without OpenSSL: importing
# hashlib loads OpenSSL, about 3.6 MiB resident in every process that imports
# the package, for two hashes per map file
try:
    from _sha2 import sha256  # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .engine import _DIAG_SIGNS, DIAGS, SegNode, SrcNode
from .fast import _FastEngine
from .geometry import ScaledScene, Scene, TimedPath
# _from_flat and _staircase are not called here: perfbench's tracer wraps them on this module
from .pathrec import WitnessError, _from_flat, _from_source, _staircase, _timed_path
from .rangeindex import RectStabber, WeightedRect
from .scenario import scene_from_dict, scene_to_dict
from .stopindex import _DIR_INFO, StopOracle

_FORMAT = "rectipath-spm"
_VERSION = 4
# a map file ends with its digest field: _DIGEST_KEY, 64 hex digits, _DIGEST_END
_DIGEST_KEY = b',"sha256":"'
_DIGEST_END = b'"}\n'

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


class Cell:
    """value(q) = off + g . q inside the closed rect, where g is the gradient
    of dir.  A cone (diagonal dir) is witnessed by a staircase from its point
    source node, a band (dir the front's) along its flat-front node's chain.
    The node alone fixes the value function, so off is derived from it."""

    __slots__ = ("rect", "dir", "node", "off")

    def __init__(self, rect, dir, node):
        self.rect = rect
        self.dir = dir
        self.node = node
        gx, gy = _GRADS[dir]
        if isinstance(node, SrcNode):
            self.off = node.time - gx * node.point[0] - gy * node.point[1]
        else:
            self.off = node.key - (gx + gy) * node.line


class ShortestPathMap:
    """Immutable arrival-time map over the cells of one scaled scene; safe
    for concurrent queries.  stop is the scene's StopOracle, which routes
    the witness hops."""

    def __init__(self, sc: ScaledScene, cells, stop: StopOracle):
        self.scene = sc.scene
        self.sc = sc
        self.stop = stop
        self.cells: List = list(cells)
        per_class: Dict[str, List[WeightedRect]] = {}
        for i, c in enumerate(self.cells):
            per_class.setdefault(c.dir, []).append(WeightedRect(*c.rect, c.off, i))
        self._stab = {d: RectStabber(rs) for d, rs in per_class.items()}

    # -- queries ----------------------------------------------------------

    def _scale_in(self, q):
        # an int scales to an int; anything else through Fraction
        s = self.sc.coord_scale
        x = q[0] * s if type(q[0]) is int else Fraction(q[0]) * s
        y = q[1] * s if type(q[1]) is int else Fraction(q[1]) * s
        x = x if type(x) is int or x.denominator != 1 else int(x)
        y = y if type(y) is int or y.denominator != 1 else int(y)
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
        if best is None:
            raise WitnessError(f"bounding box point {qs} missed by every record")
        return best

    def arrival(self, q):
        """Minimum arrival time at q, in scene units."""
        val, _ci, _idx = self._locate(self._scale_in(q))
        return self.sc.time_out(val)

    def query(self, q) -> Tuple[object, TimedPath]:
        """Arrival time at q plus a witness path achieving it: the query
        point is replayed as the last node of the winning cell's chain, a
        vertex at the map's value whose parent is the cell's node, so the
        chain's own arrival check holds the witness to that value."""
        qs = self._scale_in(q)
        val, _ci, idx = self._locate(qs)
        tris = _from_source(self.stop, SrcNode("vertex", qs, val, self.cells[idx].node))
        return self.sc.time_out(val), _timed_path(self.sc, tris)


def _harvest(trace) -> List:
    """Normalize trace records into cells, dropping records whose value
    function and region are covered by an already kept record."""
    cells: List = []
    kept: Dict[tuple, List[Tuple[int, int, int, int]]] = {}
    for rec in trace:
        cell = Cell(*rec)
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
    return ShortestPathMap(eng.sc, _harvest(eng.trace), eng.stop)


# -- serialization ----------------------------------------------------------


# A node row of each kind: the node class its parent must be (None: no
# parent) and the fields besides kind and parent.  They hold only the
# sweep's choices; every time, key and line is derived from the scene and
# the parent on load.
_NODE_ROWS = {
    "start": (None, ()),
    "vertex": ((SrcNode, SegNode), ("point",)),
    "wait": (SrcNode, ("point", "host")),
    "piece": (SrcNode, ("edge", "dir")),
    "successor": (SegNode, ("edge",)),
    "remainder": (SegNode, ("edge",)),
}


def _node_row(node, row_of) -> dict:
    row = {"kind": node.kind}
    row.update((name, getattr(node, name)) for name in _NODE_ROWS[node.kind][1])
    row["parent"] = None if node.parent is None else row_of[node.parent]
    return row


def _spm_to_dict(spm: ShortestPathMap) -> dict:
    row_of: Dict[object, int] = {}  # provenance node -> its row
    node_rows: List[dict] = []

    def row(node) -> int:
        """Row of node; first writes the rows of its chain not yet written,
        parents before children."""
        chain = []
        up = node
        while up is not None and up not in row_of:
            chain.append(up)
            up = up.parent
        for n in reversed(chain):
            row_of[n] = len(node_rows)
            node_rows.append(_node_row(n, row_of))
        return row_of[node]

    cell_rows = []
    for c in spm.cells:
        r = {"rect": list(c.rect), "node": row(c.node)}
        if isinstance(c.node, SrcNode):
            r["dir"] = c.dir
        cell_rows.append(r)
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "scene": scene_to_dict(spm.scene),
        "nodes": node_rows,
        "cells": cell_rows,
    }


def _ahead(d, frm, to) -> int:
    """How far to lies ahead of frm in direction d.  Both are lines across d,
    or points, which stand for the lines through them."""
    s, horizontal = _DIR_INFO[d]
    frm, to = (v[horizontal] if type(v) is tuple else v for v in (frm, to))
    return s * (to - frm)


def _is_int(v) -> bool:
    return type(v) is int


def _ints(v, n) -> bool:
    return type(v) is list and len(v) == n and all(type(c) is int for c in v)


def _field(row, name, ok, where):
    """row[name], which must be present and pass ok."""
    if name not in row or not ok(row[name]):
        raise MapFormatError("%s: bad or missing %r" % (where, name))
    return row[name]


def _ref(row, name, nodes, want, where):
    """The node that row[name] names, which must be built and a want."""
    v = row.get(name)
    if not (_is_int(v) and 0 <= v < len(nodes) and isinstance(nodes[v], want)):
        raise MapFormatError("%s: bad or missing %r" % (where, name))
    return nodes[v]


def _rows(doc, name) -> list:
    rows = doc.get(name)
    if type(rows) is not list or not all(type(r) is dict for r in rows):
        raise MapFormatError("%s must be a list of objects" % name)
    return rows


def _node(kind, f, parent, sc):
    """The node of one row: its time, or its line and key, derived from the
    scene and the parent, and what the row chose checked against both."""
    if kind == "start":
        return SrcNode(kind, sc.source, 0)
    if kind == "wait":
        p, e = tuple(f["point"]), sc.edges[f["host"]]
        along, across = p if e.horizontal else p[::-1]
        if across != e.line or not e.lo <= along <= e.hi:
            raise MapFormatError("wait point %r off its host" % (p,))
        return SrcNode(kind, p, e.td, parent, f["host"])
    if kind == "vertex":
        p = tuple(f["point"])
        if p not in sc.verts:
            raise MapFormatError("vertex %r is not a scene vertex" % (p,))
        if isinstance(parent, SrcNode):
            return SrcNode(kind, p, parent.time + abs(p[0] - parent.point[0]) + abs(p[1] - parent.point[1]), parent)
        ahead = _ahead(parent.dir, parent.line, p)
        if ahead <= 0:
            raise MapFormatError("vertex %r behind its front" % (p,))
        return SrcNode(kind, p, parent.key + ahead, parent)
    e = sc.edges[f["edge"]]
    d = f["dir"] if kind == "piece" else parent.dir
    if e.horizontal != (d in ("N", "S")):
        raise MapFormatError("%s front %s parallel to edge %d" % (kind, d, f["edge"]))
    ahead = _ahead(d, parent.point if kind == "piece" else parent.line, e.line)
    if ahead <= 0:
        raise MapFormatError("%s front on edge %d behind its parent" % (kind, f["edge"]))
    return SegNode(kind, d, e.line, parent.key + ahead if kind == "remainder" else e.td, parent, f["edge"])


def _cell(row, nodes, where) -> Cell:
    rect = tuple(_field(row, "rect", lambda v: _ints(v, 4) and v[0] <= v[1] and v[2] <= v[3], where))
    node = _ref(row, "node", nodes, (SrcNode, SegNode), where)
    if isinstance(node, SrcNode):
        d = _field(row, "dir", DIAGS.__contains__, where)
        sx, sy = _DIAG_SIGNS[d]
        px, py = node.point
        if not ((rect[0] >= px if sx > 0 else rect[1] <= px) and (rect[2] >= py if sy > 0 else rect[3] <= py)):
            raise MapFormatError("%s: rect outside its node's %s quadrant" % (where, d))
        return Cell(rect, d, node)
    if "dir" in row:
        raise MapFormatError("%s: a flat cell takes its front's direction" % where)
    s, horizontal = _DIR_INFO[node.dir]
    if rect[(2 if horizontal else 0) + (s < 0)] != node.line:
        raise MapFormatError("%s: rect does not start on its front's line" % where)
    return Cell(rect, node.dir, node)


def _check_version(doc) -> None:
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise MapFormatError("not a shortest-path map file")
    if doc.get("version") != _VERSION:
        raise MapFormatError("unsupported map version %r" % (doc.get("version"),))


def _spm_from_dict(doc) -> ShortestPathMap:
    _check_version(doc)
    scene = scene_from_dict(doc.get("scene"))
    sc = ScaledScene(scene)
    n_edges = len(sc.edges)
    checks = {
        "point": lambda v: _ints(v, 2),
        "host": lambda v: _is_int(v) and 0 <= v < n_edges,
        "dir": ("N", "S", "E", "W").__contains__,
        "edge": lambda v: _is_int(v) and 0 <= v < n_edges,
    }
    # One forward pass: nodes holds the rows before this one, so a parent
    # can only be an earlier row.
    nodes: List = []
    for i, row in enumerate(_rows(doc, "nodes")):
        where = "node %d" % i
        kind = _field(row, "kind", lambda v: type(v) is str and v in _NODE_ROWS, where)
        want, names = _NODE_ROWS[kind]
        if want is None:
            parent = _field(row, "parent", lambda v: v is None, where)
        else:
            parent = _ref(row, "parent", nodes, want, where)
        f = {name: _field(row, name, checks[name], where) for name in names}
        try:
            nodes.append(_node(kind, f, parent, sc))
        except MapFormatError as exc:
            raise MapFormatError("%s: %s" % (where, exc)) from None
    cells = [_cell(row, nodes, "cell %d" % i) for i, row in enumerate(_rows(doc, "cells"))]
    return ShortestPathMap(sc, cells, StopOracle(sc.edges))


def _map_bytes(doc) -> bytes:
    """The bytes of a map file for a document that has no digest yet: its
    compact JSON, with the SHA-256 of every byte before it as the last
    field."""
    # json.dumps runs the C encoder in one pass; json.dump to a file runs the
    # pure-Python chunked encoder for the same bytes
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")[:-1]  # without its "}"
    return body + _DIGEST_KEY + sha256(body).hexdigest().encode("ascii") + _DIGEST_END


def _check_digest(data: bytes) -> None:
    """data must end with the digest field of every byte before it."""
    body, key, tail = data.rpartition(_DIGEST_KEY)
    digest = sha256(body).hexdigest().encode("ascii")
    if not key or tail != digest + _DIGEST_END:
        raise MapFormatError("map digest mismatch: the file was edited or corrupted")


def dump_spm(spm: ShortestPathMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_map_bytes(_spm_to_dict(spm)))


def load_spm(path) -> ShortestPathMap:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise MapFormatError(str(exc)) from exc
    _check_version(doc)
    _check_digest(data)
    return _spm_from_dict(doc)
