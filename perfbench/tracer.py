"""Per-layer tracing by wrapping the library's entry points at run time.

``Tracer.install`` replaces module and class attributes of the entry points
listed in ``_PATCHES`` with wrappers; nothing under ``src/`` changes.  While
``enabled`` is set, each wrapped call records a span (name, start, end,
parent span) and adds its count, its self time (duration minus the time of
the wrapped calls inside it) and its inclusive time to per-name totals.
Time the reference clock's timer handler spends inside a span is excluded
from that span's self time.  Spans of the first traced round are kept in
memory and written out at the end; later traced rounds feed the totals only.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.enabled = False
        self.keep_spans = True
        self.names = []
        self._ix = {}
        self.calls = []
        self.self_ns = []
        self.incl_ns = []
        self.counters = {}
        self.stack = []  # [name index, start ns, child ns, span index]
        self.sp_name = array("q")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("q")

    # -- recording ----------------------------------------------------------

    def name_index(self, name):
        ix = self._ix.get(name)
        if ix is None:
            ix = self._ix[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
        return ix

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def in_span(self, name):
        ix = self._ix.get(name)
        return ix is not None and any(f[0] == ix for f in self.stack)

    def exclude(self, seconds):
        """Charge seconds of foreign work to the innermost open span's children."""
        if self.enabled and self.stack:
            self.stack[-1][2] += int(seconds * 1e9)

    def wrap(self, fn, namer, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            ix = tracer.name_index(namer if isinstance(namer, str) else namer(tracer, args))
            stack = tracer.stack
            span = -1
            start = perf_counter_ns()
            if tracer.keep_spans:
                span = len(tracer.sp_name)
                tracer.sp_name.append(ix)
                tracer.sp_start.append(start)
                tracer.sp_end.append(0)
                tracer.sp_parent.append(stack[-1][3] if stack else -1)
            frame = [ix, start, 0, span]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                tracer.calls[ix] += 1
                tracer.self_ns[ix] += dur - frame[2]
                tracer.incl_ns[ix] += dur
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    tracer.sp_end[span] = end
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr, namer, after=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(orig, namer, after))

    def install(self, rp):
        from rectipath import engine, fast, geometry, pathrec, rangeindex, spm, stopindex, treap

        mods = {
            "rp": rp,
            "engine": engine,
            "fast": fast,
            "geometry": geometry,
            "pathrec": pathrec,
            "rangeindex": rangeindex,
            "spm": spm,
            "stopindex": stopindex,
            "treap": treap,
        }
        for owner_path, attrs, namer, after in _PATCHES:
            mod, _, cls = owner_path.partition(".")
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            for attr in attrs:
                self.patch(owner, attr, namer, after)

    # -- output -------------------------------------------------------------

    def totals(self):
        """{name: (calls, self ns, inclusive ns)} plus the named counters."""
        per = {n: (self.calls[i], self.self_ns[i], self.incl_ns[i]) for i, n in enumerate(self.names)}
        return per, dict(self.counters)

    def write(self, path, meta):
        doc = {
            "meta": meta,
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent)
            ],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _engine_init_name(tracer, args):
    from rectipath.fast import _FastEngine

    return "fast.init" if isinstance(args[0], _FastEngine) else "engine.init"


def _run_name(tracer, args):
    from rectipath.fast import _FastEngine

    eng = args[0]
    if isinstance(eng, _FastEngine):
        return "fast.sweep"
    if eng.trace is not None:
        return "engine.map_sweep"
    if tracer.in_span("op.fast_plan"):
        return "engine.fallback"
    return "engine.sweep"


def _after_run(tracer, args, out):
    eng = args[0]
    if eng.trace is not None:
        tracer.count("engine.trace_records", len(eng.trace))


# (owner, attributes, span name or namer(tracer, args), after-hook)
_PATCHES = (
    # the benchmark calls the operations through the package
    ("rp", ("fast_plan",), "op.fast_plan", None),
    ("rp", ("build_spm",), "op.build_spm", None),
    ("rp", ("dump_spm",), "op.dump", None),
    # load_spm's self time is the file read and JSON parse
    ("rp", ("load_spm",), "spm.load", None),
    ("spm", ("_spm_from_dict",), "spm.rebuild", None),
    ("spm", ("_harvest",), "spm.harvest", None),
    ("spm.ShortestPathMap", ("__init__",), "spm.index", None),
    ("spm.ShortestPathMap", ("_locate",), "spm.locate", None),
    ("spm.ShortestPathMap", ("arrival",), "op.arrival", None),
    ("spm.ShortestPathMap", ("query",), "spm.witness", None),
    # the map replays provenance through pathrec's helpers bound in spm
    ("spm", ("_from_source", "_from_flat", "_staircase"), "pathrec.build", None),
    ("pathrec", ("build_path",), "pathrec.build", None),
    ("pathrec", ("_route",), "pathrec.route", None),
    ("geometry.ScaledScene", ("__init__",), "geometry.scale", None),
    ("rangeindex.CornerWeightedVertices", ("__init__",), "rangeindex.vertex_build", None),
    ("rangeindex.CornerWeightedVertices", ("nearest",), "rangeindex.nearest", None),
    ("rangeindex.CornerWeightedVertices", ("report",), "rangeindex.report", None),
    ("rangeindex.CornerWeightedVertices", ("remove",), "rangeindex.remove", None),
    ("rangeindex.RectStabber", ("__init__",), "rangeindex.stabber_build", None),
    ("rangeindex.RectStabber", ("query",), "rangeindex.stab", None),
    ("stopindex.StopOracle", ("__init__",), "stopindex.build", None),
    ("stopindex.StopOracle", ("stop_point", "stop_drag", "accessible_on"), "stopindex.query", None),
    ("treap.RootSourceTree", ("insert", "neighbors", "extract_range", "absorb"), "treap.op", None),
    ("fast._FastEngine", ("__init__",), "fast.init", None),
    ("engine._Engine", ("__init__",), _engine_init_name, None),
    ("engine._Engine", ("run",), _run_name, _after_run),
)
