"""One run of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --root <checkout> --workload W --seed S
        --seconds T --trace 0|1 [--setup-only]

Set-up (import, input generation) ends with a READY line on stdout, from
which run.py times set-up.  The timed phase then repeats whole rounds of the
workload's operations until T seconds have passed and at least
``min_rounds`` rounds are done, with the cyclic collector off.  Answers are
checked after the timed phase; the last stdout line is a JSON object with
the operation counts, the metrics and the fault labels.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import checks
import scenes
from refclock import REF_UNIT_MS, RefClock, trimmed_mean
from tracer import Tracer


def p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def path_key(path):
    return tuple((w.point, w.arrive, w.depart) for w in path.waypoints)


class Run:
    """Samples and answers of the timed phase."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = []  # (round, kind, net s, start, end)
        self.rounds = []  # (round, traced, start, end)
        self.round = 0

    def timed(self, kind, fn, *args):
        """Time fn(*args); returns ("ok", result) or ("raise", exception)."""
        clock = self.clock
        h0 = clock.handler_s
        t0 = perf_counter()
        try:
            out = ("ok", fn(*args))
        except Exception as exc:  # a failed operation is an answer to check
            out = ("raise", exc)
        t1 = perf_counter()
        self.samples.append((self.round, kind, (t1 - t0) - (clock.handler_s - h0), t0, t1))
        return out

    def ref_ms(self, kind, rounds=None):
        return [
            self.clock.ref_ms(net, t0, t1)
            for r, k, net, t0, t1 in self.samples
            if k == kind and (rounds is None or r in rounds)
        ]


# -- workloads ------------------------------------------------------------


class PlanOpen:
    """fast_plan on the two fixed bench scenes of n=800; both per round."""

    min_rounds = 2

    def __init__(self, rp, seed):
        self.rp = rp
        self.scenes = [rp.bench_scene(s, scenes.OPEN_N) for s in scenes.OPEN_SCENE_SEEDS]

    def round(self, run):
        out = []
        for scene in self.scenes:
            status, res = run.timed("plan", self.rp.fast_plan, scene)
            gc.collect()
            out.append(("plan", status, res))
        return out

    def verdicts(self, answers):
        out = []
        for scene, (_kind, status, res) in zip(self.scenes, answers):
            if status == "raise":
                out.append(checks.classify_raise(res))
            else:
                out.append(checks.check_open_plan(self.rp, scene, res))
        return out

    def key(self, status, res):
        return (status, type(res).__name__) if status == "raise" else (res.arrival, path_key(res.path))


class PlanGated:
    """fast_plan on the fixed ladder corpus; the corpus once per round."""

    min_rounds = 4  # >= 104 plans, so p90 has >= 10 plans beyond it

    def __init__(self, rp, seed):
        self.rp = rp
        self.corpus = scenes.gated_corpus(rp)

    def round(self, run):
        out = []
        for _label, scene in self.corpus:
            status, res = run.timed("plan", self.rp.fast_plan, scene)
            gc.collect()
            out.append(("plan", status, res))
        return out

    def verdicts(self, answers):
        out = []
        for (label, scene), (_kind, status, res) in zip(self.corpus, answers):
            if not self.rp.validate_scene(scene).ok:
                out.append("bad-input")
            elif status == "raise":
                out.append(checks.classify_raise(res))
            else:
                out.append(checks.check_plan(self.rp, scene, res, self.rp.oracle_plan(scene)))
        return out

    key = PlanOpen.key


class SpmServe:
    """build_spm on the fixed map scene, arrival and witness queries at the
    lattice points from the seed, then three dump/load round trips; all once
    per round."""

    min_rounds = 2

    def __init__(self, rp, seed):
        self.rp = rp
        self.scene = rp.bench_scene(scenes.SERVE_SCENE_SEED, scenes.SERVE_N)
        self.points = scenes.serve_points(rp, self.scene, seed)
        self.file = None
        self.loaded = None
        self.file_bytes = []

    def round(self, run):
        # Maps are reduced to their cell counts in the answers, so a round
        # holds at most one built map, one loaded map and self.loaded.
        rp = self.rp
        out = []
        status, m = run.timed("build", rp.build_spm, self.scene)
        gc.collect()
        if status != "ok":
            return [("build", status, m)]
        out.append(("build", status, len(m.cells)))
        for p in self.points:
            out.append(("arrival",) + run.timed("arrival", m.arrival, p))
        gc.collect()
        for p in self.points:
            out.append(("plan",) + run.timed("plan", m.query, p))
        gc.collect()
        for _ in range(3):
            out.append(("dump",) + run.timed("dump", rp.dump_spm, m, self.file))
            self.file_bytes.append(os.path.getsize(self.file))
            status, loaded = run.timed("load", rp.load_spm, self.file)
            if status == "ok":
                if self.loaded is None:
                    self.loaded = loaded
                loaded = len(loaded.cells)
            out.append(("load", status, loaded))
            del loaded
            gc.collect()
        return out

    def verdicts(self, answers):
        rp = self.rp
        expected = rp.oracle_arrivals(self.scene, self.points)
        exp = dict(zip(self.points, expected))
        loaded_ok = self.loaded is not None and all(
            self.loaded.arrival(p) == exp[p] for p in self.points
        )
        out = []
        arrivals = iter(self.points)
        witnesses = iter(self.points)
        for kind, status, res in answers:
            if status == "raise":
                out.append("raised-%s" % type(res).__name__)
            elif kind == "arrival":
                out.append(checks.check_arrival(res, exp[next(arrivals)]))
            elif kind == "plan":
                p = next(witnesses)
                out.append(checks.check_witness(rp, self.scene, p, res, exp[p]))
            elif kind in ("dump", "load"):
                out.append(None if loaded_ok else "map-round-trip")
            else:
                out.append(None)
        return out

    def key(self, status, res):
        if status == "raise":
            return (status, type(res).__name__)
        if isinstance(res, tuple):  # witness
            return (res[0], path_key(res[1]))
        return res


WORKLOADS = {"plan_open": PlanOpen, "plan_gated": PlanGated, "spm_serve": SpmServe}


# -- metrics --------------------------------------------------------------


def e2e_metrics(run, rounds):
    """plan_ms: median of all route answers.  plan_tail_ms: 90th percentile
    over the round's inputs (scenes or query points) of each input's median
    time, so it ranks inputs by cost instead of ranking timing noise.
    round_s: median over rounds of the sum of the round's operations."""
    per_round = {}
    per_input = {}
    for r, kind, net, t0, t1 in run.samples:
        if rounds is not None and r not in rounds:
            continue
        t = run.clock.ref_ms(net, t0, t1)
        per_round[r] = per_round.get(r, 0.0) + t / 1e3
        if kind == "plan":
            per_input.setdefault(r, []).append(t)
    plans = [t for ts in per_input.values() for t in ts]
    # rounds cut short by a failed map build have no answers to line up
    full = max(len(ts) for ts in per_input.values())
    input_medians = [
        statistics.median(ts) for ts in zip(*(ts for ts in per_input.values() if len(ts) == full))
    ]
    return {
        "plan_ms": (statistics.median(plans), "ms"),
        "plan_tail_ms": (p90(input_medians), "ms"),
        "round_s": (statistics.median(per_round.values()), "s"),
    }


def layer_metrics(tracer, per_round, n_traced, unit_s, run, workload, untraced, traced):
    """Per-layer metrics per round from the traced rounds' totals."""
    per, counters = tracer.totals()
    scale = REF_UNIT_MS / (unit_s * 1e3)  # raw ms -> reference ms

    def calls(name):
        return per.get(name, (0, 0, 0))[0] / n_traced

    def self_ms(name):
        return per.get(name, (0, 0, 0))[1] / 1e6 / n_traced * scale

    def incl_ms(name):
        return per.get(name, (0, 0, 0))[2] / 1e6 / n_traced * scale

    def per_call_us(name):
        c, s, _ = per.get(name, (0, 0, 0))
        return s / 1e3 / c * scale if c else 0.0

    def counter(name):
        return counters.get(name, 0) / n_traced

    m = {
        "geometry.scale_ms": (self_ms("geometry.scale"), "ms"),
        "rangeindex.vertex_build_ms": (self_ms("rangeindex.vertex_build"), "ms"),
        "rangeindex.nearest_calls": (calls("rangeindex.nearest"), "count"),
        "rangeindex.nearest_ms": (self_ms("rangeindex.nearest"), "ms"),
        "rangeindex.report_calls": (calls("rangeindex.report"), "count"),
        "rangeindex.report_ms": (self_ms("rangeindex.report"), "ms"),
        "rangeindex.remove_ms": (self_ms("rangeindex.remove"), "ms"),
        "rangeindex.stabber_build_ms": (self_ms("rangeindex.stabber_build"), "ms"),
        "rangeindex.stab_calls": (calls("rangeindex.stab"), "count"),
        "rangeindex.stab_us": (per_call_us("rangeindex.stab"), "us"),
        "stopindex.build_ms": (self_ms("stopindex.build"), "ms"),
        "stopindex.calls": (calls("stopindex.query"), "count"),
        "stopindex.ms": (self_ms("stopindex.query"), "ms"),
        "treap.calls": (calls("treap.op"), "count"),
        "treap.ms": (self_ms("treap.op"), "ms"),
        "fast.init_ms": (self_ms("fast.init"), "ms"),
        "fast.sweep_self_ms": (self_ms("fast.sweep"), "ms"),
        "fast.point_wavelets": (counter("fast.point_wavelets"), "count"),
        "fast.segment_wavelets": (counter("fast.segment_wavelets"), "count"),
        "fast.narrows": (counter("fast.narrows"), "count"),
        "fast.expands": (counter("fast.expands"), "count"),
        "engine.fallbacks": (calls("engine.fallback"), "count"),
        "engine.fallback_ms": (incl_ms("engine.fallback"), "ms"),
        "engine.map_sweep_ms": (self_ms("engine.map_sweep"), "ms"),
        "engine.trace_records": (counter("engine.trace_records"), "count"),
        "spm.harvest_ms": (self_ms("spm.harvest"), "ms"),
        "spm.index_ms": (self_ms("spm.index"), "ms"),
        "spm.cells": (counter("spm.cells"), "count"),
        "spm.locate_us": (per_call_us("spm.locate"), "us"),
        "spm.witness_self_ms": (self_ms("spm.witness"), "ms"),
        "spm.parse_ms": (self_ms("spm.load"), "ms"),
        "spm.rebuild_ms": (self_ms("spm.rebuild"), "ms"),
        "pathrec.build_ms": (self_ms("pathrec.build"), "ms"),
        "pathrec.route_calls": (calls("pathrec.route"), "count"),
        "pathrec.route_ms": (self_ms("pathrec.route"), "ms"),
        "trace.spans": (per_round, "count"),
    }
    # untraced map-serving figures, from the untraced rounds
    def med(kind, div):
        vals = run.ref_ms(kind, untraced)
        return statistics.median(vals) / div if vals else 0.0

    kib = statistics.median(workload.file_bytes) / 1024 if getattr(workload, "file_bytes", None) else 0.0
    m.update(
        {
            "spm.build_s": (med("build", 1e3), "s"),
            "spm.arrival_us": (med("arrival", 1e-3), "us"),
            "spm.dump_s": (med("dump", 1e3), "s"),
            "spm.load_s": (med("load", 1e3), "s"),
            "spm.file_kib": (kib, "KiB"),
        }
    )
    plain = e2e_metrics(run, untraced)
    with_trace = e2e_metrics(run, traced)
    for name, (value, unit) in plain.items():
        m["trace.overhead." + name] = (with_trace[name][0] - value, unit)
    return m


# -- main -----------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    gc.disable()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import rectipath as rp

    workload = WORKLOADS[args.workload](rp, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out_dir = os.path.join(args.root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if isinstance(workload, SpmServe):
        workload.file = os.path.join(out_dir, stem + "-map.json")

    tracer = Tracer()
    if args.trace:
        tracer.install(rp)
    clock = RefClock()
    clock.on_sample = tracer.exclude
    gc.collect()
    gc.freeze()  # set-up objects stay out of the collections between operations
    run = Run(clock)
    answers = None
    keys = None
    nondeterministic = 0
    attempted = 0
    spans_first = 0
    traced_rounds, untraced_rounds = [], []
    clock.start()
    t_start = perf_counter()
    try:
        while perf_counter() - t_start < args.seconds or run.round < workload.min_rounds:
            traced = bool(args.trace) and run.round % 2 == 1
            tracer.enabled = traced
            r0 = perf_counter()
            got = workload.round(run)
            r1 = perf_counter()
            tracer.enabled = False
            run.rounds.append((run.round, traced, r0, r1))
            if traced:
                if tracer.keep_spans:
                    spans_first = len(tracer.sp_name)
                tracer.keep_spans = False
                traced_rounds.append(run.round)
                for kind, status, res in got:
                    if kind == "plan" and status == "ok" and hasattr(res, "stats"):
                        st = res.stats
                        tracer.count("fast.point_wavelets", st.point_wavelets)
                        tracer.count("fast.segment_wavelets", st.segment_wavelets)
                        tracer.count("fast.narrows", st.narrows)
                        tracer.count("fast.expands", st.expands)
                    if kind == "build" and status == "ok":
                        tracer.count("spm.cells", res)
            else:
                untraced_rounds.append(run.round)
            attempted += len(got)
            ks = [workload.key(status, res) for _k, status, res in got]
            if answers is None:
                answers, keys = got, ks
            else:
                nondeterministic += sum(1 for a, b in zip(keys, ks) if a != b) + abs(len(ks) - len(keys))
            run.round += 1
    finally:
        clock.stop()
        tracer.enabled = False
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks, outside the timed region --
    verdicts = workload.verdicts(answers)
    allowed = checks.KNOWN_FAULTS if isinstance(workload, PlanGated) else ()
    per_round_faults, failed, unexpected = checks.tally(verdicts, run.round, allowed)
    failed += nondeterministic
    correct = not unexpected and nondeterministic == 0

    if args.trace:
        unit_s = trimmed_mean([
            d for t, d in zip(clock.at, clock.dur)
            if any(r0 <= t <= r1 for _r, tr, r0, r1 in run.rounds if tr)
        ])
        metrics = layer_metrics(
            tracer, spans_first, len(traced_rounds), unit_s, run, workload,
            untraced_rounds, traced_rounds,
        )
    else:
        metrics = e2e_metrics(run, None)
        metrics["peak_rss_mib"] = (peak_mib, "MiB")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": run.round,
        "attempted": attempted,
        "faults_per_round": per_round_faults,
        "unexpected_faults": unexpected,
        "nondeterministic": nondeterministic,
        "peak_rss_mib": peak_mib,
        "ref_unit_ms_median": statistics.median(clock.dur) * 1e3,
        "raw_plan_ms_median": statistics.median(
            s[2] * 1e3 for s in run.samples if s[1] == "plan"
        ),
        "metrics": {k: v[0] for k, v in metrics.items()},
        # raw material for the noise study in README.md
        "clock": [[t - t_start, d] for t, d in zip(clock.at, clock.dur)],
        "ops": [[r, k, net, t0 - t_start, t1 - t_start] for r, k, net, t0, t1 in run.samples],
    }
    with open(os.path.join(out_dir, stem + "-summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(out_dir, stem + "-spans.json.gz"), summary)
    if workload_file := getattr(workload, "file", None):
        if os.path.exists(workload_file):
            os.remove(workload_file)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "faults_per_round": per_round_faults,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
