"""Run-to-run spread of the end-to-end metrics; run from the checkout root.

    python3 perfbench/study.py --workloads plan_open,plan_gated,spm_serve
        --seeds 1-10 [--seconds 20] [--label set1]

Runs perfbench/run.py once per (workload, seed), one at a time, and prints
for every metric the median of the runs and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json, plus the share of
failed operations.  All results go to perfbench/out/study-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="plan_open,plan_gated,spm_serve")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--label", default="study")
    args = ap.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = os.path.join("perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    runs = {}
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[wl].append({"seed": seed, **res})
            vals = " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items())
            )
            print("%s seed=%d correct=%s failed=%d/%d %s" % (
                wl, seed, res["correct"], res["failed"], res["attempted"], vals), flush=True)
    report = {}
    for wl, rs in runs.items():
        print("\n%s (%d runs)" % (wl, len(rs)))
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("  failed share: %s" % ", ".join("%.6f" % s for s in shares))
        report[wl] = {"failed_shares": shares, "metrics": {}}
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print("  %-14s median %12.4f  spread %6.2f%%  bound %s%s" % (
                name, med, 100 * spread, bound, flag))
            report[wl]["metrics"][name] = {"median": med, "spread": spread, "values": vals}
    with open(os.path.join(out_dir, "study-%s.json" % args.label), "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "runs": runs, "report": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
