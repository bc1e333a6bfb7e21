#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and reports, per
workload and end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median).

Run from the repository root, for example:

    python3 perfbench/steady.py --workloads stack-null --seeds 1-5 --seconds 15

The bounds printed next to each spread come from BENCHMARK.json; a spread
under a third of its bound is steady. --json writes every run's result.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    # "# raw <metric> <value> (wall clock), host slowdown <x>" notes
    for line in lines:
        f = line.split()
        if len(f) >= 4 and f[:2] == ["#", "raw"]:
            res["metrics"][f[2] + "(raw)"] = {"value": float(f[3]), "unit": ""}
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="seed list such as 1-10 or 3,5,9")
    ap.add_argument("--seconds", type=float, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--json", help="write every run's result line here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    runs = {}
    for w in workloads:
        for seed in parse_seeds(args.seeds):
            res = run_once(w, seed, seconds, 0)
            runs.setdefault(w, []).append({"seed": seed, **res})
            ok = "ok" if res["correct"] else "WRONG"
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
            print(f"{w} seed={seed} {ok} {res['attempted']}/{res['failed']} {vals}", flush=True)

    print(f"\n{'workload':14} {'metric':17} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for w, rs in runs.items():
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)  # None for the raw wall-clock figures
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                steady = False
            print(f"{w:14} {name:17} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f} {bound!s:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    if not all(r["correct"] for rs in runs.values() for r in rs):
        sys.exit("some run failed its output check")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
