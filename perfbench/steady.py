#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly, each run with another
seed, and prints for every end-to-end metric and workload the median, the
quartiles, the run count and the spread (interquartile range over median,
as statistics.quantiles(values, n=4) gives the quartiles), next to the
bound BENCHMARK.json sets. With --sets 2 it runs the seeds twice and also
reports how far the second median lies from the first.

    python3 perfbench/steady.py --runs 10 [--workload hot_mix] [--sets 2]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError("%s seed %d: run failed" % (workload, seed))
    return {n: m["value"] for n, m in result["metrics"].items()}


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for w in workloads:
        sets = []
        for _ in range(args.sets):
            runs = [one_run(w, 1 + i) for i in range(args.runs)]
            sets.append({n: dict(describe([r[n] for r in runs]),
                                 values=[r[n] for r in runs])
                         for n in bounds})
        print("== %s (%d runs x %d sets)" % (w, args.runs, args.sets))
        for n, bound in bounds.items():
            first = sets[0][n]
            line = "  %-18s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f" \
                   "  bound %.2f" % (n, first["median"], first["q1"],
                                     first["q3"], first["spread"], bound)
            if first["spread"] > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            elif first["spread"] > bound / 3:
                line += "  (over a third of the bound)"
            for s in sets[1:]:
                m0, m1 = first["median"], s[n]["median"]
                worse = (m1 - m0) / m0 if better[n] == "lower" else (m0 - m1) / m0
                line += "  | set median %12.6g spread %6.3f (worse by %+.3f)" % (
                    m1, s[n]["spread"], worse)
                if s[n]["spread"] > bound:
                    line += " SPREAD OVER BOUND"
                    ok = False
                if worse > bound:
                    line += " DRIFT OVER BOUND"
                    ok = False
            print(line, flush=True)
            print("      runs: " + " ".join("%.4g" % v for v in first["values"]),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
