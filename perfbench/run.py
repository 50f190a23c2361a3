#!/usr/bin/env python3
"""The repository benchmark.

Builds the program and the load driver from source (perfbench/CMakeLists.txt
compiles ../src into .bench_build/), runs one workload, checks every answer
and prints each metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end set, with --trace 1 its
per_layer set.

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every declared workload
    python3 perfbench/run.py --workload hot_mix --seed 1    # an ungated workload

Exit codes: 0 ok, 1 a wrong answer (the result line is still printed),
2 the build or the driver failed (no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
# Workloads run.py runs by name that BENCHMARK.json does not declare, so
# no gate rests on them; `--workload all` leaves them out. On a shared
# host their timings move by a third from minute to minute (README.md,
# Steadiness): hot_mix's are bound by system calls, parallel_sweep's by
# nproc threads that all have to be running.
UNGATED = ["hot_mix", "parallel_sweep"]


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; raises on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(nproc())],
                   check=True, stdout=sys.stderr, timeout=850)
    return DRIVER


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace):
    """Runs one workload in a fresh work directory; returns the driver's
    result object and exit code."""
    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if workload == "hot_mix" or trace:
            # The store pre-fill runs in its own process: it is not part
            # of the measured run (setup_s excludes it, peak RSS too).
            subprocess.run([DRIVER, "prefill", "--seed", str(seed), "--store",
                            os.path.join(work, "prefill")],
                           check=True, timeout=RUN_TIMEOUT_S)
        proc = subprocess.run(
            [DRIVER, "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--work", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result (exit %d)" % proc.returncode)
    return json.loads(lines[-1]), proc.returncode


def summarize(workload, result, declared):
    print("== %s: correct=%s attempted=%d failed=%d" % (
        workload, result["correct"], result["attempted"], result["failed"]))
    for name, m in result["metrics"].items():
        tag = "" if name in declared else "  (summary only)"
        samples = " n=%d" % m["samples"] if m.get("samples") else ""
        print("  %-36s %14.6g %-6s%s%s" % (name, m["value"], m["unit"],
                                           samples, tag))


def select(result, declared):
    """The contract's result object: exactly the declared metrics."""
    missing = [n for n in declared if n not in result["metrics"]]
    if missing:
        raise RuntimeError("driver did not report declared metrics: %s" %
                           ", ".join(missing))
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in declared},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        if args.trace and args.workload == "all":
            # The traced run replays every workload whichever is named,
            # so its per-layer set is the same for each: run it once.
            workloads = names[:1]
        if any(w not in names + UNGATED for w in workloads):
            log("unknown workload %r; known: %s" % (
                args.workload, ", ".join(names + UNGATED)))
            return 2
        seconds = args.seconds if args.seconds else spec["run_seconds"]
        key = "per_layer" if args.trace else "end_to_end"
        declared = [m["name"] for m in spec[key]]
        build()
        outs, code = [], 0
        for w in workloads:
            result, rc = run_driver(w, args.seed, seconds, args.trace == 1)
            summarize("traced run" if args.trace else w, result, declared)
            outs.append(select(result, declared))
            if rc != 0 or not result["correct"]:
                code = 1
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2

    if len(outs) == 1:
        final = outs[0]
    else:
        final = {
            "correct": all(o["correct"] for o in outs),
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "metrics": {"%s.%s" % (w, n): m for w, o in zip(workloads, outs)
                        for n, m in o["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
