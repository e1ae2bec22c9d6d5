#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, compared against the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py                       # every workload, 2 x 10 runs
    python3 perfbench/steady.py --workloads abtree-batch --runs 5 --sets 1

Each run uses its own seed. For every end-to-end metric the script prints,
per set, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median. A set passes when every spread except
setup_s's is within the metric's bound; two sets agree when no median of
the second set is worse than the first's by more than the bound and the
share of failed operations is the same. Raw results are saved under
.bench_build/perfbench/. Exits 1 when a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s seed %d\n%s"
                         % (p.returncode, workload, seed, p.stdout))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    raw = {}
    ok = True
    seed = args.first_seed
    for wl in args.workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                results.append(run_once(wl, seed, args.seconds))
                seed += 1
            sets.append(results)
        raw[wl] = sets
        print("\n== %s (%d x %d runs, %gs)" % (wl, args.sets, args.runs, args.seconds))
        print("%-18s %4s %12s %12s %12s %8s %6s" %
              ("metric", "set", "median", "q1", "q3", "spread", "bound"))
        medians = []
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for i, results in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, spread = summarize(vals)
                meds.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag = "  SPREAD > bound"
                    ok = False
                elif name != "setup_s" and spread > bound / 3:
                    flag = "  spread > bound/3"
                print("%-18s %4d %12.6g %12.6g %12.6g %8.4f %6.3f%s" %
                      (name, i + 1, med, q1, q3, spread, bound, flag))
            medians.append(meds)
            for i in range(1, len(meds)):
                worse = (meds[i] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                if worse > bound:
                    print("%-18s set %d median worse than set 1 by %.4f > %.3f" %
                          (name, i + 1, worse, bound))
                    ok = False
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        correct = all(r["correct"] for results in sets for r in results)
        print("failed share(s): %s; all correct: %s" % (sorted(shares), correct))
        if len(shares) != 1 or not correct:
            ok = False

    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "steady-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump({"seconds": args.seconds, "results": raw}, f)
    print("\nraw results: %s\n%s" % (os.path.relpath(out, ROOT),
                                    "STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
