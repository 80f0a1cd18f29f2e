#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload, in alternating pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR --workload W --pairs N

PARENT and CHANGE are checkouts of the two commits (for example made with
`git archive COMMIT | tar -x -C DIR`). Each pair runs
`python3 perfbench/run.py --workload W --seed K --seconds S --trace 0` once
in each checkout, with the same seed K = 1 + pair index and the run length
S that BENCHMARK.json sets (`run_seconds`). Even pairs run the
parent first and odd pairs the change first, so that a drift of the host
during the runs falls on both sides alike.

For every end-to-end metric that BENCHMARK.json declares (read from the
change checkout), it prints the parent's and the change's medians, the
parent's interquartile range, the relative move of the median, whether that
move is worse than the metric's bound, and in how many pairs the change
was the better side. A metric whose parent IQR is wider than its bound
cannot be judged from these runs: unless the change beat the parent in
every pair, it is reported as unresolved, not as unchanged. It also prints
each side's failed operations. The exit status is 1 when a metric is worse
than its bound, the change fails a larger share of its operations, or a
run reported incorrect output; otherwise 0.

Stdlib only. Every run takes S seconds plus its set-up and build, so four
pairs of a 10-second workload take a few minutes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.exit("perf_pairs: %s in %s exited %d" % (" ".join(cmd), root, r.returncode))
    return json.loads(lines[-1])


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=4)
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    results = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_side(roots[side], args.workload, 1 + k, seconds)
            results[side].append(res)
            print("pair %d %-6s correct=%s failed=%s/%s" % (
                k + 1, side, res.get("correct"), res.get("failed"), res.get("attempted")),
                file=sys.stderr, flush=True)

    bad = False
    print("%s, %d pairs of %d s runs (seeds 1..%d)" % (
        args.workload, args.pairs, seconds, args.pairs))
    print("%-12s %12s %12s %10s %8s %6s  %s" % (
        "metric", "parent", "change", "parent IQR", "move", "wins", "verdict"))
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r["metrics"][name]["value"] for r in results["parent"] if name in r["metrics"]]
        cv = [r["metrics"][name]["value"] for r in results["change"] if name in r["metrics"]]
        if len(pv) != args.pairs or len(cv) != args.pairs:
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        move = (cm - pm) / pm if pm else 0.0
        worse = move if lower else -move
        wins = sum(1 for p, c in zip(pv, cv) if (c < p if lower else c > p))
        if worse > m["bound"]:
            verdict = "WORSE than its bound %.2f" % m["bound"]
            bad = True
        elif pm and iqr(pv) / abs(pm) > m["bound"] and wins < args.pairs:
            verdict = "unresolved (spread wider than the bound)"
        elif abs(cm - pm) <= iqr(pv):
            verdict = "inside the parent's spread"
        elif worse > 0:
            verdict = "worse, outside the spread, inside the bound"
        else:
            verdict = "better, outside the spread"
        print("%-12s %12.4g %12.4g %10.3g %+7.1f%% %3d/%d  %s" % (
            name, pm, cm, iqr(pv), 100 * move, wins, args.pairs, verdict))
    share = {}
    for side in ("parent", "change"):
        failed = sum(r.get("failed", 0) for r in results[side])
        attempted = sum(r.get("attempted", 0) for r in results[side])
        correct = all(r.get("correct") for r in results[side])
        print("%s: %d of %d operations failed; output correct in every run: %s" % (
            side, failed, attempted, correct))
        share[side] = failed / max(1, attempted)
        bad = bad or not correct
    if share["change"] > share["parent"]:
        print("the change fails a larger share of operations")
        bad = True
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
