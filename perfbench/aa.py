#!/usr/bin/env python3
"""A/A steadiness check: two sets of runs of the same code, minutes apart.

Run from the repository root:

    python3 perfbench/aa.py --runs 10 --gap 120

Set A runs every chosen workload --runs times (seeds 1..runs), then, after
--gap seconds, set B does the same with seeds runs+1..2*runs. For every
end-to-end metric in BENCHMARK.json the tool prints each set's median and
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median,
and the shift of set B's median against set A's in the metric's worse
direction. Every run lasts run_seconds from BENCHMARK.json. A metric agrees
when both spreads and the shift are within the metric's bound; the sets
agree when every metric does and the share of failed operations is
identical in both. Raw results are saved as JSON next to the build so
`--load FILE` can print them again. Exits 1 if any metric disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s seed %d (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("run reported correct=false: %s seed %d"
                         % (workload, seed))
    return result


def run_set(workloads, seeds, seconds, label):
    out = {}
    for w in workloads:
        out[w] = []
        for seed in seeds:
            t0 = time.time()
            r = run_once(w, seed, seconds)
            out[w].append(r)
            print("[%s] %s seed %d: %.1fs wall" % (label, w, seed,
                                                  time.time() - t0),
                  file=sys.stderr, flush=True)
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def compare(bench, sets):
    ok = True
    names = ("A", "B")
    for w in sets["A"]:
        print("\n== %s ==" % w)
        for label in names:
            runs = sets[label][w]
            print("set %s: %d runs, failed %d of %d attempted"
                  % (label, len(runs), sum(r["failed"] for r in runs),
                     sum(r["attempted"] for r in runs)))
        fa = [sum(r["failed"] for r in sets[s][w]) /
              sum(r["attempted"] for r in sets[s][w]) for s in names]
        same = fa[0] == fa[1]
        print("failed share A %.9f B %.9f -> %s"
              % (fa[0], fa[1], "same" if same else "DIFFERENT"))
        ok &= same
        print("%-18s %6s | %-34s | %-34s | %8s  %s"
              % ("metric", "bound", "set A  Q1 / median / Q3 (spread)",
                 "set B  Q1 / median / Q3 (spread)", "shift", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, stats = [], []
            for label in names:
                values = [r["metrics"][name]["value"] for r in sets[label][w]]
                q1, med, q3, spread = summarize(values)
                stats.append((med, spread))
                cols.append("%.4g / %.4g / %.4g (%.3f)"
                            % (q1, med, q3, spread))
            verdict = []
            bad = False
            for label, (_, spread) in zip(names, stats):
                if spread > bound:
                    verdict.append("spread %s > bound" % label)
                    bad = True
                elif spread > bound / 3:
                    verdict.append("spread %s > bound/3" % label)
            a, b = stats[0][0], stats[1][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if worse > bound:
                verdict.append("shift > bound")
                bad = True
            ok &= not bad
            print("%-18s %6.3f | %-34s | %-34s | %+8.3f  %s"
                  % (name, bound, cols[0], cols[1], worse,
                     ", ".join(verdict) or "ok"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--gap", type=float, default=120.0,
                        help="seconds between the two sets")
    parser.add_argument("--load", default="", help="print a saved result")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.load:
        with open(args.load) as f:
            sets = json.load(f)
    else:
        workloads = ([w for w in args.workloads.split(",") if w]
                     or [w["name"] for w in bench["workloads"]])
        seconds = bench["run_seconds"]
        sets = {"A": run_set(workloads, range(1, args.runs + 1), seconds, "A")}
        time.sleep(args.gap)
        sets["B"] = run_set(workloads, range(args.runs + 1, 2 * args.runs + 1),
                            seconds, "B")
        out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"), "perfbench-aa")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "aa-%d.json" % int(time.time()))
        with open(path, "w") as f:
            json.dump(sets, f)
        print("saved raw results to %s" % path, file=sys.stderr)
    return 0 if compare(bench, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
