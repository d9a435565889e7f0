"""Steadiness check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs ``run.py`` RUNS times per workload in each of two sets, each run with
its own seed (set A uses first-seed .. first-seed+RUNS-1, set B the next
RUNS seeds), alternating A and B so that drift of the machine hits both.
For every end-to-end metric and workload it prints both medians, their
quartiles, the spread (quartile distance over median), and whether set B's
median is within the metric's bound of set A's.  It also checks that the
share of failed operations is identical in every run.  Three traced runs
per workload, spread among the others since the machine's speed drifts
over minutes, give the tracing overhead: their median wall_s against the
median untraced wall_s.  Everything is also written to
.perfbench/steady.json.  Takes about (2 * RUNS + 3) * (run_seconds + 5)
seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    report = {"run_seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        sets = {"A": [], "B": []}
        traced_walls, traced = [], None
        every = -(-args.runs // TRACED_RUNS)
        for i in range(args.runs):
            if i % every == 0:
                seed = args.first_seed + i
                traced = run_once(w, seed, seconds, 1)
                with open(os.path.join(ROOT, ".perfbench", "trace", f"{w}-seed{seed}.json"),
                          encoding="utf-8") as fh:
                    traced_walls.append(json.load(fh)["wall_s"])
            for k, name in enumerate("AB"):
                seed = args.first_seed + k * args.runs + i
                res = run_once(w, seed, seconds, 0)
                res["seed"] = seed
                sets[name].append(res)
                print(f"{w} set {name} seed {seed}: failed {res['failed']}/"
                      f"{res['attempted']} correct {res['correct']} " +
                      " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      flush=True)
        entry = {"runs": sets, "metrics": {}}
        shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
        entry["failed_share_identical"] = len(shares) == 1
        entry["all_correct"] = all(r["correct"] for s in sets.values() for r in s)
        ok &= entry["failed_share_identical"] and entry["all_correct"]
        for m in metrics:
            a = stats([r["metrics"][m["name"]]["value"] for r in sets["A"]])
            b = stats([r["metrics"][m["name"]]["value"] for r in sets["B"]])
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (b["median"] - a["median"]) / a["median"]
            agree = abs(change) <= m["bound"]
            steady = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            ok &= agree and steady
            entry["metrics"][m["name"]] = {"A": a, "B": b, "bound": m["bound"],
                                           "change": change, "agree": agree,
                                           "steady": steady}
        traced_wall = statistics.median(traced_walls)
        untraced = statistics.median(r["metrics"]["wall_s"]["value"]
                                     for s in sets.values() for r in s)
        entry["trace_overhead"] = {"traced_wall_s": traced_wall,
                                   "untraced_wall_s": untraced,
                                   "share": (traced_wall - untraced) / untraced}
        entry["traced_layers"] = traced["metrics"]
        report["workloads"][w] = entry

    print(f"\n{'workload':<15} {'metric':<12} {'median A':>10} {'q1-q3 A':>21} "
          f"{'median B':>10} {'q1-q3 B':>21} {'spread':>7} {'change':>7} {'bound':>6}  ok")
    for w, entry in report["workloads"].items():
        for m, e in entry["metrics"].items():
            a, b = e["A"], e["B"]
            print(f"{w:<15} {m:<12} {a['median']:>10.4f} {a['q1']:>10.4f}-{a['q3']:<10.4f} "
                  f"{b['median']:>10.4f} {b['q1']:>10.4f}-{b['q3']:<10.4f} "
                  f"{max(a['spread'], b['spread']):>7.3f} {e['change']:>+7.3f} "
                  f"{e['bound']:>6.2f}  {'yes' if e['agree'] and e['steady'] else 'NO'}")
        t = entry["trace_overhead"]
        print(f"{w:<15} failed share identical: {entry['failed_share_identical']}; "
              f"all correct: {entry['all_correct']}; tracing overhead "
              f"{t['share']:+.1%} ({t['untraced_wall_s']:.3f} -> {t['traced_wall_s']:.3f} s)")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
