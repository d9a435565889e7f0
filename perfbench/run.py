"""Benchmark of cellwlan: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a fresh
child process (``workloads.py``) with one BLAS thread, so it is a single
closed-loop caller; this parent only times the child's start and prints
the result.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Spans of a traced run go to ``.perfbench/trace/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("small-networks", "large-grid", "short-flows", "sim-validation")
CHILD_TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cellwlan", "__init__.py")):
        print(f"no cellwlan sources under {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    trace_file = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--trace-file", trace_file]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"workload process exited {proc.returncode}", file=sys.stderr)
        return 4
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = child["layers"]
    else:
        metrics = {
            "setup_s": {"value": child["t_first"] - t_spawn, "unit": "s"},
            "wall_s": {"value": child["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
