"""Benchmark of plbc: simulation, bound-guided allocation, code construction.

Run from the root of a checkout:

    python3 bench/run.py --workload sim-n1023 --seed 1 --seconds 20 --trace 0

Each workload runs in child processes with one thread (``worker.py``),
which import plbc from ``src/`` of this checkout.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
``op_ms`` (median wall time of one operation), ``setup_s`` (median over
SETUP_RUNS processes of the time from process start to the first timed
operation) and ``peak_rss_mb`` (peak resident set of the process that timed
the operations).  With ``--trace 1`` it holds the per-layer metrics of
``tracing.PER_LAYER`` from a run whose traced rounds alternate with
untraced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "_out"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150.0


def _child(args, mode: str, seconds: float, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PLBC_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every run
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--out-dir", str(OUT_DIR)]
    timeout = max(1.0, deadline - time.monotonic())
    started = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--started-ns", str(started)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with %d" % (mode, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s worker printed nothing" % mode)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "plbc" / "__init__.py").is_file():
        print("no plbc sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if args.trace:
        res = _child(args, "trace", args.seconds, deadline)
        layers = res["layers"]
        # a layer this workload's operations do not reach reads 0; a metric
        # of its own layers that could not be taken is left out and named
        own = tuple(res["layer_prefixes"])
        metrics, skipped = {}, []
        for name, unit in PER_LAYER.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
            elif name.startswith(own) or name == "trace.overhead_pct":
                skipped.append(name)
            else:
                metrics[name] = {"value": 0.0, "unit": unit}
        if skipped:
            print("not measured: %s (names not found: %s)"
                  % (", ".join(skipped), ", ".join(res["untraced"]) or "none"))
        print("%s traced run: %d operations, overhead %.1f%%, checks %.2f s"
              % (args.workload, res["attempted"],
                 layers.get("trace.overhead_pct", float("nan")), res["check_s"]))
    else:
        setups = [_child(args, "setup", 0.0, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = _child(args, "measure", args.seconds, deadline)
        setups.append(res["setup_s"])
        op_ms = median(res["op_ns"]) / 1e6 if res["op_ns"] else float("nan")
        metrics = {
            "op_ms": {"value": op_ms, "unit": "ms"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MiB"},
        }
        print("%s: op_ms %.3f over %d operations, setup_s %s, checks %.2f s"
              % (args.workload, op_ms, len(res["op_ns"]),
                 " ".join("%.3f" % s for s in setups), res["check_s"]))
    for err in res["op_errors"]:
        print("failed operation: %s" % err, file=sys.stderr)
    for prob in res["problems"]:
        print("CHECK FAILED: %s" % prob, file=sys.stderr)
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
