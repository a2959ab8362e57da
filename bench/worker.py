"""One workload in one process: set up, time operations, check the outputs.

Started by ``run.py``; prints one JSON line.  Modes:

- ``setup``: set up (imports, construction, warm-up) and report the time
  from process start, given by the parent as a CLOCK_MONOTONIC reading;
- ``measure``: set up, then time whole rounds of operations for
  ``--seconds``, read the peak resident set, then check the outputs;
- ``trace``: alternate untraced and traced rounds for ``--seconds``, then
  check the outputs and turn the spans into per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import plbc  # noqa: E402  (from the checkout, see the check below)

if Path(plbc.__file__).resolve().parent != ROOT / "src" / "plbc":
    raise SystemExit("plbc imported from %s, not from this checkout" % plbc.__file__)

from workloads import WORKLOADS  # noqa: E402


class Runner:
    """Times operations in whole rounds and keeps the last output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.last = None

    def round(self) -> list[int]:
        wl = self.wl
        times = []
        for j in range(wl.per_round):
            self.last = None  # free the previous output before the next
            self.attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = wl.op(j)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.errors.append("operation %d: %r" % (j, exc))
                continue
            times.append(time.perf_counter_ns() - t0)
            wl.record(j, out)
            self.last = out
        return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--started-ns", type=int, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process started")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, out_dir)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.started_ns) / 1e9
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    run = Runner(wl)
    t_end = time.perf_counter() + args.seconds
    if args.mode == "measure":
        times = []
        while True:
            times += run.round()
            if time.perf_counter() >= t_end:
                break
        result["op_ns"] = times
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracing import Tracer

        tracer = Tracer()
        wl.trace(tracer)
        plain, traced = [], []
        while True:
            plain += run.round()
            tracer.install()
            try:
                traced += run.round()
            finally:
                tracer.remove()
            if time.perf_counter() >= t_end:
                break
        ops = len(traced)
        layers = wl.layers(tracer, ops) if ops else {}
        if plain and traced:
            layers["trace.overhead_pct"] = 100.0 * (median(traced) / median(plain) - 1.0)
        result["layers"] = layers
        result["untraced"] = tracer.missing
        result["layer_prefixes"] = wl.layer_prefixes
        summary = tracer.summary()
        summary.update(workload=args.workload, seed=args.seed, traced_ops=ops,
                       traced_op_ns=traced, untraced_op_ns=plain)
        (out_dir / ("trace-%s.json" % args.workload)).write_text(
            json.dumps(summary, indent=1) + "\n")

    result["attempted"] = run.attempted
    result["failed"] = run.failed
    result["op_errors"] = run.errors[:10]
    # the checks speak of the operations that completed
    t_check = time.perf_counter()
    result["problems"] = wl.check(run.last) if run.last is not None else []
    result["check_s"] = time.perf_counter() - t_check
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
