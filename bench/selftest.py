"""Self-test of the benchmark's checks: each must pass on the program's real
outputs and fail on a planted wrong one.

Run from the root of a checkout (about 10 s):

    python3 bench/selftest.py

Exit status 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import (  # noqa: E402
    check_allocation,
    check_construction,
    check_sim_counts,
    check_trial,
)
from oracle import CodeOracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = BENCH / "_out"
results: list[tuple[str, bool]] = []


def expect(label: str, problems: list[str], planted: bool) -> None:
    ok = bool(problems) == planted
    results.append((label, ok))
    what = problems[0] if problems else "no problem found"
    print("%s  %s: %s" % ("ok  " if ok else "FAIL", label, what))


def sim_trials() -> None:
    for name in ("sim-n15", "sim-n1023"):
        wl = WORKLOADS[name]()
        wl.replay = 64
        wl.setup(7, OUT_DIR)
        o = CodeOracle(wl.n, wl.k, wl.l, wl.code.field.primitive_poly)
        trials = list(wl._replay())
        expect("%s: 64 replayed trials" % name,
               [p for t in trials for p in check_trial(o, t)], planted=False)
        # a trial the decoder must get right: inside the guaranteed region
        t = next(t for t in trials if t["mask"].bit_count() < o.d0
                 and t["z"].bit_count() <= o.t1)
        expect("%s: one flipped bit in a decoded message" % name,
               check_trial(o, dict(t, w_hat=t["w_hat"] ^ 1)), planted=True)
        expect("%s: one flipped bit in a written word" % name,
               check_trial(o, dict(t, c=t["c"] ^ 2)), planted=True)

        res = wl.op(0)
        counts = (res.trials, res.masking_failures, res.decoding_failures,
                  res.joint_mask_fail_decode_fail)
        args = (o, wl.eps, wl.p, wl.trials)
        expect("%s: run_trials counts" % name,
               check_sim_counts(*args, {wl.seeds[0]: [counts, counts]}), planted=False)
        other = counts[:2] + (counts[2] + 1, counts[3])
        expect("%s: a repeat of one seed with another count" % name,
               check_sim_counts(*args, {wl.seeds[0]: [counts, other]}), planted=True)
        expect("%s: failures far above the bound" % name,
               check_sim_counts(*args, {1: [(wl.trials, wl.trials, wl.trials, wl.trials)]}),
               planted=True)


def allocation() -> None:
    wl = WORKLOADS["allocate-table2"]()
    wl.setup(0, OUT_DIR)
    wl.op(0)
    doc = json.loads(wl.path.read_text())
    tails = wl._tails(doc)
    expect("allocate-table2: 77 bounds", check_allocation(doc, tails, wl.n, wl.k),
           planted=False)
    # a truncated (general regime) value 1e-6 off either way, and an exact
    # (epsilon = 0) value 1e-6 too low
    for cid, l, factor in ((4, 20, 1 + 1e-6), (4, 20, 1 - 1e-6), (1, 20, 1 - 1e-6)):
        bad = copy.deepcopy(doc)
        rep = next(r for r in bad["reports"] if r["channel_id"] == cid)
        cand = next(c for c in rep["candidates"] if c["l"] == l)
        cand["metric"] *= factor
        expect("allocate-table2: channel %d l=%d bound off by %+.0e" % (cid, l, factor - 1),
               check_allocation(bad, tails, wl.n, wl.k), planted=True)
    expect("allocate-table2: channel 4 l=20 reported tail off by +1e-6",
           check_allocation(doc, tails | {(4, 20): tails[(4, 20)] * (1 + 1e-6)},
                            wl.n, wl.k), planted=True)
    bad = copy.deepcopy(doc)
    rep = next(r for r in bad["reports"] if r["channel_id"] == 4)
    rep["best_l"] = 30
    expect("allocate-table2: channel 4 picks a worse l",
           check_allocation(bad, tails, wl.n, wl.k), planted=True)


def construction() -> None:
    wl = WORKLOADS["construct-n2047"]()
    wl.setup(0, OUT_DIR)
    code = wl.op(0)
    o = CodeOracle(wl.n, wl.k, wl.l, code.field.primitive_poly)
    out = {
        "g": code.g_poly, "p": code.p_poly,
        "gen_message": code.gen_message.words, "gen_mask": code.gen_mask.words,
        "parity": code.parity.words, "msg_inverse": code.msg_inverse.words,
    }
    expect("construct-n2047: code", check_construction(o, out), planted=False)
    for row, bit in ((0, 0), (1000, 1500)):
        inv = out["msg_inverse"].copy()
        inv[row, bit >> 6] ^= inv.dtype.type(1 << (bit & 63))
        expect("construct-n2047: message inverse bit (%d, %d) flipped" % (row, bit),
               check_construction(o, dict(out, msg_inverse=inv)), planted=True)
    expect("construct-n2047: g times x",
           check_construction(o, dict(out, g=out["g"] << 1)), planted=True)


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    sim_trials()
    allocation()
    construction()
    failed = [label for label, ok in results if not ok]
    print("%d of %d self-test checks behave" % (len(results) - len(failed), len(results)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
