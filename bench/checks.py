"""Checks of plbc's outputs against ``oracle``.

Each check takes plain values (ints, floats, arrays, parsed JSON) and
returns a list of problems, empty when the outputs are right, so the
self-test can hand it planted wrong outputs.  Nothing here imports plbc.
"""

from __future__ import annotations

import numpy as np

from oracle import (
    CodeOracle,
    bits_to_int,
    dense_rows,
    failure_bound,
    gf2_product,
    gf2_rank,
    pdivmod,
    pmod,
)

BOUND_REL_TOL = 1e-9
THREE_SIGMA_TAIL = 0.00135  # one-sided normal tail beyond three sigma


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def check_trial(o: CodeOracle, trial: dict) -> list[str]:
    """One write/corrupt/read trial replayed through encode/transmit/decode.

    ``trial`` holds the inputs (w, mask, vals, z: ints, z zero at stuck
    cells) and the program's outputs (c, unmasked, y, w_hat, status).
    """
    bad = []
    w, mask, vals, z = trial["w"], trial["mask"], trial["vals"], trial["z"]
    c, y, w_hat = trial["c"], trial["y"], trial["w_hat"]
    if not o.is_codeword(c):
        bad.append("written word is not a multiple of g")
    missed = ((c ^ vals) & mask).bit_count()
    if missed != trial["unmasked"]:
        bad.append("written word misses %d stuck cells, encoder reports %d"
                   % (missed, trial["unmasked"]))
    if not o.carries_message(c, w):
        bad.append("written word is not w g + d p")
    if y != ((c ^ z) & ~mask) | vals:
        bad.append("read word is not the stuck/flipped written word")
    u = mask.bit_count()
    if u <= max(o.d0 - 1, 0) and trial["unmasked"]:
        bad.append("encoder left %d cells unmasked with u=%d <= d0-1"
                   % (trial["unmasked"], u))
    if u <= max(o.d0 - 1, 0) and z.bit_count() <= o.t1:
        if w_hat != w or trial["status"] != "corrected":
            bad.append("guaranteed region (u=%d, %d errors) not decoded"
                       % (u, z.bit_count()))
    if o.k + o.l <= 16:
        near = o.codewords_within(y, o.t1)
        if len(near) == 1:
            if trial["status"] != "corrected":
                bad.append("a codeword lies within t1 but decoder says %s"
                           % trial["status"])
            elif w_hat != o.table()[near[0]]:
                bad.append("decoded message is not the nearest codeword's")
        elif not near and trial["status"] != "detected_failure":
            bad.append("no codeword within t1 but decoder says %s"
                       % trial["status"])
    return bad


def check_sim_counts(o: CodeOracle, eps: float, p: float, trials: int,
                     by_seed: dict[int, list[tuple]]) -> list[str]:
    """run_trials counts: sane, repeatable per seed, and under the bound.

    ``by_seed`` maps each operation seed to the (trials, mask, dec, joint)
    tuples of every run with that seed.  The pooled failure count over
    distinct seeds must not exceed the paper's bound by more than three
    standard errors.  With about one failure expected (n = 1023) the normal
    approximation fails several times too often, so the test is the exact
    one-sided binomial tail at the three-sigma level.
    """
    from scipy.stats import binom

    bad = []
    total = dec = 0
    for seed, runs in sorted(by_seed.items()):
        if any(r != runs[0] for r in runs):
            bad.append("seed %d gave different counts: %s" % (seed, runs))
        t, mf, df, joint = runs[0]
        if t != trials:
            bad.append("seed %d ran %d trials, asked %d" % (seed, t, trials))
        if not 0 <= joint <= min(mf, df) or max(mf, df) > t:
            bad.append("seed %d: joint %d, mask %d, dec %d of %d"
                       % (seed, joint, mf, df, t))
        total += t
        dec += df
    if total:
        bound = min(1.0, failure_bound(o.n, o.k, o.l, eps, p)["full"])
        p_value = binom.sf(dec - 1, total, bound)
        if p_value < THREE_SIGMA_TAIL:
            bad.append("failure rate %d/%d above bound %.4g (tail p %.2g)"
                       % (dec, total, bound, p_value))
    return bad


# ---------------------------------------------------------------------------
# bound-guided allocation
# ---------------------------------------------------------------------------

def check_allocation(doc: dict, tails: dict[tuple[int, int], float],
                     n: int, k: int) -> list[str]:
    """`plbc allocate` JSON against the bound recomputed by ``oracle``.

    plbc documents that it cuts each u-sum once the remaining defect tail
    is below 1e-3 of the running total.  Every value must match the sum
    cut that way to 1e-9 relative, and lie below the full sum by no more
    than the two tails left out.  ``tails`` maps (channel_id, l) to the
    tail mass the program reports for that bound; it must be the larger
    of the two.  Each channel must pick the argmin of the recomputed
    values (ties to the smallest l), and an eps = 0 channel l = 0.
    """
    bad = []
    for rep in doc["reports"]:
        cid = rep["channel_id"]
        eps, p = rep["channel"]["epsilon"], rep["channel"]["p"]
        values = {}
        for cand in rep["candidates"]:
            l, got = cand["l"], cand["metric"]
            ref = failure_bound(n, k, l, eps, p)
            values[l] = ref["truncated"]
            if abs(got - ref["truncated"]) > BOUND_REL_TOL * ref["truncated"]:
                bad.append("channel %d l=%d: bound %.12g, recomputed %.12g"
                           % (cid, l, got, ref["truncated"]))
            if not (ref["full"] * (1 - BOUND_REL_TOL) - sum(ref["tails"]) <= got
                    <= ref["full"] * (1 + BOUND_REL_TOL)):
                bad.append("channel %d l=%d: bound %.12g, full sum %.12g"
                           % (cid, l, got, ref["full"]))
            reported = tails.get((cid, l), 0.0)
            if abs(reported - max(ref["tails"])) > BOUND_REL_TOL * max(ref["tails"]):
                bad.append("channel %d l=%d: reported tail %.6g, left out %.6g"
                           % (cid, l, reported, max(ref["tails"])))
        best = min(values, key=lambda l: (values[l], l))
        if rep["best_l"] != best:
            bad.append("channel %d picks l=%d, recomputed argmin l=%d"
                       % (cid, rep["best_l"], best))
        if eps == 0.0 and rep["best_l"] != 0:
            bad.append("channel %d has eps=0 but picks l=%d" % (cid, rep["best_l"]))
    return bad


# ---------------------------------------------------------------------------
# code construction
# ---------------------------------------------------------------------------

def check_construction(o: CodeOracle, code: dict) -> list[str]:
    """A constructed code's polynomials and matrices.

    ``code`` holds the program's g, p (ints) and the packed uint64 rows of
    gen_message (G1), gen_mask (G0), parity (H) and msg_inverse (T).
    """
    bad = []
    n, xn1 = o.n, (1 << o.n) | 1
    g, p = code["g"], code["p"]
    if g != o.g:
        bad.append("g differs from the BCH generator of distance d1")
    if p != o.p:
        bad.append("p differs from (x^n - 1) / reverse(h*)")
    if pmod(xn1, g):
        bad.append("g does not divide x^n - 1")
    if pmod(p, g):
        bad.append("g does not divide p")
    if g.bit_length() - 1 != o.r:
        bad.append("deg g = %d, r = %d" % (g.bit_length() - 1, o.r))
    h, rem = pdivmod(xn1, p)
    if rem or h.bit_length() - 1 != o.l:
        bad.append("deg h* = %d, l = %d" % (h.bit_length() - 1, o.l))
    g1 = dense_rows(code["gen_message"], n)
    g0 = dense_rows(code["gen_mask"], n)
    hh = dense_rows(code["parity"], n)
    t = dense_rows(code["msg_inverse"], n)
    if g1.shape != (o.k, n) or g0.shape != (o.l, n) or t.shape != (o.k, n):
        bad.append("matrix shapes %s %s %s" % (g1.shape, g0.shape, t.shape))
        return bad
    if not np.array_equal(gf2_product(g1, t), np.eye(o.k, dtype=np.int64)):
        bad.append("G1 T^T != I")
    if o.l and gf2_product(g0, t).any():
        bad.append("G0 T^T != 0")
    if hh.shape[0] != o.r or gf2_rank([bits_to_int(r) for r in hh]) != o.r:
        bad.append("H is not %d independent rows" % o.r)
    if o.r and gf2_product(hh, np.vstack([g1, g0])).any():
        bad.append("H [G1; G0]^T != 0")
    return bad

