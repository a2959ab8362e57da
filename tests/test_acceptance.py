"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
runtime budget, and prints exactly one ``[criterion NN] name: PASS/FAIL``
line (visible under ``pytest -s``).  Expected values are frozen from
independent oracles; none are tuned to the implementation.
"""

import itertools
import math
import time

import numpy as np
import pytest

from plbc import (
    BitVector,
    ChannelParams,
    DefectVector,
    allocate,
    decode,
    decoding_failure_bound,
    encode,
    params_for,
    run_trials,
    transmit,
    weight_distribution,
    wilson_interval,
)
from plbc.cli import TABLE2_CHANNELS, main

N_BIG, K_BIG = 1023, 923

EXPECTED_CANDIDATES = [
    (0, 100, 0, 21),
    (10, 90, 3, 19),
    (20, 80, 5, 17),
    (30, 70, 7, 15),
    (40, 60, 9, 13),
    (50, 50, 11, 11),
    (60, 40, 13, 9),
    (70, 30, 15, 7),
    (80, 20, 17, 5),
    (90, 10, 19, 3),
    (100, 0, 21, 0),
]

EXPECTED_CMAX = (0.9624, 0.9686, 0.9719, 0.9753, 0.9827, 0.9868, 0.9920)


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _int_rank(vals) -> int:
    """GF(2) rank of small integers viewed as bit-rows (independent oracle)."""
    basis = []
    for v in vals:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def test_criterion_01_candidate_family_enumeration(capsys):
    t0 = time.monotonic()
    rc = main(["candidates", "--n", "1023", "--k", "923"])
    out = capsys.readouterr().out
    dt = time.monotonic() - t0
    rows = [
        tuple(int(x) for x in line.split(",")[1:])
        for line in out.strip().splitlines()[2:]
    ]
    ok = rc == 0 and rows == EXPECTED_CANDIDATES and dt < 1.0
    with capsys.disabled():
        assert _criterion(
            1, "candidate-family-enumeration", ok, f"{len(rows)} rows in {dt:.2f}s"
        ), f"rows={rows}"


def test_criterion_02_channel_capacity_values(capsys):
    t0 = time.monotonic()
    rc = main(["capacity", "--preset", "table2"])
    out = capsys.readouterr().out
    dt = time.monotonic() - t0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    c_min = [float(r[4]) for r in rows]
    c_max = [float(r[5]) for r in rows]
    ok = (
        rc == 0
        and len(rows) == 7
        and all(abs(v - 0.9624) < 5e-4 for v in c_min)
        and all(abs(v - w) < 5e-4 for v, w in zip(c_max, EXPECTED_CMAX))
        and dt < 1.0
    )
    with capsys.disabled():
        assert _criterion(
            2, "channel-capacity-values", ok, f"7 channels in {dt:.2f}s"
        ), f"c_min={c_min} c_max={c_max}"


def test_criterion_03_bound_guided_allocation(capsys):
    t0 = time.monotonic()
    best = [
        allocate(N_BIG, K_BIG, ChannelParams(eps, p)).best.candidate.l
        for _, (eps, p) in sorted(TABLE2_CHANNELS.items())
    ]
    dt = time.monotonic() - t0
    want_fixed = {0: 0, 1: 10, 3: 20, 4: 30, 5: 30, 6: 100}
    ok = (
        all(best[i] == v for i, v in want_fixed.items())
        and best[2] in (10, 20)
        and dt < 30.0
    )
    with capsys.disabled():
        assert _criterion(
            3, "bound-guided-allocation", ok, f"best l = {best} in {dt:.1f}s"
        ), f"best={best}"


def test_criterion_04_boundary_allocation_optima(capsys):
    t0 = time.monotonic()
    got = [
        allocate(N_BIG, K_BIG, ChannelParams(0.0, 4e-3)).best.candidate.l,
        allocate(N_BIG, K_BIG, ChannelParams(8e-3, 0.0)).best.candidate.l,
        allocate(15, 7, ChannelParams(0.0, 0.01)).best.candidate.l,
        allocate(15, 7, ChannelParams(0.3, 0.0)).best.candidate.l,
    ]
    dt = time.monotonic() - t0
    ok = got == [0, N_BIG - K_BIG, 0, 8] and dt < 10.0
    with capsys.disabled():
        assert _criterion(
            4, "boundary-allocation-optima", ok,
            f"error-only l={got[0]},{got[2]}; defect-only l={got[1]},{got[3]}; {dt:.1f}s",
        ), f"got={got}"


def test_criterion_05_exhaustive_guaranteed_region(capsys, code15):
    t0 = time.monotonic()
    n, k = 15, 7
    zero = BitVector(n)
    small_configs = [
        (pos, vals)
        for u in (0, 1, 2)
        for pos in itertools.combinations(range(n), u)
        for vals in itertools.product((0, 1), repeat=u)
    ]
    checked = failures = 0
    for wi in range(1 << k):
        w = BitVector.from_int(k, wi)
        for pos, vals in small_configs:
            s = DefectVector.from_positions(n, pos, vals)
            x, mres = encode(code15, w, s)
            if mres.unmasked:
                failures += 1
                continue
            variants = [zero]
            variants += [
                BitVector.from_indices(n, [e]) for e in range(n) if e not in pos
            ]
            for z in variants:
                checked += 1
                if decode(code15, transmit(x, s, z)).w_hat != w:
                    failures += 1
    # three stuck cells exceed step-1 guarantees; fallback masking plus the
    # error corrector must still recover every message when t = 0
    for pos in itertools.combinations(range(n), 3):
        for vals in itertools.product((0, 1), repeat=3):
            s = DefectVector.from_positions(n, pos, vals)
            for wi in range(1 << k):
                w = BitVector.from_int(k, wi)
                x, _ = encode(code15, w, s)
                checked += 1
                if decode(code15, transmit(x, s, zero)).w_hat != w:
                    failures += 1
    dt = time.monotonic() - t0
    ok = failures == 0 and dt < 300.0
    with capsys.disabled():
        assert _criterion(
            5, "exhaustive-guaranteed-region", ok,
            f"{checked} decodes, {failures} failures, {dt:.0f}s",
        ), f"failures={failures}"


def test_criterion_06_masking_failure_oracle(capsys, code15):
    t0 = time.monotonic()
    eps, n = 0.3, 15
    rows = code15.gen_mask.row_ints()
    cols = [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(n)]

    # exact failure probability: sum over all defect-position patterns of
    # P(pattern) * #(stuck-value assignments with no consistent mask word)
    p_exact = 0.0
    for pattern in range(1 << n):
        idx = [i for i in range(n) if pattern >> i & 1]
        u = len(idx)
        bad = (1 << u) - (1 << _int_rank(cols[i] for i in idx))
        if bad:
            p_exact += (eps / 2) ** u * (1 - eps) ** (n - u) * bad

    # the count above is message-independent; verify that exhaustively for
    # every message at the lightest failing weight (u = 3)
    affine_ok = True
    for pos in itertools.combinations(range(n), 3):
        want_bad = 8 - (1 << _int_rank(cols[i] for i in pos))
        for wi in range(1 << 7):
            w = BitVector.from_int(7, wi)
            bad = 0
            for vals in itertools.product((0, 1), repeat=3):
                s = DefectVector.from_positions(n, pos, vals)
                _, mres = encode(code15, w, s)
                bad += mres.unmasked > 0
            if bad != want_bad:
                affine_ok = False

    trials = 100_000
    res = run_trials(code15, ChannelParams(eps, 0.0), trials, seed=2026, threads=4)
    mc_rate = res.masking_failures / res.trials
    lo, hi = wilson_interval(round(p_exact * trials), trials)
    dt = time.monotonic() - t0
    ok = (
        affine_ok
        and abs(p_exact - 0.3862931058) < 1e-9
        and lo <= mc_rate <= hi
        and dt < 120.0
    )
    with capsys.disabled():
        assert _criterion(
            6, "masking-failure-oracle", ok,
            f"exact={p_exact:.6f} mc={mc_rate:.5f} wilson=({lo:.5f},{hi:.5f}) {dt:.0f}s",
        ), f"exact={p_exact!r} mc={mc_rate!r} affine_ok={affine_ok}"


def test_criterion_07_bound_dominates_simulation(capsys, code15, code1023_l20):
    t0 = time.monotonic()
    wd15 = weight_distribution(15, 4, 3, "exact-enumeration")
    wd_big = weight_distribution(1023, 20, 5, "macwilliams")
    cases = [
        (code15, wd15, ChannelParams(eps, p))
        for eps in (0.05, 0.1)
        for p in (0.01, 0.02)
    ]
    cases.append((code1023_l20, wd_big, ChannelParams(4e-3, 2e-3)))
    trials = 100_000
    ok = True
    lines = []
    for code, wd, ch in cases:
        bound = decoding_failure_bound(code.params, wd, ch).total
        res = run_trials(code, ch, trials, seed=777, threads=4)
        rate = res.decoding_failures / res.trials
        sigma = math.sqrt(rate * (1.0 - rate) / res.trials)
        ok &= rate - 3.0 * sigma <= bound
        lines.append(
            f"n={code.params.n} eps={ch.epsilon:g} p={ch.p:g}: "
            f"rate={rate:.5f} sigma={sigma:.2g} bound={bound:.5f}"
        )
    dt = time.monotonic() - t0
    ok &= dt < 900.0
    with capsys.disabled():
        assert _criterion(
            7, "bound-dominates-simulation", ok, f"5 cases in {dt:.0f}s"
        ), "\n".join(lines)


def test_criterion_08_regime_reduction_identities(capsys):
    t0 = time.monotonic()
    params20 = params_for(N_BIG, K_BIG, 20)
    wd = weight_distribution(N_BIG, 20, 5, "binomial-approx")
    b_gen = decoding_failure_bound(params20, wd, ChannelParams(1e-15, 2e-3))
    b_eps0 = decoding_failure_bound(params20, wd, ChannelParams(0.0, 2e-3))
    rel_eps = abs(b_gen.total - b_eps0.total) / b_eps0.total

    # Channel 1 (epsilon=0, p) and channel 7 (epsilon=2p, p=0) have the same
    # equivalent crossover rate p_tilde, so the epsilon-zero branch on one and
    # the l-zero branch on the other must give the same l=0 bound.
    params0 = params_for(N_BIG, K_BIG, 0)
    ch1 = ChannelParams(*TABLE2_CHANNELS[1])
    ch7 = ChannelParams(*TABLE2_CHANNELS[7])
    assert ch1.epsilon == 0.0
    assert ch7.p_tilde == ch1.p
    b1 = decoding_failure_bound(params0, None, ch1)
    b7 = decoding_failure_bound(params0, None, ch7)
    assert b1.regime == "epsilon-zero"
    assert b7.regime == "l-zero"
    rel_l0 = abs(b1.total - b7.total) / max(b1.total, b7.total)

    dt = time.monotonic() - t0
    part1 = b_gen.regime == "general" and rel_eps < 1e-9
    part2 = rel_l0 < 1e-6
    ok = part1 and part2 and dt < 1.0
    with capsys.disabled():
        assert _criterion(
            8, "regime-reduction-identities", ok,
            f"eps->0 rel={rel_eps:.2e}; l=0 ch1-vs-ch7 rel={rel_l0:.2e}",
        ), (
            f"part1 eps->0: regime {b_gen.regime!r}, rel {rel_eps!r} "
            f"(limit 1e-9) -> {part1}; "
            f"part2 l=0: regimes {b1.regime!r} vs {b7.regime!r}, p_tilde "
            f"{ch1.p_tilde!r} vs {ch7.p_tilde!r}, totals {b1.total!r} vs "
            f"{b7.total!r}, rel {rel_l0!r} (limit 1e-6) -> {part2}; "
            f"dt {dt:.3f}s (limit 1.0s)"
        )


def test_criterion_09_weight_distribution_equivalence(capsys):
    t0 = time.monotonic()
    ok = True
    for l, d0 in ((4, 3), (8, 5)):
        wd_enum = weight_distribution(15, l, d0, "exact-enumeration")
        wd_mac = weight_distribution(15, l, d0, "macwilliams")
        ok &= np.array_equal(wd_enum.counts, wd_mac.counts)
    ok &= weight_distribution(15, 4, 3, "macwilliams").counts[3] == 35
    dt = time.monotonic() - t0
    ok &= dt < 60.0
    with capsys.disabled():
        assert _criterion(
            9, "weight-distribution-equivalence", ok,
            f"dims 11 and 7, all weights, {dt:.1f}s",
        )


def test_criterion_10_multithreaded_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    ok = True
    for tag, argv, trials in (
        ("small", ["--n", "15", "--k", "7", "--l", "4"], "8192"),
        ("large", ["--n", "1023", "--k", "923", "--l", "20"], "2048"),
    ):
        files = []
        for threads in ("1", "8"):
            f = tmp_path / f"{tag}-t{threads}.csv"
            rc = main(
                ["simulate", *argv, "--epsilon", "0.1", "--p", "0.02",
                 "--trials", trials, "--seed", "42", "--threads", threads,
                 "--out", str(f)]
            )
            ok &= rc == 0
            files.append(f)
        ok &= files[0].read_bytes() == files[1].read_bytes()
    capsys.readouterr()
    dt = time.monotonic() - t0
    ok &= dt < 120.0
    with capsys.disabled():
        assert _criterion(
            10, "multithreaded-determinism", ok,
            f"threads 1 vs 8 byte-identical, {dt:.0f}s",
        )
