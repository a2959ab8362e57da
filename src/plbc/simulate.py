"""Monte Carlo estimation of end-to-end failure rates.

Each trial draws from its own counter-based Philox stream keyed by
(seed, stream) with the trial index in the counter block, so results are
bit-identical for any worker count and any early-stop point.  Trials are
grouped into fixed-size blocks; the early-stop rule only ever cuts at a
block boundary, in block order.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from math import sqrt
from statistics import NormalDist

import numpy as np

from .channel import ChannelParams, sample_defects, sample_errors, transmit
from .codec import PbchCode, _decode_words, _extract_message, encode
from .gf2 import BitVector, _bits_to_int

__all__ = ["BLOCK_TRIALS", "SimResult", "run_trials", "trial_rng", "wilson_interval"]

BLOCK_TRIALS = 1024


def trial_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one trial.

    The Philox key is (seed, stream) and the 256-bit counter starts at
    index * 2^192, leaving 2^192 draws per trial before any overlap.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= index < 1 << 64:
        raise ValueError("trial index must fit in 64 bits")
    if not 0 <= stream < 1 << 64:
        raise ValueError("stream must fit in 64 bits")
    key = np.array([seed, stream], dtype=np.uint64)
    counter = np.array([0, 0, 0, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def wilson_interval(failures: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError("failures must be in [0, trials]")
    z = NormalDist().inv_cdf(0.975)
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SimResult:
    """Outcome counts of a batch of write/corrupt/decode trials.

    ``trials`` is the number actually executed (early stop can leave it
    below the request, always a whole number of blocks).  A decoding
    failure is any trial whose decoded message differs from the written
    one, including miscorrections reported as 'corrected'.
    """

    trials: int
    masking_failures: int
    decoding_failures: int
    joint_mask_fail_decode_fail: int
    failure_rate: float
    ci_low: float
    ci_high: float
    seed: int
    elapsed_s: float

    @property
    def ci95(self):
        return self.ci_low, self.ci_high


def _trial_outcome(code: PbchCode, ch: ChannelParams, rng: np.random.Generator):
    """One trial; draw order is message bits, defects, errors."""
    p = code.params
    w = BitVector(p.k, _bits_to_int(rng.integers(0, 2, size=p.k, dtype=np.uint8)))
    s = sample_defects(p.n, ch, rng)
    c, mres = encode(code, w, s)
    z = sample_errors(s, ch, rng)
    y = transmit(c, s, z)
    c_hat, _, _ = _decode_words(code, y)
    # the message map sends the written codeword back to w, so reading
    # the message off is needed only when the decoder lands elsewhere
    if c_hat == c:
        return mres.unmasked > 0, False
    return mres.unmasked > 0, _extract_message(code, c_hat) != w


def _block_counts(code, ch, seed, stream, start, stop):
    # one generator for the block, reset to trial t's fresh state each
    # time: the same streams as trial_rng(seed, t, stream), built once
    rng = trial_rng(seed, start, stream)
    fresh = rng.bit_generator.state
    mask = dec = joint = 0
    for t in range(start, stop):
        fresh["state"]["counter"][3] = t
        rng.bit_generator.state = fresh
        mf, df = _trial_outcome(code, ch, rng)
        mask += mf
        dec += df
        joint += mf and df
    return mask, dec, joint


_worker_ctx = None


def _init_worker(code, ch, seed, stream):
    global _worker_ctx
    _worker_ctx = (code, ch, seed, stream)


def _worker_block(bounds):
    code, ch, seed, stream = _worker_ctx
    return _block_counts(code, ch, seed, stream, *bounds)


def _worker_count(threads: int, blocks: int) -> int:
    """Worker processes to start: at most one per block and one per core.

    A process pool forks all its workers at the first submit, so asking
    for more than there are blocks or cores only adds idle processes.
    """
    return max(1, min(threads, blocks, os.cpu_count() or 1))


def _block_results(code, ch, seed, stream, blocks, workers):
    """Each block's counts in block order, computed here or by a pool."""
    if workers == 1:
        for lo, hi in blocks:
            yield _block_counts(code, ch, seed, stream, lo, hi)
        return
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(code, ch, seed, stream),
    )
    try:
        futures = [pool.submit(_worker_block, b) for b in blocks]
        for fut in futures:
            yield fut.result()
    finally:
        # an early stop leaves blocks queued: drop them, do not run them
        pool.shutdown(cancel_futures=True)


def run_trials(
    code: PbchCode,
    ch: ChannelParams,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
    stop_after_failures: int | None = None,
    stream: int = 0,
) -> SimResult:
    """Estimate masking and decoding failure rates over random trials.

    ``stop_after_failures`` ends the run once that many decoding failures
    have accumulated, checked at block boundaries in block order so the
    result does not depend on ``threads``.  None or 0 disables it.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if threads < 1:
        raise ValueError("threads must be positive")
    if stop_after_failures is not None and stop_after_failures < 0:
        raise ValueError("stop_after_failures must be nonnegative")
    stop_at = stop_after_failures or 0
    blocks = [
        (lo, min(lo + BLOCK_TRIALS, trials))
        for lo in range(0, trials, BLOCK_TRIALS)
    ]
    t0 = time.perf_counter()
    mask = dec = joint = executed = 0
    workers = _worker_count(threads, len(blocks))
    with closing(_block_results(code, ch, seed, stream, blocks, workers)) as counts:
        for (lo, hi), (bm, bd, bj) in zip(blocks, counts):
            mask += bm
            dec += bd
            joint += bj
            executed = hi
            if stop_at and dec >= stop_at:
                break
    elapsed = time.perf_counter() - t0
    lo_ci, hi_ci = wilson_interval(dec, executed)
    return SimResult(
        trials=executed,
        masking_failures=mask,
        decoding_failures=dec,
        joint_mask_fail_decode_fail=joint,
        failure_rate=dec / executed,
        ci_low=lo_ci,
        ci_high=hi_ci,
        seed=seed,
        elapsed_s=elapsed,
    )
