"""Monte Carlo estimation of end-to-end failure rates.

Each trial draws from its own counter-based Philox stream keyed by
(seed, stream) with the trial index in the counter block, so results are
bit-identical for any worker count and any early-stop point.  Trials are
grouped into fixed-size blocks; the early-stop rule only ever cuts at a
block boundary, in block order.

A trial's draws are, in order, its k message bits
(``integers(0, 2, k, uint8)``), its defects (``sample_defects``) and its
errors (``sample_errors``).  A block does not make these numpy calls: it
takes each trial's first W raw 64-bit Philox words with one ``random_raw``
call and maps them to the same draws in whole-array passes (``_draws``), a
fixed map that mirrors numpy's own.  numpy does not promise that
``Generator`` methods keep their streams across versions (NEP 19); the
test that compares ``_draws`` with the numpy calls is what catches a
change there.  A trial that can fail (``_chunk_counts`` says which cannot)
then runs the int core of ``encode``, and the decoder only when the error
pattern y + c is heavier than t1, because a bounded-distance decoder
returns c itself below that.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

# a block no longer calls sample_defects, sample_errors, transmit or encode,
# but they stay names of this module: the benchmark's tracer wraps them
# here (the names tests/test_api.py lists)
from .channel import ChannelParams, sample_defects, sample_errors, transmit
from .codec import PbchCode, _decode_words, _encode_ints, _extract_message, encode
from .gf2 import _bits_to_int

__all__ = ["BLOCK_TRIALS", "SimResult", "run_trials", "trial_rng", "wilson_interval"]

BLOCK_TRIALS = 1024
_RAW_BYTES = 1 << 20  # raw Philox words a block holds at once
_Z_975 = 1.9599639845400536  # NormalDist().inv_cdf(0.975)


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
    z = _Z_975
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


def _layout(n: int, k: int) -> tuple[int, int, int, int]:
    """Where a trial's draws sit in its raw words: (message words, carry,
    stuck-value words, W).

    ``integers(0, 2, size, uint8)`` takes one byte per bit from uint32
    half-words, low half of a raw word first, and keeps an unused high half
    for the next uint32 draw (``carry``); ``random`` takes one raw word per
    uniform and leaves that half alone.  So the message takes ceil(k/4)
    halves, the stuck locations n words, the stuck values ceil(n/4) halves,
    the carried one first, and the errors n words.
    """
    halves = (k + 3) // 4
    carry = halves & 1
    msg_words = (halves + 1) // 2
    val_words = ((n + 3) // 4 - carry + 1) // 2
    return msg_words, carry, val_words, msg_words + n + val_words + n


def _draws(raw: np.ndarray, n: int, k: int, ch: ChannelParams):
    """Message bits, stuck cells, stuck values and error flips of each trial.

    Row i of ``raw`` holds trial i's first W raw words.  The four bool
    arrays (one row per trial) are what the message draw, ``sample_defects``
    and ``sample_errors`` give on the same stream: a uint8 bit is the top bit
    of a byte of a uint32 half-word, and a uniform (raw >> 11) 2^-53 is below
    x exactly when raw >> 11 is below ceil(x 2^53).
    """
    msg_words, carry, val_words, _ = _layout(n, k)
    raw = raw.astype("<u8", copy=False)
    halves = raw.view("<u4")
    msg = halves[:, :(k + 3) // 4].view(np.uint8)[:, :k] >= 0x80
    vals_at = msg_words + n
    vals = halves[:, 2 * vals_at:2 * (vals_at + val_words)]
    if carry:
        vals = np.concatenate((halves[:, 2 * msg_words - 1:2 * msg_words], vals), axis=1)
    vals = np.ascontiguousarray(vals).view(np.uint8)[:, :n] >= 0x80
    below = [np.uint64(ceil(x * 2.0 ** 53)) for x in (ch.epsilon, ch.p)]
    stuck = raw[:, msg_words:vals_at] >> np.uint64(11) < below[0]
    errs = raw[:, vals_at + val_words:] >> np.uint64(11) < below[1]
    return msg, stuck, vals & stuck, errs & ~stuck


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D bool array as an int, element j as bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    nb = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i:i + nb], "little") for i in range(0, len(buf), nb)]


def _chunk_counts(code: PbchCode, ch: ChannelParams, raw: np.ndarray):
    """(masking, decoding, joint) failure counts of the trials in ``raw``.

    A trial with at most max(d0 - 1, 0) stuck cells and at most t1 errors
    cannot fail: any d0 - 1 columns of G0 are independent, so masking
    matches every stuck cell, and y + c is then the errors alone, which the
    decoder removes.  Only the other trials run the int core of encoding.
    """
    p = code.params
    n, t1 = p.n, p.t1
    msg, stuck, vals, errs = _draws(raw, n, p.k, ch)
    u = np.count_nonzero(stuck, axis=1)
    flips = np.count_nonzero(errs, axis=1)
    busy = np.flatnonzero((u > max(p.d0 - 1, 0)) | (flips > t1))
    stuck, vals, errs = stuck[busy], vals[busy], errs[busy]
    words, values = _row_ints(msg[busy]), _row_ints(vals)
    cells = np.nonzero(stuck)[1].tolist()
    ends = np.cumsum(u[busy]).tolist()
    flips = flips[busy].tolist()
    mask = dec = joint = 0
    start = 0
    for i, end in enumerate(ends):
        w = words[i]
        c, _, unmasked, _ = _encode_ints(code, w, cells[start:end], values[i])
        start = end
        # y + c is the unmasked residue plus the errors, of weight
        # unmasked + flips; at most t1 of them decode back to c
        failed = False
        if unmasked + flips[i] > t1:
            y = (c & ~_bits_to_int(stuck[i]) ^ _bits_to_int(errs[i])) | values[i]
            c_hat = _decode_words(code, y)[0]
            # the message map sends c back to w, so reading the message
            # off is needed only when the decoder lands elsewhere
            failed = c_hat != c and _extract_message(code, c_hat) != w
        mf = unmasked > 0
        mask += mf
        dec += failed
        joint += mf and failed
    return mask, dec, joint


def _raw_words(seed: int, stream: int, start: int, stop: int, width: int) -> np.ndarray:
    """The first ``width`` raw Philox words of trials start..stop-1, a row each.

    One generator is reset to trial t's fresh state for each row: the same
    streams as trial_rng(seed, t, stream), built once.  The state holds
    plain-int lists, which the setter reads faster than numpy arrays.
    """
    bg = trial_rng(seed, start, stream).bit_generator
    fresh = bg.state
    state = fresh["state"]
    counter = state["counter"] = state["counter"].tolist()
    state["key"] = state["key"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    raw = np.empty((stop - start, width), dtype=np.uint64)
    for i, t in enumerate(range(start, stop)):
        counter[3] = t
        bg.state = fresh
        raw[i] = bg.random_raw(width)
    return raw


def _block_counts(code, ch, seed, stream, start, stop):
    width = _layout(code.params.n, code.params.k)[3]
    chunk = max(1, _RAW_BYTES // (8 * width))
    mask = dec = joint = 0
    for lo in range(start, stop, chunk):
        raw = _raw_words(seed, stream, lo, min(lo + chunk, stop), width)
        bm, bd, bj = _chunk_counts(code, ch, raw)
        mask += bm
        dec += bd
        joint += bj
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


def _block_results(code, ch, seed, stream, trials, workers):
    """Each block's counts in block order, computed here or by a pool.

    The pool is handed blocks as results come back, about two per worker
    ahead, so an early stop never queues, nor pays for, the blocks after
    it.
    """
    blocks = (
        (lo, min(lo + BLOCK_TRIALS, trials))
        for lo in range(0, trials, BLOCK_TRIALS)
    )
    if workers == 1:
        for lo, hi in blocks:
            yield _block_counts(code, ch, seed, stream, lo, hi)
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(code, ch, seed, stream),
    )
    try:
        pending = deque()
        for bounds in blocks:
            pending.append(pool.submit(_worker_block, bounds))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # an early stop leaves blocks in flight: drop the queued ones
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
    t0 = time.perf_counter()
    mask = dec = joint = executed = 0
    workers = _worker_count(threads, -(-trials // BLOCK_TRIALS))
    with closing(_block_results(code, ch, seed, stream, trials, workers)) as counts:
        for bm, bd, bj in counts:
            mask += bm
            dec += bd
            joint += bj
            executed = min(executed + BLOCK_TRIALS, trials)
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
