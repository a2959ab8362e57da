from statistics import NormalDist

import numpy as np
import pytest

from plbc import construct_pbch, simulate
from plbc.channel import ChannelParams, sample_defects, sample_errors, transmit
from plbc.codec import decode, encode
from plbc.gf2 import BitVector, _bits_to_int
from plbc.simulate import (
    _RAW_BYTES,
    _Z_975,
    BLOCK_TRIALS,
    _block_counts,
    _draws,
    _layout,
    _raw_words,
    _worker_count,
    run_trials,
    trial_rng,
    wilson_interval,
)

TOP = (1 << 64) - 1


class TestWilson:
    def test_zero_failures(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_failures(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        # frozen closed-form evaluation at z = 1.95996...
        assert lo == pytest.approx(0.4038315303659957, rel=1e-12)
        assert hi == pytest.approx(0.5961684696340044, rel=1e-12)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_contains_point_estimate(self):
        for fails, trials in [(1, 10), (7, 50), (99, 100), (0, 5)]:
            lo, hi = wilson_interval(fails, trials)
            assert lo <= fails / trials <= hi

    def test_z_literal(self):
        # the interval reads z as a literal rather than importing statistics
        assert _Z_975 == NormalDist().inv_cdf(0.975)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestTrialRng:
    def test_reproducible(self):
        a = trial_rng(123, 7).integers(0, 1 << 32, size=8)
        b = trial_rng(123, 7).integers(0, 1 << 32, size=8)
        assert np.array_equal(a, b)

    def test_distinct_indices(self):
        a = trial_rng(123, 7).integers(0, 1 << 32, size=8)
        b = trial_rng(123, 8).integers(0, 1 << 32, size=8)
        assert not np.array_equal(a, b)

    def test_distinct_streams(self):
        a = trial_rng(123, 7, stream=0).integers(0, 1 << 32, size=8)
        b = trial_rng(123, 7, stream=1).integers(0, 1 << 32, size=8)
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            trial_rng(-1, 0)
        with pytest.raises(ValueError):
            trial_rng(1 << 64, 0)

    def test_stream_bounds(self):
        for stream in (-1, 1 << 64):
            with pytest.raises(ValueError, match="stream must fit in 64 bits"):
                trial_rng(1, 0, stream=stream)
        trial_rng(1, 0, stream=(1 << 64) - 1)


def _numpy_draws(n, k, ch, seed, t, stream):
    """A trial's message, stuck cells, stuck values and errors as ints,
    drawn by the numpy calls that ``_draws`` stands in for."""
    rng = trial_rng(seed, t, stream)
    w = _bits_to_int(rng.integers(0, 2, size=k, dtype=np.uint8))
    s = sample_defects(n, ch, rng)
    z = sample_errors(s, ch, rng)
    return w, s.mask.value, s.values.value, z.value


def _block_draws(n, k, ch, seed, start, stop, stream):
    raw = _raw_words(seed, stream, start, stop, _layout(n, k)[3])
    arrays = _draws(raw, n, k, ch)
    return [tuple(_bits_to_int(a[i]) for a in arrays) for i in range(stop - start)]


class TestDraws:
    """The raw-word map gives what the numpy calls draw, bit for bit."""

    CHANNELS = [ChannelParams(0.3, 0.1), ChannelParams(0.5, 0.5), ChannelParams(0.0, 0.0),
                ChannelParams(1.0, 1.0), ChannelParams(0.0, 1.0), ChannelParams(1.0, 0.0)]
    # (seed, first trial, stream): a plain key, the top seed with a trial
    # index near the top of the counter, and a third stream
    KEYS = [(5, 0, 0), (TOP, TOP - 2, 3), (11, 12345, 7)]

    @pytest.mark.parametrize("n", range(12, 20))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_residue(self, n, k):
        # k in 1..4 leaves a half-word over from the message draw and 5..8
        # does not; n covers each residue mod 4 with both parities of n/4
        for ch in self.CHANNELS:
            for seed, t, stream in self.KEYS:
                assert _block_draws(n, k, ch, seed, t, t + 2, stream) == [
                    _numpy_draws(n, k, ch, seed, tt, stream) for tt in (t, t + 1)]

    @pytest.mark.parametrize("n,k", [(15, 7), (15, 5), (31, 11), (63, 45), (127, 64),
                                     (1023, 923), (3, 1)])
    def test_code_lengths(self, n, k):
        for ch in self.CHANNELS[:3]:
            for seed, t, stream in self.KEYS:
                assert _block_draws(n, k, ch, seed, t, t + 3, stream) == [
                    _numpy_draws(n, k, ch, seed, tt, stream) for tt in range(t, t + 3)]

    def test_layout_widths(self):
        assert _layout(15, 7)[3] == 33
        assert _layout(1023, 923)[3] == 2290

    def test_threshold_hit_exactly(self):
        # a probability equal to one of the trial's own uniforms: the cell
        # with that uniform is not stuck (u < epsilon is strict)
        n, k, seed = 15, 7, 3
        raw = _raw_words(seed, 0, 0, 1, _layout(n, k)[3])
        msg_words = _layout(n, k)[0]
        for cell in (0, 6, 14):
            x = float(raw[0, msg_words + cell] >> np.uint64(11)) * 2.0 ** -53
            ch = ChannelParams(x, x)
            got = tuple(_bits_to_int(a[0]) for a in _draws(raw, n, k, ch))
            assert got == _numpy_draws(n, k, ch, seed, 0, 0)
            assert not got[1] >> cell & 1


def _trial_outcome(code, ch, rng):
    """Reference trial: (masking failed, message wrong) from the numpy
    draws, encode, transmit and decode; draw order is message bits,
    defects, errors."""
    p = code.params
    w = BitVector(p.k, _bits_to_int(rng.integers(0, 2, size=p.k, dtype=np.uint8)))
    s = sample_defects(p.n, ch, rng)
    c, mres = encode(code, w, s)
    z = sample_errors(s, ch, rng)
    return mres.unmasked > 0, decode(code, transmit(c, s, z)).w_hat != w


def _reference_counts(code, ch, seed, stream, start, stop):
    """(masking, decoding, joint) failures of trials start..stop-1, one
    ``_trial_outcome`` each."""
    mask = dec = joint = 0
    for t in range(start, stop):
        mf, df = _trial_outcome(code, ch, trial_rng(seed, t, stream))
        mask += mf
        dec += df
        joint += mf and df
    return mask, dec, joint


class TestBlockCounts:
    """A block's counts equal the reference per-trial loop."""

    @pytest.mark.parametrize("nkl", [(15, 7, 4), (15, 3, 4), (15, 7, 0), (15, 11, 0),
                                     (15, 11, 4)])
    @pytest.mark.parametrize("eps,p", [(0.1, 0.02), (0.3, 0.0), (0.3, 0.1), (0.0, 0.2),
                                       (1.0, 0.0), (0.0, 1.0)])
    def test_small_codes(self, nkl, eps, p):
        # (15, 3, 4) corrects two errors and reports detected failures;
        # (15, 7, 0) and (15, 11, 0) have no masking part, (15, 11, 4) no
        # error correction
        code = construct_pbch(*nkl)
        ch = ChannelParams(eps, p)
        for seed, start, stream in ((5, 0, 0), (TOP, TOP - 299, 3)):
            assert _block_counts(code, ch, seed, stream, start, start + 300) == \
                _reference_counts(code, ch, seed, stream, start, start + 300)

    def test_decoder_called_through_module_globals(self, code15_t2, monkeypatch):
        # the block looks the decoder up in plbc.simulate, so a wrapper put
        # there sees every call; it runs only on read words more than t1
        # flips from the codeword, and (15, 3, 4) reports detected failures
        statuses = []

        def spy(code, y):
            res = decode_words(code, y)
            statuses.append(res[1])
            return res

        decode_words = simulate._decode_words
        monkeypatch.setattr(simulate, "_decode_words", spy)
        ch = ChannelParams(0.3, 0.1)
        counts = _block_counts(code15_t2, ch, 5, 0, 0, 300)
        assert counts == _reference_counts(code15_t2, ch, 5, 0, 0, 300)
        assert 0 < counts[2] < min(counts[0], counts[1])
        assert counts[1] <= len(statuses) < 300
        assert {"detected_failure", "corrected"} <= set(statuses)

    def test_n1023_across_raw_chunks(self, code1023_l20):
        # 130 trials are two full raw-word chunks and part of a third
        chunk = _RAW_BYTES // (8 * _layout(1023, 923)[3])
        trials = 130
        assert 1 < chunk < trials and trials % chunk
        for ch in (ChannelParams(4e-3, 2e-3), ChannelParams(0.02, 0.01)):
            assert _block_counts(code1023_l20, ch, 7, 2, 1000, 1000 + trials) == \
                _reference_counts(code1023_l20, ch, 7, 2, 1000, 1000 + trials)


class TestRunTrials:
    def test_clean_channel_never_fails(self, code15):
        res = run_trials(code15, ChannelParams(0.0, 0.0), 2000, seed=5)
        assert res.decoding_failures == 0
        assert res.masking_failures == 0
        assert res.failure_rate == 0.0
        assert res.ci_low == 0.0

    def test_counts_invariants(self, code15):
        res = run_trials(code15, ChannelParams(0.2, 0.05), 4000, seed=6)
        assert res.joint_mask_fail_decode_fail <= res.masking_failures
        assert res.joint_mask_fail_decode_fail <= res.decoding_failures
        assert res.decoding_failures <= res.trials
        assert res.ci_low <= res.failure_rate <= res.ci_high

    def test_deterministic_across_workers(self, code15):
        ch = ChannelParams(0.15, 0.03)
        a = run_trials(code15, ch, 3000, seed=77, threads=1)
        b = run_trials(code15, ch, 3000, seed=77, threads=4)
        assert (a.masking_failures, a.decoding_failures, a.joint_mask_fail_decode_fail) == (
            b.masking_failures, b.decoding_failures, b.joint_mask_fail_decode_fail
        )
        assert a.trials == b.trials == 3000

    def test_worker_count_clamped(self, monkeypatch):
        monkeypatch.setattr("plbc.simulate.os.cpu_count", lambda: 8)
        assert _worker_count(64, 2) == 2
        assert _worker_count(64, 100) == 8
        assert _worker_count(3, 100) == 3
        assert _worker_count(0, 5) == 1
        monkeypatch.setattr("plbc.simulate.os.cpu_count", lambda: None)
        assert _worker_count(4, 4) == 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, code15, threads):
        with pytest.raises(ValueError, match="threads must be positive"):
            run_trials(code15, ChannelParams(0.1, 0.01), 16, seed=1, threads=threads)

    @pytest.mark.parametrize("stream", [-1, 1 << 64])
    def test_stream_out_of_range_rejected(self, code15, stream):
        with pytest.raises(ValueError, match="stream must fit in 64 bits"):
            run_trials(code15, ChannelParams(0.1, 0.01), 16, seed=1, stream=stream)

    def test_seed_changes_counts(self, code15):
        ch = ChannelParams(0.2, 0.05)
        a = run_trials(code15, ch, 3000, seed=1)
        b = run_trials(code15, ch, 3000, seed=2)
        assert (a.masking_failures, a.decoding_failures) != (
            b.masking_failures, b.decoding_failures
        )

    def test_early_stop_at_block_boundary(self, code15):
        ch = ChannelParams(0.3, 0.05)
        full = run_trials(code15, ch, 4096, seed=9)
        stopped = run_trials(code15, ch, 4096, seed=9, stop_after_failures=10)
        assert stopped.trials % BLOCK_TRIALS == 0
        assert stopped.trials < full.trials
        # the stopped run's counts equal the full run restricted to the
        # same leading blocks
        again = run_trials(code15, ch, stopped.trials, seed=9)
        assert again.decoding_failures == stopped.decoding_failures
        assert again.masking_failures == stopped.masking_failures

    def test_early_stop_worker_invariant(self, code15):
        ch = ChannelParams(0.3, 0.05)
        a = run_trials(code15, ch, 8192, seed=9, stop_after_failures=10, threads=1)
        b = run_trials(code15, ch, 8192, seed=9, stop_after_failures=10, threads=4)
        assert a.trials == b.trials
        assert a.decoding_failures == b.decoding_failures

    def test_validation(self, code15):
        with pytest.raises(ValueError):
            run_trials(code15, ChannelParams(0.0, 0.0), 0, seed=1)
        with pytest.raises(ValueError):
            run_trials(code15, ChannelParams(0.0, 0.0), 10, seed=1, stop_after_failures=-1)

    def test_masking_rate_statistics(self, code15):
        # at p = 0, decoding failures come only from masking leftovers
        res = run_trials(code15, ChannelParams(0.3, 0.0), 20000, seed=11)
        assert res.decoding_failures <= res.masking_failures
        assert res.masking_failures / res.trials == pytest.approx(0.386, abs=0.02)


class TestGuaranteedRegion:
    def test_forced_small_patterns_never_fail(self, code15):
        # rejection-sample channel draws down to u <= 2, t <= 1, inside the
        # guaranteed correction region, so the failure count must be zero
        ch = ChannelParams(0.1, 0.02)
        accepted = 0
        index = 0
        failures = 0
        while accepted < 100_000:
            rng = trial_rng(5150, index)
            index += 1
            w_bits = rng.integers(0, 2, size=7, dtype=np.uint8)
            s = sample_defects(15, ch, rng)
            if s.u > 2:
                continue
            z = sample_errors(s, ch, rng)
            if z.weight() > 1:
                continue
            accepted += 1
            w = BitVector.from_bits(w_bits)
            c, _ = encode(code15, w, s)
            y = transmit(c, s, z)
            if decode(code15, y).w_hat != w:
                failures += 1
        assert failures == 0


class TestThroughput:
    def test_floor_at_n1023(self, code1023_l20):
        # full encode/channel/decode pipeline must sustain 2000 trials/s
        res = run_trials(code1023_l20, ChannelParams(4e-3, 2e-3), 2048, seed=3)
        assert res.trials / res.elapsed_s >= 2000
