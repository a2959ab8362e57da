import numpy as np
import pytest

from plbc.channel import ChannelParams, sample_defects, sample_errors, transmit
from plbc.codec import decode, encode
from plbc.gf2 import BitVector
from plbc.simulate import (
    BLOCK_TRIALS,
    _worker_count,
    run_trials,
    trial_rng,
    wilson_interval,
)


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
