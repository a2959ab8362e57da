import numpy as np
import pytest

from plbc.channel import (
    ChannelParams,
    DefectVector,
    sample_defects,
    sample_errors,
    transmit,
)
from plbc.gf2 import BitVector
from plbc.simulate import trial_rng


class TestChannelParams:
    def test_p_tilde_preset_channels(self):
        # (epsilon, p, expected p_tilde), p_tilde = (1-eps)p + eps/2
        table = [
            (0.0, 4.0e-3, 0.004),
            (2.0e-3, 3.0e-3, 0.003994),
            (3.0e-3, 2.5e-3, 0.0039925),
            (4.0e-3, 2.0e-3, 0.003992),
            (6.0e-3, 1.0e-3, 0.003994),
            (7.0e-3, 5.0e-4, 0.0039965),
            (8.0e-3, 0.0, 0.004),
        ]
        for eps, p, want in table:
            assert ChannelParams(eps, p).p_tilde == pytest.approx(want, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(0.0, 1.5)


class TestDefectVector:
    def test_string_roundtrip(self):
        s = DefectVector.from_string(".01..0.")
        assert s.to_string() == ".01..0."
        assert s.u == 3
        assert s.mask == BitVector.from_indices(7, [1, 2, 5])

    def test_values_subset_of_mask(self):
        mask = BitVector.from_indices(8, [1, 3])
        bad_values = BitVector.from_indices(8, [2])
        with pytest.raises(ValueError):
            DefectVector(mask, bad_values)
        # also past the first 64 cells, and with a shared bit
        mask = BitVector.from_indices(130, [3, 100])
        with pytest.raises(ValueError):
            DefectVector(mask, BitVector.from_indices(130, [3, 129]))
        assert DefectVector(mask, BitVector.from_indices(130, [100])).u == 2

    def test_all_clear(self):
        s = DefectVector.all_clear(10)
        assert s.u == 0

    def test_from_positions(self):
        s = DefectVector.from_positions(6, [0, 4], [1, 0])
        assert s.to_string() == "1...0."


class TestSampling:
    def test_defect_rate(self):
        ch = ChannelParams(0.25, 0.0)
        rng = np.random.default_rng(1)
        total = sum(sample_defects(1000, ch, rng).u for _ in range(50))
        assert total / 50000 == pytest.approx(0.25, abs=0.01)

    def test_stuck_values_balanced(self):
        ch = ChannelParams(0.5, 0.0)
        rng = np.random.default_rng(2)
        ones = cells = 0
        for _ in range(50):
            s = sample_defects(1000, ch, rng)
            ones += s.values.weight()
            cells += s.u
        assert ones / cells == pytest.approx(0.5, abs=0.02)

    def test_errors_avoid_stuck_cells(self):
        ch = ChannelParams(0.3, 0.4)
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = sample_defects(64, ch, rng)
            z = sample_errors(s, ch, rng)
            assert not z.value & s.mask.value

    def test_stream_alignment_across_epsilon(self):
        # defect sampling consumes a fixed number of draws regardless of the
        # outcome, so downstream draws stay aligned between channels
        ch_lo, ch_hi = ChannelParams(0.01, 0.0), ChannelParams(0.9, 0.0)
        r1, r2 = trial_rng(11, 0), trial_rng(11, 0)
        sample_defects(100, ch_lo, r1)
        sample_defects(100, ch_hi, r2)
        assert np.array_equal(r1.random(8), r2.random(8))

    def test_error_rate(self):
        ch = ChannelParams(0.0, 0.2)
        rng = np.random.default_rng(4)
        s = DefectVector.all_clear(1000)
        total = sum(sample_errors(s, ch, rng).weight() for _ in range(50))
        assert total / 50000 == pytest.approx(0.2, abs=0.01)


class TestTransmit:
    def test_formula_per_cell(self):
        # y = (x + z) off stuck cells, the stuck value on stuck cells
        x = BitVector.from_int(8, 0b10110100)
        s = DefectVector.from_string("..1..0..")
        z = BitVector.from_indices(8, [0, 4])
        y = transmit(x, s, z)
        for i in range(8):
            if s.mask.get(i):
                assert y.get(i) == s.values.get(i)
            else:
                assert y.get(i) == x.get(i) ^ z.get(i)

    def test_error_on_stuck_cell_rejected(self):
        x = BitVector(4)
        s = DefectVector.from_string("1...")
        with pytest.raises(ValueError):
            transmit(x, s, BitVector.from_indices(4, [0]))

    def test_clear_channel_is_identity(self):
        x = BitVector.from_int(12, 0b101000111)
        y = transmit(x, DefectVector.all_clear(12), BitVector(12))
        assert y == x
