import inspect
import tracemalloc

import pytest

from plbc.bch import (
    bch_generator,
    bch_parity_check,
    cyclotomic_coset,
    cyclotomic_cosets,
    field_for_length,
    minimal_polynomial,
)
from plbc.errors import ConstructionError
from plbc.gf2 import GF2m, BitVector, poly_eval, poly_mul, rref


class TestCosets:
    def test_cosets_n15(self):
        got = {c.leader: set(c.members) for c in cyclotomic_cosets(15)}
        assert got[0] == {0}
        assert got[1] == {1, 2, 4, 8}
        assert got[3] == {3, 6, 12, 9}
        assert got[5] == {5, 10}
        assert got[7] == {7, 14, 13, 11}
        assert set(got) == {0, 1, 3, 5, 7}

    def test_single_coset(self):
        c = cyclotomic_coset(5, 15)
        assert c.leader == 5
        assert set(c.members) == {5, 10}

    def test_partition(self):
        members = [j for c in cyclotomic_cosets(63) for j in c.members]
        assert sorted(members) == list(range(63))


class TestMinimalPolynomials:
    # frozen against hand reduction over GF(16) with x^4 + x + 1
    def test_frozen_m4(self):
        f = field_for_length(15)
        assert minimal_polynomial(1, f) == 0b10011   # x^4+x+1
        assert minimal_polynomial(3, f) == 0b11111   # x^4+x^3+x^2+x+1
        assert minimal_polynomial(5, f) == 0b111     # x^2+x+1
        assert minimal_polynomial(7, f) == 0b11001   # x^4+x^3+1

    def test_root_property(self):
        f = field_for_length(63)
        for j in (1, 3, 5, 9, 21):
            mp = minimal_polynomial(j, f)
            for member in cyclotomic_coset(j, 63).members:
                assert poly_eval(mp, f.alpha_pow(member), f) == 0

    def test_degree_equals_coset_size(self):
        f = field_for_length(31)
        for c in cyclotomic_cosets(31):
            if c.leader == 0:
                continue
            assert minimal_polynomial(c.leader, f).bit_length() - 1 == len(c.members)


class TestGenerator:
    def test_delta_one_is_trivial(self):
        assert bch_generator(15, 1) == 1

    def test_frozen_generators_n15(self):
        assert bch_generator(15, 3) == 19
        assert bch_generator(15, 5) == 465
        assert bch_generator(15, 7) == 1335
        # delta = 15 gives the repetition code generator (x^15-1)/(x-1)
        assert bch_generator(15, 15) == (1 << 15) - 1

    def test_product_structure(self):
        f = field_for_length(15)
        assert bch_generator(15, 5) == poly_mul(
            minimal_polynomial(1, f), minimal_polynomial(3, f)
        )

    def test_roots(self):
        f = field_for_length(63)
        g = bch_generator(63, 9)
        for j in range(1, 9):
            assert poly_eval(g, f.alpha_pow(j), f) == 0

    def test_divides_xn_minus_1(self):
        from plbc.gf2 import poly_divmod

        for delta in (3, 5, 7, 9, 11):
            g = bch_generator(63, delta)
            assert poly_divmod((1 << 63) | 1, g)[1] == 0

    def test_degrees_n1023(self):
        # every coset of 1..20 is full (size 10), so degrees step by 10
        degs = [bch_generator(1023, d).bit_length() - 1 for d in range(3, 22, 2)]
        assert degs == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]

    def test_length_alone_fixes_the_field(self):
        for fn in (bch_generator, bch_parity_check):
            assert list(inspect.signature(fn).parameters) == ["n", "delta"]

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            bch_generator(15, 4)
        with pytest.raises(ValueError):
            bch_generator(15, 17)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            field_for_length(14)
        for n in (0, 1, (1 << 17) - 1):
            with pytest.raises(ValueError):
                field_for_length(n)

    def test_one_shared_field_per_m(self):
        f = field_for_length(1023)
        assert field_for_length(1023) is f
        assert f.m == 10 and f.n == 1023
        assert field_for_length(15) is not f


def syndrome_weight(h, c):
    """Weight of H c^T: the odd parities of H's rows ANDed with c."""
    return sum((row & c.value).bit_count() & 1 for row in h.row_ints())


class TestParityCheck:
    def test_shape_and_rank(self):
        h = bch_parity_check(15, 5)
        assert (h.rows, h.cols) == (8, 15)
        assert len(rref(h)[1]) == 8

    def test_annihilates_code(self):
        g = bch_generator(15, 5)
        h = bch_parity_check(15, 5)
        for shift in range(16 - g.bit_length()):
            c = BitVector.from_int(15, g << shift)
            assert syndrome_weight(h, c) == 0

    def test_flags_noncodeword(self):
        h = bch_parity_check(15, 5)
        assert syndrome_weight(h, BitVector.from_indices(15, [0])) > 0

    def test_short_coset_rejected(self):
        # delta = 7 at n = 63 pulls in the coset of 5 whose... all cosets of
        # 1..6 at n=63 are full; use n = 15, delta = 11: coset(5) has size 2,
        # so the row count cannot reach deg(g) in m-row blocks.
        with pytest.raises(ConstructionError):
            bch_parity_check(15, 11)

    def test_every_odd_delta_full_rank_or_short_coset(self):
        # the rows are m per distinct coset of the odd j < delta - 1; with no
        # short coset they must be exactly deg g and independent, with one
        # the construction must refuse, naming the shortfall
        for m in range(2, 9):
            n = (1 << m) - 1
            for delta in range(1, n + 1, 2):
                cosets = []
                for j in range(1, delta - 1, 2):
                    c = cyclotomic_coset(j, n)
                    if c not in cosets:
                        cosets.append(c)
                short = [c.members for c in cosets if len(c) != m]
                deg = bch_generator(n, delta).bit_length() - 1
                if short:
                    want = (
                        "parity-check rows (%d) != generator degree (%d) at "
                        "n=%d delta=%d; cosets shorter than m: %s"
                        % (m * len(cosets), deg, n, delta, short)
                    )
                    with pytest.raises(ConstructionError) as exc:
                        bch_parity_check(n, delta)
                    assert str(exc.value) == want
                else:
                    h = bch_parity_check(n, delta)
                    assert len(rref(h)[1]) == h.rows == deg == m * len(cosets)

    def test_delta_validation(self):
        for delta in (0, 4, 17):
            with pytest.raises(ValueError):
                bch_parity_check(15, delta)

    @pytest.mark.parametrize("n,deltas", [
        (15, (1, 3, 5)), (63, (1, 5, 9)), (1023, (1, 7, 21)),
        (2047, (1, 23, 45)), (65535, (1, 5)),
    ])
    def test_rows_match_reference(self, n, deltas):
        # m rows per coset leader j < delta, in order: row b holds bit b of
        # alpha^(j i) at position i, read here off the exp table alone
        field = GF2m(n.bit_length())
        m = field.m
        for delta in deltas:
            want = []
            for j in range(1, delta):
                if j != min((j << s) % n for s in range(m)):
                    continue
                vals = [field.exp[(j * i) % n] for i in range(n)][::-1]
                for b in range(m):
                    want.append(int("".join("01"[(v >> b) & 1] for v in vals), 2))
            h = bch_parity_check(n, delta)
            assert (h.rows, h.cols) == (len(want), n)
            assert h.row_ints() == want

    def test_peak_memory_m16(self):
        # H's 1440 rows at (65535, 181) take about 11.5 MiB as ints; they are
        # built straight from each coset's bits, with no word array between
        bch_parity_check(65535, 3)  # the shared field and coset table
        tracemalloc.start()
        try:
            rows = bch_parity_check(65535, 181).row_ints()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 1440
        assert peak < 24 * 2**20, peak / 2**20

