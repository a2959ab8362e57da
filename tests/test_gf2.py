import itertools
import tracemalloc

import numpy as np
import pytest

from plbc import gf2
from plbc.gf2 import (
    GF2m,
    BitMatrix,
    BitVector,
    _pack,
    _solve_two_step,
    _span_weight_counts,
    _transpose_words,
    _unpack,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_reciprocal,
    rref,
)

F16 = GF2m(4)


def dense_rank(rows, cols):
    """Row-reduction rank oracle on a list of row ints, independent of rref."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def row_ints(dense):
    """The rows of a 0/1 array as ints, column j as bit j."""
    return [sum(int(b) << j for j, b in enumerate(row)) for row in dense]


def xor_rows(rows, x):
    """x * M for M given as int rows: the XOR of the rows x selects."""
    out = 0
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            out ^= row
    return out


class TestFieldArithmetic:
    def test_mul_identity(self):
        x = 0b0010
        assert F16.mul(x, 1) == x

    def test_mul_annihilator(self):
        for b in range(16):
            assert F16.mul(0, b) == 0

    def test_mul_x3_by_x(self):
        # x^4 reduces to x + 1 modulo x^4 + x + 1
        assert F16.mul(0b1000, 0b0010) == 0b0011

    def test_mul_commutative_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = rng.integers(0, 16, size=3)
            a, b, c = int(a), int(b), int(c)
            assert F16.mul(a, b) == F16.mul(b, a)
            assert F16.mul(F16.mul(a, b), c) == F16.mul(a, F16.mul(b, c))

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            F16.mul(16, 1)

    def test_alpha_order(self):
        seen = {F16.alpha_pow(e) for e in range(15)}
        assert len(seen) == 15

    def test_non_primitive_polynomial_rejected(self, monkeypatch):
        # the table build guards PRIMITIVE_POLYS: x^4 + x^2 + 1 =
        # (x^2 + x + 1)^2 is not primitive
        monkeypatch.setitem(gf2.PRIMITIVE_POLYS, 4, 0b10101)
        with pytest.raises(ValueError):
            GF2m(4)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_every_table_polynomial_builds_its_field(self, m):
        field = GF2m(m)
        n = (1 << m) - 1
        assert field.primitive_poly == gf2.PRIMITIVE_POLYS[m]
        assert field.primitive_poly.bit_length() == m + 1
        powers = field.exp[:n]
        assert len(set(powers)) == n and 0 not in powers
        assert all(field.log[x] == i for i, x in enumerate(powers))

    def test_tables_read_only(self):
        with pytest.raises(TypeError):
            F16.exp[0] = 2
        with pytest.raises(TypeError):
            F16.log[1] = 3
        with pytest.raises(ValueError):
            F16.exp_np[0] = 2

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            GF2m(1)
        with pytest.raises(ValueError):
            GF2m(17)


class TestPoly2:
    def test_divmod_by_one(self):
        f = 0b1011001
        assert poly_divmod(f, 1) == (f, 0)

    def test_divmod_square(self):
        # (x + 1)^2 = x^2 + 1 over GF(2)
        assert poly_divmod(0b101, 0b11) == (0b11, 0)

    def test_divmod_x15_minus_1(self):
        q, r = poly_divmod((1 << 15) | 1, 0b11001)
        assert r == 0
        assert q == 0b111101011001  # frozen: verified by multiplication below
        assert poly_mul(q, 0b11001) == (1 << 15) | 1

    def test_divmod_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(5, 0)

    def test_divmod_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            num = int(rng.integers(0, 1 << 20))
            den = int(rng.integers(1, 1 << 10))
            q, r = poly_divmod(num, den)
            assert poly_mul(q, den) ^ r == num
            assert r.bit_length() < den.bit_length()

    def test_reciprocal(self):
        assert poly_reciprocal(0b10011) == 0b11001
        assert poly_reciprocal(1) == 1

    def test_eval(self):
        # x^4 + x + 1 vanishes at alpha by definition of the field
        assert poly_eval(0b10011, 0b0010, F16) == 0
        assert poly_eval(0b11, 1, F16) == 0  # x + 1 at x = 1


class TestPacking:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for n in (1, 7, 63, 64, 65, 1023):
            bits = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert np.array_equal(BitVector.from_bits(bits).bits(), bits)

    def test_bitvector_int_roundtrip(self):
        v = BitVector.from_int(70, (1 << 69) | 5)
        assert v.value == (1 << 69) | 5
        assert v.weight() == 3
        assert list(np.flatnonzero(v.bits())) == [0, 2, 69]

    def test_bitvector_xor_eq(self):
        a = BitVector.from_int(20, 0b1100)
        b = BitVector.from_int(20, 0b1010)
        assert (a ^ b).value == 0b0110
        assert a == BitVector.from_indices(20, [2, 3])

    def test_get(self):
        v = BitVector.from_int(130, 1 << 128)
        assert v.get(128) == 1
        assert v.get(0) == 0


class TestBitVector:
    def test_value_must_fit_length(self):
        with pytest.raises(ValueError):
            BitVector(3, 0b1000)
        with pytest.raises(ValueError):
            BitVector(3, -1)
        with pytest.raises(ValueError):
            BitVector.from_int(64, 1 << 64)
        assert BitVector(3, 0b111).weight() == 3

    def test_immutable(self):
        v = BitVector(8, 5)
        with pytest.raises(AttributeError):
            v.value = 7
        with pytest.raises(AttributeError):
            v.n = 9

    def test_words_read_only(self):
        v = BitVector.from_int(130, (1 << 129) | 3)
        with pytest.raises(ValueError):
            v.words[0] = 0
        assert v.value == (1 << 129) | 3

    def test_words_and_array(self):
        for n, value in [(0, 0), (15, 0b101), (64, 1 << 63), (130, (1 << 129) | 3)]:
            v = BitVector.from_int(n, value)
            assert v.words.dtype == np.uint64
            assert len(v.words) == (n + 63) // 64
            assert np.array_equal(v, v.words)
            assert int.from_bytes(v.words.tobytes(), "little") == value
        assert not np.array_equal(BitVector(15, 4), BitVector(15, 5).words)


class TestBitMatrix:
    def test_transpose(self):
        words = _transpose_words(_pack(row_ints([[1, 0, 1], [0, 1, 1]]), 3), 3)
        assert _unpack(words) == row_ints([[1, 0], [0, 1], [1, 1]])
        # shapes across and inside the 64 x 64 blocks, including empty ones
        rng = np.random.default_rng(7)
        for rows, cols in [(0, 5), (5, 0), (1, 1), (63, 65), (130, 64), (200, 1000)]:
            dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
            words = _transpose_words(_pack(row_ints(dense), cols), cols)
            assert words.dtype == np.uint64 and words.flags.c_contiguous
            assert words.shape == (cols, (rows + 63) // 64)
            assert _unpack(words) == row_ints(dense.T)

    def test_holds_no_array(self):
        mat = BitMatrix([0b101, 0b11], 3)
        assert mat.__slots__ and not any(
            isinstance(getattr(mat, name), np.ndarray) for name in mat.__slots__)
        assert (mat.rows, mat.cols) == (2, 3)

    def test_words_packed_on_read(self):
        # read-only, and byte-equal to each row packed with int.to_bytes
        rng = np.random.default_rng(5)
        for rows, cols in [(0, 0), (0, 70), (3, 64), (4, 65), (2, 200)]:
            ints = [int.from_bytes(rng.bytes(-(-cols // 8)), "little") % (1 << cols)
                    for _ in range(rows)]
            words = BitMatrix(ints, cols).words
            assert words.dtype == np.uint64 and words.flags.c_contiguous
            nbytes = 8 * ((cols + 63) // 64)
            assert words.shape == (rows, nbytes // 8)
            assert words.tobytes() == b"".join(v.to_bytes(nbytes, "little") for v in ints)
            with pytest.raises(ValueError):
                words[...] = 0

    def test_row_ints_is_a_copy(self):
        mat = BitMatrix([0b101, 0b11], 3)
        rows = mat.row_ints()
        rows[0] ^= 1
        rows.append(0)
        assert mat.row_ints() == [0b101, 0b11] and mat.rows == 2
        assert mat == BitMatrix((0b101, 0b11), 3)
        assert mat != BitMatrix([0b100, 0b11], 3) and mat != BitMatrix([0b101, 0b11], 4)

    def test_words_read_writes_rows_in_place(self):
        # reading .words writes each row straight into the word array: no
        # joined byte string and no second copy of it (2.24x the words when
        # there were); every third row is zero
        rng = np.random.default_rng(11)
        ints = [int.from_bytes(rng.bytes(500), "little") if i % 3 else 0
                for i in range(1000)]
        mat = BitMatrix(ints, 4000)
        tracemalloc.start()
        try:
            words = mat.words
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert words.dtype == np.uint64 and words.shape == (1000, 63)
        assert _unpack(words) == ints
        assert peak < 1.5 * words.nbytes, peak / words.nbytes

    def test_from_row_ints_rejects_wide_rows(self):
        with pytest.raises(ValueError):
            BitMatrix([1, 1 << 4], 4)
        with pytest.raises(ValueError):
            BitMatrix([-1], 4)


class TestRref:
    def test_identity(self):
        ident = BitMatrix([1 << i for i in range(6)], 6)
        red, pivots = rref(ident)
        assert pivots == list(range(6))
        assert red == ident

    def test_zero(self):
        z = BitMatrix([0, 0, 0], 4)
        red, pivots = rref(z)
        assert pivots == []
        assert red == z

    def test_duplicate_rows(self):
        a = BitMatrix([0b11, 0b11], 2)
        assert len(rref(a)[1]) == 1

    def test_rank_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows, cols = int(rng.integers(1, 16)), int(rng.integers(1, 40))
            ints = [int(rng.integers(0, 1 << cols)) for _ in range(rows)]
            mat = BitMatrix(ints, cols)
            assert len(rref(mat)[1]) == dense_rank(ints, cols)

    def test_rref_row_space_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rows, cols = int(rng.integers(2, 10)), int(rng.integers(2, 30))
            ints = [int(rng.integers(0, 1 << cols)) for _ in range(rows)]
            mat = BitMatrix(ints, cols)
            red, pivots = rref(mat)
            all_rows = ints + red.row_ints()
            assert dense_rank(all_rows, cols) == dense_rank(ints, cols)

    def test_partial_pivot_columns(self):
        # pivots only in the first n_pivot_cols columns: they increase, each
        # is a unit column, the rows past them are zero there, and the bit
        # at n_pivot_cols reads off the masking solver's step-1 solution
        rng = np.random.default_rng(43)
        for _ in range(200):
            rows, cols = int(rng.integers(1, 14)), int(rng.integers(2, 40))
            width = int(rng.integers(0, cols))
            ints = [int(rng.integers(0, 1 << cols)) for _ in range(rows)]
            red, pivots = rref(BitMatrix(ints, cols), width)
            out = red.row_ints()
            assert (red.rows, red.cols) == (rows, cols)
            assert pivots == sorted(set(pivots)) and all(c < width for c in pivots)
            for i, col in enumerate(pivots):
                assert [(row >> col) & 1 for row in out] == [int(j == i) for j in range(rows)]
            low = (1 << width) - 1
            assert not any(row & low for row in out[len(pivots):])
            assert dense_rank(ints + out, cols) == dense_rank(ints, cols)
            rhs = 1 << width
            if any(row & rhs for row in out[len(pivots):]):
                want = None
            else:
                want = sum(1 << col for row, col in zip(out, pivots) if row & rhs)
            x, misses, step = _solve_two_step(ints, width, 0)
            assert (x if step == 1 else None) == want
            # no row is solved first, so step 2 is x = 0 missing every RHS 1
            rhs_rows = sum(row >> width & 1 for row in ints)
            assert (misses, step == 2) == ((rhs_rows, True) if want is None else (0, False))

    def test_pivot_count_above_width_rejected(self):
        with pytest.raises(ValueError):
            rref(BitMatrix([1, 2], 3), 4)


def solve_by_aug_rows(a, b):
    """x with x * a = b through the masking solver's step 1, or None if
    inconsistent.

    Column j of ``a`` with b_j at bit a.rows is one augmented row.
    """
    rows = a.row_ints()
    cols = [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(a.cols)]
    aug = [cols[j] | ((b.value >> j) & 1) << a.rows for j in range(a.cols)]
    x, _, step = _solve_two_step(aug, a.rows, 0)
    return BitVector.from_int(a.rows, x) if step == 1 else None


class TestSolveRowSystem:
    def test_solved_in_row_space(self):
        rng = np.random.default_rng(17)
        hits = misses = 0
        for _ in range(300):
            l, u = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            dense = rng.integers(0, 2, size=(l, u), dtype=np.uint8)
            rows = row_ints(dense)
            a = BitMatrix(rows, u)
            b_bits = rng.integers(0, 2, size=u, dtype=np.uint8)
            b = BitVector.from_bits(b_bits)
            x = solve_by_aug_rows(a, b)
            if x is None:
                misses += 1
                # b must lie outside the row space
                assert dense_rank(rows + [b.value], u) == dense_rank(rows, u) + 1
            else:
                hits += 1
                assert xor_rows(rows, x.value) == b.value
        assert hits and misses

    def test_planted_solution(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            l, u = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            dense = rng.integers(0, 2, size=(l, u), dtype=np.uint8)
            rows = row_ints(dense)
            a = BitMatrix(rows, u)
            x0 = BitVector.from_bits(rng.integers(0, 2, size=l, dtype=np.uint8))
            b = BitVector(u, xor_rows(rows, x0.value))
            x = solve_by_aug_rows(a, b)
            assert x is not None
            assert xor_rows(rows, x.value) == b.value


def brute_span_counts(rows, n):
    """Weight histogram of every XOR combination of rows, one at a time."""
    counts = [0] * (n + 1)
    for pick in itertools.product((0, 1), repeat=len(rows)):
        word = 0
        for take, row in zip(pick, rows):
            if take:
                word ^= row
        counts[word.bit_count()] += 1
    return counts


class TestSpanWeightCounts:
    @pytest.mark.parametrize("n", [7, 64, 65, 130])
    @pytest.mark.parametrize("dim", [0, 1, 2, 5, 8, 9])
    def test_matches_brute_force(self, n, dim):
        rng = np.random.default_rng(1000 * n + dim)
        rows = [int.from_bytes(rng.bytes(17), "little") % (1 << n) for _ in range(dim)]
        assert _span_weight_counts(rows, n) == brute_span_counts(rows, n)

    @pytest.mark.parametrize("n", [7, 64, 65, 130])
    def test_repeated_and_zero_rows(self, n):
        # dependent rows count each combination, so the zero word repeats
        rng = np.random.default_rng(n)
        a, b, c = (int.from_bytes(rng.bytes(17), "little") % (1 << n) for _ in range(3))
        top = 1 << (n - 1)  # the last column, past any word boundary
        rows = [a, b, a, 0, c | top, top]
        got = _span_weight_counts(rows, n)
        assert got == brute_span_counts(rows, n)
        assert got[0] >= 4 and sum(got) == 1 << len(rows)

    def test_counts_are_python_ints(self):
        got = _span_weight_counts([0b101, 0b11], 3)
        assert got == [1, 0, 3, 0] and all(type(c) is int for c in got)
