"""The byte-wise divisions against the bit-serial loops they replaced.

The bit-serial polynomial division, series inverse, message read-off and
minimal polynomial of an earlier release are kept below verbatim as
``_ref_*`` references (only their calls to one another are renamed);
``_ref_bch_generator``, ``_ref_message_inverse`` and ``_ref_code`` rebuild
that release's construction from them.  Every quotient, remainder, inverse,
polynomial, table and message of the byte-wise code must be ``==`` to theirs.
"""

import functools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbc.bch import coset_table, cyclotomic_coset, field_for_length, minimal_polynomial
from plbc.codec import (
    _extract_message,
    _series_inverse,
    construct_pbch,
    params_for,
)
from plbc.errors import ConstructionError
from plbc.gf2 import (
    _byte_table,
    _divide_bytes,
    _pack,
    _transpose_words,
    _unpack,
    poly_divmod,
    poly_mul,
    poly_reciprocal,
)


def _ref_poly_divmod(num: int, den: int) -> tuple[int, int]:
    """Quotient and remainder of binary polynomial long division."""
    if num < 0 or den < 0:
        raise ValueError("polynomials are nonnegative ints")
    if den == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dd = den.bit_length()
    quo = 0
    rem = num
    while rem.bit_length() >= dd:
        shift = rem.bit_length() - dd
        quo |= 1 << shift
        rem ^= den << shift
    return quo, rem


def _ref_series_inverse(g: int, big_k: int) -> int:
    """u = 1/g mod x^K for g(0) = 1, by K steps of series division."""
    u, acc = 0, 1
    for i in range(big_k):
        if acc & 1:
            u |= 1 << i
            acc ^= g
        acc >>= 1
    return u


def _ref_extract_message(code, c: int) -> int:
    """The message T c read off a word, from the polynomials of T."""
    big_k = code.params.k + code.params.l
    low = (1 << big_k) - 1
    prod = 0
    for j, byte in enumerate((c & low).to_bytes((big_k + 7) >> 3, "little")):
        if byte:
            prod ^= code._u_bytes[byte] << 8 * j
    return _ref_poly_divmod(prod & low, code._q)[1]


def _ref_minimal_polynomial(j: int, field) -> int:
    """Minimal polynomial of alpha^j over GF(2), as a plain int."""
    coset = cyclotomic_coset(j, field.n)
    # expand prod_{i in coset} (x + alpha^i) with GF(2^m) coefficients
    coeffs = [1]
    for e in coset.members:
        root = field.alpha_pow(e)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(c, root)
        coeffs = nxt
    poly = 0
    for d, c in enumerate(coeffs):
        if c > 1:
            raise ConstructionError(
                "minimal polynomial of alpha^%d has a non-binary coefficient" % j
            )
        poly |= c << d
    return poly


def _ref_bch_generator(n: int, delta: int) -> int:
    field = field_for_length(n)
    table = coset_table(n)
    g = 1
    for coset in table.cosets[:table.count[delta]]:
        g = poly_mul(g, _ref_minimal_polynomial(coset.leader, field))
    return g


def _ref_message_inverse(n: int, g: int, p: int) -> list[int]:
    """T's rows (see ``codec.message_inverse``)."""
    q, rem = _ref_poly_divmod(p, g)
    if rem:
        raise ConstructionError("masking generator is not a multiple of g")
    k = q.bit_length() - 1
    big_k = n - (g.bit_length() - 1)
    u = _ref_series_inverse(g, big_k)
    t = _ref_poly_divmod(u, q)[1]
    xk = _ref_poly_divmod(1 << big_k, q)[1]
    cols = []
    for i in range(big_k):
        cols.append(t)
        t <<= 1
        if t >> k:
            t ^= q
        if (u >> (big_k - 1 - i)) & 1:
            t ^= xk
    words = _pack(cols + [0] * (n - big_k), k)
    del cols
    t_words = _transpose_words(words, k)
    del words
    return _unpack(t_words)


def _ref_code(n: int, k: int, l: int):
    """g, h*, p and the read-off tables q and u's byte multiples, as the
    construction of the earlier release made them."""
    params = params_for(n, k, l)
    g = _ref_bch_generator(n, params.d1 or 1)
    hstar = _ref_bch_generator(n, params.d0 or 1)
    p = _ref_poly_divmod((1 << n) | 1, poly_reciprocal(hstar))[0]
    ref = types.SimpleNamespace(params=params, g_poly=g, hstar_poly=hstar, p_poly=p)
    ref._mask_cols, col, low = [], 0, (1 << l) - 1
    for bit in reversed(format(p, "0%db" % n)[-n:]):
        col = (col << 1 | (bit == "1")) & low
        ref._mask_cols.append(col)
    ref._q = _ref_poly_divmod(p, g)[0]
    u = _ref_series_inverse(g, params.k + l)
    ref._u_bytes = [0]
    for b in range(1, 256):
        ref._u_bytes.append(ref._u_bytes[b >> 1] << 1 ^ (u if b & 1 else 0))
    return ref


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

@st.composite
def division_cases(draw):
    """(num, den) with den >= 1 and a quotient of 0 to 17 bits."""
    den = draw(st.integers(1, (1 << 40) - 1))
    deg = den.bit_length() - 1
    qlen = draw(st.integers(0, 17))
    if qlen == 0:
        return draw(st.integers(0, (1 << deg) - 1)), den
    top = 1 << (deg + qlen - 1)
    return top | draw(st.integers(0, top - 1)), den


class TestPolyDivmod:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=division_cases())
    def test_short_quotients_match_reference(self, case):
        num, den = case
        assert poly_divmod(num, den) == _ref_poly_divmod(num, den)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(num=st.integers(0, (1 << 600) - 1), den=st.integers(1, (1 << 200) - 1))
    def test_long_quotients_match_reference(self, num, den):
        assert poly_divmod(num, den) == _ref_poly_divmod(num, den)

    @pytest.mark.parametrize("num,den", [
        (0, 1), (0, 0b1011), (1, 1), ((1 << 77) | 5, 1), (0b110, 0b1011),
        (0b1010, 0b1011), ((1 << 100) | 1, 0b11), ((1 << 15) | 1, 0b11001),
        ((1 << 2047) | 1, (1 << 23) | 0b101), (0b1000, 0b100),
    ])
    def test_edge_cases_match_reference(self, num, den):
        assert poly_divmod(num, den) == _ref_poly_divmod(num, den)

    @pytest.mark.parametrize("num,den,exc", [
        (-1, 3, ValueError), (5, -3, ValueError), (5, 0, ZeroDivisionError),
        (0, 0, ZeroDivisionError),
    ])
    def test_errors_match_reference(self, num, den, exc):
        for divide in (poly_divmod, _ref_poly_divmod):
            with pytest.raises(exc):
                divide(num, den)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(num=st.integers(0, (1 << 300) - 1), half=st.integers(0, (1 << 40) - 1),
           nbytes=st.integers(0, 40))
    def test_divide_bytes_identity(self, num, half, nbytes):
        # num = quo den + x^(8 nbytes) rest with deg quo < 8 nbytes
        den = 2 * half + 1
        quo, rest = _divide_bytes(num, _byte_table(den), nbytes)
        assert quo >> 8 * nbytes == 0
        assert poly_mul(quo, den) ^ rest << 8 * nbytes == num


class TestSeriesInverse:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(half=st.integers(0, (1 << 64) - 1), big_k=st.integers(0, 140))
    def test_matches_reference(self, half, big_k):
        g = 2 * half + 1
        assert _series_inverse(g, big_k) == _ref_series_inverse(g, big_k)


# ---------------------------------------------------------------------------
# minimal polynomials and construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 13))
def test_minimal_polynomials_match_reference(m):
    n = (1 << m) - 1
    field = field_for_length(n)
    for coset in coset_table(n).cosets:
        j = coset.leader
        assert minimal_polynomial(j, field) == _ref_minimal_polynomial(j, field)
    assert minimal_polynomial(0, field) == _ref_minimal_polynomial(0, field) == 0b11


def test_minimal_polynomials_match_reference_m16():
    field = field_for_length(65535)
    for coset in coset_table(65535).cosets[:20]:
        j = coset.leader
        assert minimal_polynomial(j, field) == _ref_minimal_polynomial(j, field)


def _buildable_splits(max_m):
    for m in range(2, max_m + 1):
        n = (1 << m) - 1
        for l in range(0, n, m):
            for r in range(0, n - l, m):
                try:
                    params_for(n, n - l - r, l)
                except ConstructionError:
                    continue
                yield n, n - l - r, l


SMALL_SPLITS = list(_buildable_splits(6))


def _assert_construction_matches(code, ref, with_inverse=True):
    assert (code.g_poly, code.hstar_poly, code.p_poly) == (
        ref.g_poly, ref.hstar_poly, ref.p_poly)
    assert code._q == ref._q
    assert code._mask_cols == ref._mask_cols
    if with_inverse:
        n = code.params.n
        assert code.msg_inverse.row_ints() == _ref_message_inverse(n, ref.g_poly, ref.p_poly)


def _assert_read_off_matches(code, ref, words):
    rng = np.random.default_rng(code.params.n + code.params.l)
    n = code.params.n
    cs = [0, (1 << n) - 1, code.g_poly, code.p_poly]
    cs += [int.from_bytes(rng.bytes((n + 7) // 8), "little") >> (-n % 8) for _ in range(words)]
    for c in cs:
        assert _extract_message(code, c) == _ref_extract_message(ref, c)


def test_small_splits_cover_both_degenerate_parts():
    assert len(SMALL_SPLITS) == 61
    assert any(l == 0 for _, _, l in SMALL_SPLITS)
    assert any(n - k - l == 0 for n, k, l in SMALL_SPLITS)


@pytest.mark.parametrize("m", range(2, 7))
def test_every_small_split_matches_reference(m):
    n = (1 << m) - 1
    for split in SMALL_SPLITS:
        if split[0] == n:
            code, ref = construct_pbch(*split), _ref_code(*split)
            _assert_construction_matches(code, ref)
            _assert_read_off_matches(code, ref, 20)


@pytest.mark.parametrize("n,k,l", [
    (1023, 923, 0), (1023, 923, 100), (1023, 923, 20), (2047, 1937, 22),
])
def test_larger_codes_match_reference(n, k, l):
    code, ref = construct_pbch(n, k, l), _ref_code(n, k, l)
    _assert_construction_matches(code, ref)
    _assert_read_off_matches(code, ref, 30)


def test_m16_code_matches_reference():
    # T itself (65503 x 65535 bits) is not built at m = 16; the read-off is
    # compared word by word instead
    code, ref = construct_pbch(65535, 65503, 16), _ref_code(65535, 65503, 16)
    _assert_construction_matches(code, ref, with_inverse=False)
    _assert_read_off_matches(code, ref, 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split=st.sampled_from([(15, 7, 4), (15, 3, 4), (15, 7, 0), (15, 7, 8),
                              (31, 16, 10), (63, 45, 12), (63, 39, 0)]),
       c=st.integers(0, (1 << 63) - 1))
def test_read_off_matches_reference(split, c):
    # K = k + l is 11, 7, 7, 15, 26, 57 and 39 here: none a multiple of 8
    code, ref = _code_and_reference(split)
    c &= (1 << split[0]) - 1
    assert _extract_message(code, c) == _ref_extract_message(ref, c)


@functools.cache
def _code_and_reference(split):
    return construct_pbch(*split), _ref_code(*split)
