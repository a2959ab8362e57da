import copy
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plbc.bch import bch_parity_check
from plbc.bounds import weight_distribution
from plbc.channel import DefectVector, transmit
from plbc.codec import (
    PbchCode,
    PlbcParams,
    _check_code_identities,
    _chien_roots,
    _decode_words,
    _min_weight_using,
    construct_pbch,
    decode,
    encode,
    masking_polys,
    message_inverse,
    params_for,
    verify_distances,
)
from plbc.errors import ConstructionError
from plbc.gf2 import (
    BitMatrix,
    BitVector,
    _pack,
    _solve_two_step,
    _transpose_words,
    _unpack,
    poly_divmod,
    rref,
)

CANDIDATE_FAMILY_1023 = [
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


def rref_message_inverse(gen_message, gen_mask):
    """Reference T: one elimination over [G1 | I_k ; G0 | 0], free variables 0.

    Row i of the reduced matrix with pivot column c puts its I_k tail into
    column c of T; columns without a pivot stay zero.
    """
    k, n = gen_message.rows, gen_message.cols
    rows = [row | 1 << (n + i) for i, row in enumerate(gen_message.row_ints())]
    rows += gen_mask.row_ints()
    red, pivots = rref(BitMatrix(rows, n + k), n_pivot_cols=n)
    assert len(pivots) == len(rows)
    t_cols = [0] * n
    for row, col in zip(red.row_ints(), pivots):
        t_cols[col] = row >> n
    return BitMatrix(transpose_ints(t_cols, k), n)


def transpose_ints(rows, cols):
    """The columns, as ints, of the matrix with these rows, by the block
    transpose kernel (checked against numpy in tests/test_gf2.py)."""
    return _unpack(_transpose_words(_pack(rows, cols), cols))


def _tap_xor(cols, poly, rows):
    """Row i is the XOR of cols[i + s] over the taps s of poly, i < rows."""
    acc = np.zeros((rows, cols.shape[1]), dtype=np.uint64)
    while poly:
        low = poly & -poly
        s = low.bit_length() - 1
        acc ^= cols[s:s + rows]
        poly ^= low
    return acc


def check_matrix_identities(code, msg_inverse=None, parity=None):
    """G1 T^T = I, G0 T^T = 0 and H [G1; G0]^T = 0, word by word.

    T and H are the code's unless given.  Row i of G1 (G0) is g(x) x^i
    (p(x) x^i), so row i of M G1^T is the XOR of M's columns i + s over the
    taps s of g; the columns of T and H come from one transpose each (H is
    empty when r = 0).  Raises AssertionError naming the first failure.
    """
    p = code.params
    t = code.msg_inverse if msg_inverse is None else msg_inverse
    h = code.parity if parity is None else parity
    t_cols = _transpose_words(t.words, t.cols)
    h_cols = _transpose_words(h.words, h.cols)
    g1_t_xor_i = _tap_xor(t_cols, code.g_poly, p.k)
    idx = np.arange(p.k)
    g1_t_xor_i[idx, idx >> 6] ^= np.uint64(1) << (idx & 63).astype(np.uint64)
    for what, bad in (("gen_message * msg_inverse^T != I", g1_t_xor_i),
                      ("gen_mask * msg_inverse^T != 0", _tap_xor(t_cols, code.p_poly, p.l)),
                      ("gen_message rows fail parity", _tap_xor(h_cols, code.g_poly, p.k)),
                      ("gen_mask rows fail parity", _tap_xor(h_cols, code.p_poly, p.l))):
        rows = np.flatnonzero(bad.any(axis=1))
        assert not rows.size, "%s at row %d" % (what, rows[0])


def check_single_copies(code):
    """The codec's G0 columns and H rows equal the matrices they stand for."""
    p = code.params
    assert code._mask_cols == transpose_ints(code.gen_mask.row_ints(), p.n)
    want = bch_parity_check(p.n, p.d1).row_ints() if p.r else []
    assert code.parity.row_ints() == want


def parities(mat, v):
    """M v^T as an int: bit i is the parity of row i of M ANDed with v."""
    return sum(((row & v.value).bit_count() & 1) << i
               for i, row in enumerate(mat.row_ints()))


def gray_min_weight(row_ints, skip=None):
    """Reference: least weight over the nonzero combinations of row_ints by
    a Gray-code walk, leaving out those whose index state ``skip`` accepts."""
    best = None
    cur = state = 0
    for i in range(1, 1 << len(row_ints)):
        flip = (i & -i).bit_length() - 1
        cur ^= row_ints[flip]
        state ^= 1 << flip
        if skip is not None and skip(state):
            continue
        if best is None or cur.bit_count() < best:
            best = cur.bit_count()
    return 0 if best is None else best


def gray_distances(code):
    """Reference (d0, d1): d1 leaves out the combinations of G0's rows alone."""
    p = code.params
    d0 = d1 = 0
    if p.l:
        d0 = gray_min_weight([code.hstar_poly << i for i in range(p.n - p.l)])
    if p.r:
        rows = code.gen_message.row_ints() + code.gen_mask.row_ints()
        kmask = (1 << p.k) - 1
        d1 = gray_min_weight(rows, skip=lambda st: not (st & kmask))
    return d0, d1


def all_messages(k):
    for wi in range(1 << k):
        yield BitVector.from_int(k, wi)


class TestParams:
    def test_allocation_family_n1023(self):
        for l, r, d0, d1 in CANDIDATE_FAMILY_1023:
            p = params_for(1023, 923, l)
            assert (p.l, p.r, p.d0, p.d1) == (l, r, d0, d1)
            assert p.m == 10 and p.k == 923

    def test_small_family(self):
        p = params_for(15, 7, 4)
        assert (p.d0, p.d1, p.t0, p.t1) == (3, 3, 1, 1)
        p = params_for(15, 7, 0)
        assert (p.d0, p.d1) == (0, 5)
        p = params_for(15, 7, 8)
        assert (p.d0, p.d1) == (5, 0)

    def test_l_not_multiple(self):
        with pytest.raises(ConstructionError):
            params_for(1023, 923, 5)

    def test_r_not_multiple(self):
        with pytest.raises(ConstructionError):
            params_for(15, 6, 4)

    def test_usage_errors(self):
        with pytest.raises(ValueError):
            params_for(14, 7, 4)
        with pytest.raises(ValueError):
            params_for(15, 0, 4)
        with pytest.raises(ValueError):
            params_for(15, 13, 4)
        with pytest.raises(ValueError):
            params_for(15, 7, -4)

    def test_three_init_fields(self):
        init = [f.name for f in dataclasses.fields(PlbcParams) if f.init]
        assert init == ["n", "k", "l"]
        p = PlbcParams(1023, 923, 20)
        assert (p.r, p.m, p.t0, p.t1, p.d0, p.d1) == (80, 10, 2, 8, 5, 17)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.d0 = 7

    @pytest.mark.parametrize("n,k,l,error", [
        (15, 7, 4, None), (15, 7, 0, None), (15, 7, 8, None),
        ((1 << 16) - 1, (1 << 16) - 17, 16, None),
        (1023, 923, 5, ConstructionError), (15, 6, 4, ConstructionError),
        (14, 7, 4, ValueError), (15, 0, 4, ValueError), (15, 13, 4, ValueError),
        (15, 7, -4, ValueError), (0, 1, 0, ValueError),
        # lengths 2^m - 1 outside the supported fields, m = 1 and m = 17
        (1, 1, 0, ValueError), ((1 << 17) - 1, (1 << 17) - 35, 17, ValueError),
        ((1 << 17) - 1, 923, 20, ValueError),
    ])
    def test_direct_construction_validates_like_params_for(self, n, k, l, error):
        def outcome(make):
            try:
                return make(n, k, l)
            except (ValueError, ConstructionError) as exc:
                return type(exc), str(exc)

        got = outcome(PlbcParams)
        assert got == outcome(params_for)
        if error is None:
            assert (got.n, got.k, got.l, got.r) == (n, k, l, n - k - l)
        else:
            assert got[0] is error


class TestConstruction:
    def test_frozen_polynomials(self, code15):
        assert code15.g_poly == 0b10011
        assert code15.p_poly == 0b111101011001

    def test_four_init_fields(self):
        init = [f.name for f in dataclasses.fields(PbchCode) if f.init]
        assert init == ["params", "g_poly", "p_poly", "hstar_poly"]
        assert not [f.name for f in dataclasses.fields(PbchCode) if not f.init]

    def test_matrix_shapes(self, code15):
        assert (code15.gen_message.rows, code15.gen_message.cols) == (7, 15)
        assert (code15.gen_mask.rows, code15.gen_mask.cols) == (4, 15)
        assert (code15.parity.rows, code15.parity.cols) == (4, 15)
        assert (code15.msg_inverse.rows, code15.msg_inverse.cols) == (7, 15)

    def test_message_inverse_identities(self, code15):
        # G1 Gt^T = I and G0 Gt^T = 0
        for i, row in enumerate(code15.gen_message.row_ints()):
            assert parities(code15.msg_inverse, BitVector(15, row)) == 1 << i
        for row in code15.gen_mask.row_ints():
            assert parities(code15.msg_inverse, BitVector(15, row)) == 0

    def test_trivial_intersection(self, code15):
        stacked = code15.gen_message.row_ints() + code15.gen_mask.row_ints()
        assert len(rref(BitMatrix(stacked, 15))[1]) == 11

    def test_parity_rows_are_odd_syndrome_bits(self, code15, code15_t2, code1023_l20):
        # _syndromes reads the odd syndromes off H: row j*m + b must hold
        # bit b of alpha^((2j+1)i) at position i
        for code in (code15, code15_t2, code1023_l20, construct_pbch(63, 45, 12)):
            n, m, t1 = code.params.n, code.field.m, code.params.t1
            for j in range(t1):
                vals = code.field.exp_np[(np.arange(n) * (2 * j + 1)) % n]
                want = (vals >> np.arange(m)[:, None]) & 1
                got = code.parity.row_ints()[j * m:(j + 1) * m]
                assert got == [BitVector.from_bits(bits).value for bits in want]

    def test_parity_annihilates_both(self, code15):
        for row in code15.gen_message.row_ints() + code15.gen_mask.row_ints():
            assert parities(code15.parity, BitVector(15, row)) == 0

    def test_distances_check_out(self, code15, code15_t2):
        assert verify_distances(code15) == (3, 3)
        assert verify_distances(code15_t2) == (3, 5)

    def test_degenerate_distances(self):
        only_mask = construct_pbch(15, 7, 8)
        d0, d1 = verify_distances(only_mask)
        assert (d0, d1) == (5, 0)
        only_ecc = construct_pbch(15, 7, 0)
        d0, d1 = verify_distances(only_ecc)
        assert (d0, d1) == (0, 5)

    def test_distances_match_gray_walk(self):
        # every code at n in {15, 31} under verify_distances' 2^24 limit
        shapes = []
        for n in (15, 31):
            for k in range(1, n + 1):
                for l in range(n - k + 1):
                    if n - l > 24 or k + l > 24:
                        continue
                    try:
                        code = construct_pbch(n, k, l)
                    except ConstructionError:
                        continue
                    assert verify_distances(code) == gray_distances(code)
                    shapes.append((n, k, l))
        assert len(shapes) == 12

    def test_min_weight_using_matches_gray_walk(self):
        # low-weight and repeated rows past the first k must not count, and
        # a dependent combination that uses a leading row has weight 0
        rng = np.random.default_rng(5)
        for trial in range(40):
            dim = int(rng.integers(1, 9))
            rows = [int(v) for v in rng.integers(0, 1 << 20, size=dim)]
            if trial % 4 == 1:
                rows[-1] = 1 << int(rng.integers(20))
            if trial % 4 == 2:
                rows.append(rows[0])
            k = int(rng.integers(1, len(rows) + 1))
            kmask = (1 << k) - 1
            want = gray_min_weight(rows, skip=lambda st: not (st & kmask))
            assert _min_weight_using(rows, k, 20) == want

    def test_verify_budget(self, code1023_l20):
        with pytest.raises(ValueError):
            verify_distances(code1023_l20)

    def test_construct_1023(self, code1023_l20):
        p = code1023_l20.params
        assert (p.l, p.r, p.d0, p.d1) == (20, 80, 5, 17)

    def test_rejects_bad_l(self):
        with pytest.raises(ConstructionError):
            construct_pbch(1023, 923, 5)


class TestMasking:
    def test_small_u_always_step1(self, code15):
        # any d0-1 = 2 columns of G0 are independent, so step 1 cannot fail
        w = BitVector.from_int(7, 91)
        for u in (1, 2):
            for pos in itertools.combinations(range(15), u):
                for vals in itertools.product((0, 1), repeat=u):
                    s = DefectVector.from_positions(15, list(pos), list(vals))
                    res = encode(code15, w, s)[1]
                    assert res.step_used == 1
                    assert res.unmasked == 0

    def test_u0(self, code15):
        res = encode(code15, BitVector(7), DefectVector.all_clear(15))[1]
        assert res.unmasked == 0 and res.step_used == 1
        assert res.d.weight() == 0

    def test_step2_leaves_one_cell(self, code15):
        # at u = 3 = d0, step 2 masks the first two stuck cells, so the
        # residue is exactly one mismatched cell whenever step 1 fails
        rng = np.random.default_rng(23)
        step2 = 0
        for _ in range(500):
            w = BitVector.from_int(7, int(rng.integers(0, 128)))
            pos = sorted(int(i) for i in rng.choice(15, size=3, replace=False))
            vals = [int(v) for v in rng.integers(0, 2, size=3)]
            s = DefectVector.from_positions(15, pos, vals)
            res = encode(code15, w, s)[1]
            if res.step_used == 2:
                step2 += 1
                assert res.unmasked == 1
                c, _ = encode(code15, w, s)
                mismatches = [
                    i for i in pos if c.get(i) != s.values.get(i)
                ]
                assert len(mismatches) == 1
                assert mismatches[0] == pos[2]  # first d0-1 stuck cells masked
            else:
                assert res.unmasked == 0
        assert step2 > 0

    def test_masked_codeword_survives_defects(self, code15):
        rng = np.random.default_rng(29)
        from plbc.channel import transmit

        for _ in range(300):
            w = BitVector.from_int(7, int(rng.integers(0, 128)))
            u = int(rng.integers(0, 3))
            pos = sorted(int(i) for i in rng.choice(15, size=u, replace=False))
            vals = [int(v) for v in rng.integers(0, 2, size=u)]
            s = DefectVector.from_positions(15, pos, vals)
            c, res = encode(code15, w, s)
            assert res.unmasked == 0
            assert transmit(c, s, BitVector(15)) == c

    def test_one_step_baseline_never_beats_two_step(self, code15):
        # one-step always solves just the first d0-1 stuck cells; two-step
        # falls back to that same system only after the full solve fails
        def one_step_unmasked(w, s):
            l = code15.params.l
            rows = code15.gen_mask.row_ints()
            c1 = encode(code15, w, DefectVector.all_clear(15))[0].value
            mismatch = c1 ^ s.values.value
            stuck = [i for i in range(15) if s.mask.value >> i & 1]
            aug = [sum((row >> i & 1) << j for j, row in enumerate(rows))
                   | (mismatch >> i & 1) << l for i in stuck]
            d, _, step = _solve_two_step(aug[:min(code15.params.d0 - 1, len(aug))], l, 0)
            assert step == 1  # the first d0 - 1 rows always admit a solution
            c = c1
            for j, row in enumerate(rows):
                if d >> j & 1:
                    c ^= row
            return ((c ^ s.values.value) & s.mask.value).bit_count()

        rng = np.random.default_rng(31)
        two_step_wins = 0
        for _ in range(600):
            w = BitVector.from_int(7, int(rng.integers(0, 128)))
            u = int(rng.integers(0, 6))
            pos = sorted(int(i) for i in rng.choice(15, size=u, replace=False))
            vals = [int(v) for v in rng.integers(0, 2, size=u)]
            s = DefectVector.from_positions(15, pos, vals)
            two = encode(code15, w, s)[1]
            one = one_step_unmasked(w, s)
            assert two.unmasked <= one
            if u <= 2:
                assert one == 0
            if two.step_used == 2:
                assert one == two.unmasked
            elif one > 0:
                two_step_wins += 1
        assert two_step_wins > 0

    def test_encode_codeword_in_code(self, code15):
        rng = np.random.default_rng(37)
        for _ in range(100):
            w = BitVector.from_int(7, int(rng.integers(0, 128)))
            c, _ = encode(code15, w, DefectVector.all_clear(15))
            assert parities(code15.parity, c) == 0

    def test_encode_arg_validation(self, code15):
        with pytest.raises(ValueError):
            encode(code15, BitVector(8), DefectVector.all_clear(15))
        with pytest.raises(ValueError):
            encode(code15, BitVector(7), DefectVector.all_clear(14))


# The two-solve masking of an earlier release, kept verbatim as the reference
# for the one-pass solver: Gauss-Jordan on the whole system, then on the
# first d0 - 1 rows, then a count of the rows the step-2 solution misses.

def _ref_eliminate(rows: list[int], n_cols: int) -> list[int]:
    nrows = len(rows)
    pivots: list[int] = []
    prow = 0
    for col in range(n_cols):
        if prow == nrows:
            break
        bit = 1 << col
        for piv in range(prow, nrows):
            if rows[piv] & bit:
                break
        else:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pr = rows[prow]
        for i in range(nrows):
            if i != prow and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(col)
        prow += 1
    return pivots


def _ref_solve_aug_rows(rows: list[int], width: int) -> int | None:
    rows = list(rows)
    pivots = _ref_eliminate(rows, width)
    npiv = len(pivots)
    rhs = 1 << width
    x = 0
    for i, row in enumerate(rows):
        if row & rhs:
            if i >= npiv:  # a zero row with RHS 1
                return None
            x |= 1 << pivots[i]
    return x


def _ref_solve_mask(code: PbchCode, aug: list[int]) -> tuple[int, int, int]:
    l = code.params.l
    d = _ref_solve_aug_rows(aug, l)
    if d is not None:
        return d, 0, 1
    d = _ref_solve_aug_rows(aug[:max(code.params.d0 - 1, 0)], l)
    if d is None:
        raise AssertionError("restricted masking system must be solvable")
    return d, _ref_residual_weight(d, aug, l), 2


def _ref_residual_weight(d: int, aug: list[int], l: int) -> int:
    rhs = 1 << l
    count = 0
    for row in aug:
        acc = 1 if row & rhs else 0
        if d and (row & (rhs - 1)):
            acc ^= (d & row & (rhs - 1)).bit_count() & 1
        count += acc
    return count


@pytest.mark.parametrize("n,k,l", [(15, 7, 4), (15, 11, 0), (63, 45, 12), (1023, 923, 20)])
def test_masking_matches_two_solve_reference(n, k, l):
    # the system is built here from G1 and G0, not from the codec's tables:
    # row j is G0's column at the j-th stuck cell, with the mismatch between
    # w G1 and the stuck value there at bit l
    code = construct_pbch(n, k, l)
    d0 = code.params.d0
    g1, g0 = code.gen_message.row_ints(), code.gen_mask.row_ints()
    rng = np.random.default_rng(n + l)
    seen = set()
    for trial in range(600):
        u = min(trial % (3 * l + 7), n)  # every u from 0 to 3l + 6 in turn
        pos = sorted(int(i) for i in rng.choice(n, size=u, replace=False))
        vals = [int(v) for v in rng.integers(0, 2, size=u)]
        w = int.from_bytes(rng.bytes((k + 7) // 8), "little") % (1 << k)
        s = DefectVector.from_positions(n, pos, vals)
        res = encode(code, BitVector(k, w), s)[1]
        c1 = 0
        for i, row in enumerate(g1):
            if w >> i & 1:
                c1 ^= row
        mismatch = c1 ^ s.values.value
        aug = [sum((row >> j & 1) << i for i, row in enumerate(g0)) | (mismatch >> j & 1) << l
               for j in pos]
        assert (res.d.value, res.unmasked, res.step_used) == _ref_solve_mask(code, aug)
        seen.add((u == 0, u <= d0 - 1, res.step_used, res.unmasked > 1))
    # u = 0, 0 < u <= d0 - 1 (when d0 > 1), and both steps, with step 2
    # leaving more than one cell, all came up
    want = {(True, True, 1)} if l else {(True, False, 1)}
    if d0 > 1:
        want.add((False, True, 1))
    want |= {(False, False, 1), (False, False, 2)}
    assert want <= {key[:3] for key in seen}
    assert (False, False, 2, True) in seen


class TestDecode:
    def test_roundtrip_no_noise(self, code15):
        for w in all_messages(7):
            c, _ = encode(code15, w, DefectVector.all_clear(15))
            out = decode(code15, c)
            assert out.status == "corrected"
            assert out.z_weight == 0
            assert out.w_hat == w

    def test_single_errors_all_corrected(self, code15):
        w = BitVector.from_int(7, 45)
        c, _ = encode(code15, w, DefectVector.all_clear(15))
        for i in range(15):
            out = decode(code15, c ^ BitVector.from_indices(15, [i]))
            assert out.status == "corrected"
            assert out.z_weight == 1
            assert out.w_hat == w

    def test_double_error_census_perfect_code(self, code15):
        # the ambient code C1 + C0 is the perfect [15,11] Hamming code, so
        # every double error lands within distance 1 of a wrong codeword:
        # all 105 miscorrect and none are detected  [frozen census]
        w = BitVector.from_int(7, 37)
        c, _ = encode(code15, w, DefectVector.all_clear(15))
        outcomes = {"corrected": 0, "detected_failure": 0}
        wrong = 0
        for i, j in itertools.combinations(range(15), 2):
            out = decode(code15, c ^ BitVector.from_indices(15, [i, j]))
            outcomes[out.status] += 1
            wrong += out.w_hat != w
        assert outcomes == {"corrected": 105, "detected_failure": 0}
        assert wrong == 105

    def test_two_error_correction_t2_code(self, code15_t2):
        w = BitVector.from_int(3, 5)
        c, _ = encode(code15_t2, w, DefectVector.all_clear(15))
        for pos in itertools.combinations(range(15), 2):
            out = decode(code15_t2, c ^ BitVector.from_indices(15, list(pos)))
            assert out.status == "corrected"
            assert out.z_weight == 2
            assert out.w_hat == w

    def test_triple_error_census_t2_code(self, code15_t2):
        # beyond t1 = 2: frozen census of detected vs miscorrected outcomes
        w = BitVector.from_int(3, 5)
        c, _ = encode(code15_t2, w, DefectVector.all_clear(15))
        detected = miscorrected = good = 0
        for pos in itertools.combinations(range(15), 3):
            out = decode(code15_t2, c ^ BitVector.from_indices(15, list(pos)))
            if out.status == "detected_failure":
                detected += 1
                assert out.z_weight == 0
            elif out.w_hat == w:
                good += 1
            else:
                miscorrected += 1
        assert (detected, miscorrected, good) == (275, 180, 0)

    @pytest.mark.parametrize("n, k, l, words", [
        (15, 3, 4, None),  # every word of the space
        (31, 6, 10, 8000),
        (63, 33, 12, 8000),
        (255, 199, 16, 20000),
    ])
    def test_corrections_are_codewords_within_t1(self, n, k, l, words):
        # flipping the Chien roots of a Berlekamp-Massey locator with deg L
        # <= t1 and L distinct roots always clears S_1..S_2t1, so every
        # 'corrected' word is a multiple of g within t1 of the received word
        code = construct_pbch(n, k, l)
        if words is None:
            ys = range(1 << n)
        else:
            rng = np.random.default_rng(n)
            ys = [int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
                  for _ in range(words)]
        fixed = 0
        for y in ys:
            c, status, z_weight = _decode_words(code, y)
            if status != "corrected":
                continue
            assert poly_divmod(c, code.g_poly)[1] == 0
            assert (c ^ y).bit_count() == z_weight <= code.params.t1
            fixed += z_weight > 0
        assert fixed >= 100

    def test_chien_roots_degree_10_n16383(self):
        # kk i reaches 10 n here, so every term's exponent must fold right
        # for the sweep to find the ten positions the locator was built from
        code = construct_pbch(16383, 16383 - 140, 0)
        field = code.field
        rng = np.random.default_rng(14)
        for _ in range(3):
            positions = sorted(rng.choice(16383, 10, replace=False).tolist())
            sigma = [1]
            for i in positions:  # times (1 + alpha^i x)
                x = field.alpha_pow(i)
                sigma = [a ^ field.mul(b, x) for a, b in zip(sigma + [0], [0] + sigma)]
            assert sorted(_chien_roots(code, sigma)) == positions

    def test_r0_code_is_identity_decoder(self):
        code = construct_pbch(15, 7, 8)
        w = BitVector.from_int(7, 99)
        c, _ = encode(code, w, DefectVector.all_clear(15))
        out = decode(code, c)
        assert out.status == "corrected" and out.w_hat == w

    def test_decode_arg_validation(self, code15):
        with pytest.raises(ValueError):
            decode(code15, BitVector(14))


@st.composite
def plbc_shapes(draw):
    """An (n, k, l) with l and r = n - k - l multiples of m and k >= 1;
    the split need not be buildable."""
    n = draw(st.sampled_from([15, 31, 63, 127]))
    m = n.bit_length()
    units = (n - 1) // m
    t0 = draw(st.integers(0, units))
    t1 = draw(st.integers(0, units - t0))
    return n, n - (t0 + t1) * m, t0 * m


class TestConstructionProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape=plbc_shapes(), seed=st.integers(0, 2**32 - 1))
    def test_construct_or_clean_error(self, shape, seed):
        n, k, l = shape
        d0 = 2 * (l // n.bit_length()) + 1 if l else 0
        try:
            params = params_for(n, k, l)
        except ConstructionError:
            params = None
        try:
            code = construct_pbch(n, k, l)
        except ConstructionError:
            code = None
        assert (code is None) == (params is None)
        try:
            masking_polys(n, l, d0)
            mask_ok = True
        except ConstructionError:
            mask_ok = False
        if code is not None:
            assert mask_ok
            assert code.msg_inverse == rref_message_inverse(code.gen_message, code.gen_mask)
            check_matrix_identities(code)
            check_single_copies(code)
            rng = np.random.default_rng(seed)
            for _ in range(4):
                w = BitVector.from_bits(rng.integers(0, 2, size=k))
                cells = rng.permutation(n)
                u = int(rng.integers(0, max(params.d0 - 1, 0) + 1))
                t = int(rng.integers(0, params.t1 + 1))
                stuck = sorted(cells[:u].tolist())
                s = DefectVector.from_positions(
                    n, stuck, rng.integers(0, 2, size=u).tolist()
                )
                c, mres = encode(code, w, s)
                assert mres.unmasked == 0
                y = transmit(c, s, BitVector.from_indices(n, cells[u:u + t]))
                out = decode(code, y)
                assert out.status == "corrected" and out.w_hat == w
        # the 2^l dual walk stays fast up to l = 18
        if l <= 18:
            try:
                wd = weight_distribution(n, l, d0, "macwilliams")
            except ConstructionError:
                wd = None
            assert (wd is not None) == mask_ok
            if wd is not None:
                assert wd.counts.sum() == pytest.approx(2.0 ** (n - l), rel=1e-12)
                assert not wd.counts[1:d0].any()


class TestMessageInverse:
    """T from the polynomials equals the elimination's T bit for bit."""

    @pytest.mark.parametrize("l", [row[0] for row in CANDIDATE_FAMILY_1023])
    def test_table2_candidates_match_reference(self, l):
        code = construct_pbch(1023, 923, l)
        assert code.msg_inverse == rref_message_inverse(code.gen_message, code.gen_mask)
        check_matrix_identities(code)
        check_single_copies(code)

    def test_n2047_matches_reference(self):
        code = construct_pbch(2047, 1937, 22)
        assert code.msg_inverse == rref_message_inverse(code.gen_message, code.gen_mask)
        check_matrix_identities(code)
        check_single_copies(code)

    def test_from_polynomials(self, code15):
        got = message_inverse(15, code15.g_poly, code15.p_poly)
        assert got == code15.msg_inverse
        assert (got.rows, got.cols) == (7, 15)

    def test_g_must_divide_p(self, code15):
        with pytest.raises(ConstructionError):
            message_inverse(15, code15.g_poly, code15.p_poly ^ 1)

    def test_peak_memory_n4095(self):
        # T's column ints are freed once packed, before the transpose
        # (4.62x T's words when they were held through it)
        code = construct_pbch(4095, 3951, 24)
        tracemalloc.start()
        try:
            t = message_inverse(4095, code.g_poly, code.p_poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * t.words.nbytes, peak / t.words.nbytes


def _flip(mat, i, j):
    rows = mat.row_ints()
    rows[i] ^= 1 << j
    return BitMatrix(rows, mat.cols)


class TestIdentityChecks:
    """Construction's polynomial checks refuse wrong polynomials, and the
    word-level matrix check above catches any one wrong bit of T or H."""

    def test_constructed_codes_pass(self, code15, code15_t2, code1023_l20):
        for code in (code15, code15_t2, code1023_l20, construct_pbch(15, 7, 0),
                     construct_pbch(15, 7, 8)):
            _check_code_identities(code)
            check_matrix_identities(code)

    @pytest.mark.parametrize("field", ["msg_inverse", "parity"])
    def test_every_single_bit_flip_n15(self, code15, field):
        mat = getattr(code15, field)
        for i in range(mat.rows):
            for j in range(mat.cols):
                with pytest.raises(AssertionError):
                    check_matrix_identities(code15, **{field: _flip(mat, i, j)})

    def test_random_bit_flips_n1023(self, code1023_l20):
        rng = np.random.default_rng(41)
        for field in ("msg_inverse", "parity"):
            mat = getattr(code1023_l20, field)
            for _ in range(5):
                i, j = int(rng.integers(mat.rows)), int(rng.integers(mat.cols))
                with pytest.raises(AssertionError):
                    check_matrix_identities(code1023_l20, **{field: _flip(mat, i, j)})

    def test_wrong_row_polynomial(self, code15):
        g, p = code15.g_poly, code15.p_poly
        for bad in (
            dataclasses.replace(code15, g_poly=0b11001),  # the other primitive quartic
            # multiples of g, so only p reciprocal(h*) = x^n + 1 can catch these
            dataclasses.replace(code15, p_poly=p ^ g),
            dataclasses.replace(code15, p_poly=p ^ (g << 1)),
        ):
            with pytest.raises(ConstructionError):
                _check_code_identities(bad)

    def test_each_identity_catches_its_own_fault(self, code15):
        # every fault below passes the other three identities
        def with_attrs(**attrs):
            bad = copy.copy(code15)
            for name, value in attrs.items():
                setattr(bad, name, value)
            return bad

        g = code15.g_poly
        hstar8, p8 = masking_polys(15, 8, 5)  # a masking code that g divides
        tap = g.bit_length() - 1
        h_blocks = [list(block) for block in code15._h_blocks]
        h_blocks[0][1] ^= 1 << tap  # row 1 of H
        for bad, what in (
            (with_attrs(_q=code15._q ^ 1), "q g != p"),
            (dataclasses.replace(code15, p_poly=p8, hstar_poly=hstar8), "deg q = k"),
            (with_attrs(_u_bytes=[0, code15._u_bytes[1] ^ 1 << 3]), "u g != 1"),
            (with_attrs(_h_blocks=h_blocks), "H g != 0"),
            (dataclasses.replace(code15, p_poly=code15.p_poly ^ g), r"reciprocal\(h\*\)"),
        ):
            with pytest.raises(ConstructionError, match=what):
                _check_code_identities(bad)

    @pytest.mark.parametrize("field", ["g_poly", "p_poly", "hstar_poly"])
    def test_every_polynomial_bit_flip_n15(self, code15, field):
        poly = getattr(code15, field)
        for b in range(poly.bit_length()):
            bad = dataclasses.replace(code15, **{field: poly ^ 1 << b})
            with pytest.raises(ConstructionError):
                _check_code_identities(bad)


def test_m16_construction_in_child_process():
    # n = 65535 builds from its polynomials alone: no matrix and no numpy
    # table in the code, a small peak RSS (2.9 GiB when G1 and T were built),
    # a small pickle (74.2 MiB at l = 160 with H twice and a (t1 + 1) x n
    # Chien table), and a working round trip after unpickling, with d0 - 1
    # stuck cells and t1 errors
    script = """
import json, pickle, resource
import numpy as np
from plbc import BitVector, DefectVector, construct_pbch, decode, encode, transmit

n = 65535
out = []
for k, l in ((65503, 16), (63935, 160)):
    blob = pickle.dumps(construct_pbch(n, k, l))
    code = pickle.loads(blob)
    held = sorted(name for name, v in vars(code).items()
                  if name in ("gen_message", "gen_mask", "parity", "msg_inverse")
                  or isinstance(v, np.ndarray))
    rng = np.random.default_rng(16)
    cells = rng.permutation(n)
    u, e = code.params.d0 - 1, code.params.t1
    w = BitVector.from_bits(rng.integers(0, 2, size=k))
    stuck = sorted(cells[:u].tolist())
    s = DefectVector.from_positions(n, stuck, rng.integers(0, 2, size=u).tolist())
    c, mres = encode(code, w, s)
    y = transmit(c, s, BitVector.from_indices(n, cells[u:u + e]))
    res = decode(code, y)
    out.append({"held": held, "pickle_mib": len(blob) / 2**20, "u": u, "e": e,
                "unmasked": mres.unmasked, "status": res.status,
                "ok": res.w_hat == w, "z_weight": res.z_weight})
print(json.dumps({"codes": out,
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    small, big = res["codes"]
    assert (small["u"], small["e"], big["u"], big["e"]) == (2, 1, 20, 90)
    for code in (small, big):
        assert code["held"] == []
        assert code["unmasked"] == 0 and code["status"] == "corrected" and code["ok"]
        assert code["z_weight"] == code["e"]
    assert big["pickle_mib"] < 24, big
    assert res["maxrss_mib"] < 200, res
