import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from plbc import bounds
from plbc.allocate import _bound_split, enumerate_candidates
from plbc.bounds import (
    WeightDistribution,
    binary_entropy,
    capacity_max,
    capacity_min,
    decoding_failure_bound,
    weight_distribution,
)
from plbc.channel import ChannelParams
from plbc.codec import masking_polys, params_for
from plbc.errors import ConstructionError, NumericError
from plbc.gf2 import _span_weight_counts

PRESET_CHANNELS = {
    1: (0.0, 4.0e-3),
    2: (2.0e-3, 3.0e-3),
    3: (3.0e-3, 2.5e-3),
    4: (4.0e-3, 2.0e-3),
    5: (6.0e-3, 1.0e-3),
    6: (7.0e-3, 5.0e-4),
    7: (8.0e-3, 0.0),
}


class TestEntropyAndCapacity:
    def test_entropy_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_entropy_symmetric(self):
        for x in (0.1, 0.25, 0.004):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), rel=1e-12)

    def test_entropy_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)

    def test_capacity_channel1(self):
        ch = ChannelParams(0.0, 4.0e-3)
        assert capacity_min(ch) == pytest.approx(0.9624, abs=5e-4)
        assert capacity_max(ch) == pytest.approx(0.9624, abs=5e-4)

    def test_capacity_column(self):
        # all seven channels share c_min; c_max climbs with epsilon
        want_cmax = [0.9624, 0.9686, 0.9719, 0.9753, 0.9827, 0.9868, 0.9920]
        for (cid, (eps, p)), cm in zip(sorted(PRESET_CHANNELS.items()), want_cmax):
            ch = ChannelParams(eps, p)
            assert capacity_min(ch) == pytest.approx(0.9624, abs=5e-4)
            assert capacity_max(ch) == pytest.approx(cm, abs=5e-4)

    def test_perfect_channel(self):
        ch = ChannelParams(0.0, 0.0)
        assert capacity_min(ch) == 1.0
        assert capacity_max(ch) == 1.0


def exact_tail(n, p, t):
    """P(Bin(n, p) >= t) correctly rounded from exact integers: a float p
    is a / b with b a power of 2, and int / int rounds once."""
    if t <= 0:
        return 1.0
    a, b = p.as_integer_ratio()
    t = min(t, n + 1)
    below, q = 0, (b - a) ** (n - t + 1)  # q = (b - a)^(n - k)
    for k in range(t - 1, -1, -1):
        below += math.comb(n, k) * a**k * q
        q *= b - a
    return (b**n - below) / b**n


class TestBinomials:
    # P(U = u) as the bound reads it, summed and for P(U > u) alike
    def test_prob_defects_trivial(self):
        pmf = bounds._log_defect_pmf
        assert np.exp(pmf(100, 1.0)[100]) == 1.0
        assert np.all(pmf(100, 1.0)[:100] == -np.inf)
        assert np.exp(pmf(2, 0.5)[1]) == pytest.approx(0.5, rel=1e-14)

    def test_prob_defects_normalizes(self):
        for eps, _ in PRESET_CHANNELS.values():
            if eps:
                got = np.exp(bounds._log_defect_pmf(1023, eps)).sum()
                assert got == pytest.approx(1.0, abs=1e-10)

    def test_prob_defects_matches_scipy(self):
        got = np.exp(bounds._log_defect_pmf(1023, 6e-3))
        for u in (0, 1, 5, 20, 100):
            assert got[u] == pytest.approx(stats.binom.pmf(u, 1023, 6e-3), rel=1e-10, abs=0)

    def test_log_binom_exact(self):
        # log C(n, k) as the bound reads it, from the log-binomial row, and
        # the scalar reference's exact_log_binom below
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(0, 400))
            k = int(rng.integers(0, n + 1)) if n else 0
            want = math.log(math.comb(n, k))
            assert bounds._log_binom_row(n)[k] == pytest.approx(want, rel=1e-12)
            assert exact_log_binom(n, k) == want
        assert exact_log_binom(5, 6) == -math.inf
        assert exact_log_binom(5, -1) == -math.inf

    def test_tail_against_scipy(self):
        # every N = 0..n of the fixed-threshold family at once
        for n, p in [(30, 0.3), (1023, 0.002), (200, 0.5), (64, 0.9)]:
            big_n = np.arange(n + 1)
            for t_lo in (0, 1, n // 4, n // 2, n, n + 1):
                got = bounds._log_tails(n, p, t_lo)
                want = stats.binom.sf(t_lo - 1, big_n, p)
                zero = want == 0.0
                assert np.all((got[zero] == -np.inf) | (np.exp(got[zero]) < 1e-300))
                np.testing.assert_allclose(np.exp(got[~zero]), want[~zero], rtol=1e-9)

    def test_tail_edges(self):
        tails = bounds._log_tails
        assert tails(10, 0.0, 1)[10] == -math.inf
        assert tails(10, 1.0, 10)[10] == 0.0
        assert np.all(tails(10, 1.0, 10)[:10] == -math.inf)
        assert tails(10, 0.3, 0)[10] == 0.0
        assert tails(10, 0.3, -5)[10] == 0.0
        assert tails(10, 0.3, 11)[10] == -math.inf

    def test_tail_monotone_in_threshold(self):
        vals = [bounds._log_tails(100, 0.1, t)[100] for t in range(0, 101)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        big_n=st.integers(0, 300),
        longer=st.integers(0, 40),
        t=st.integers(-2, 305),
        p=st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(1e-9, 1.0)),
    )
    def test_single_tail_is_last_of_family(self, big_n, longer, t, p):
        # entry N of a longer family is, bit for bit, the last entry of the
        # family of length N: the bound reads single tails that way
        want = bounds._log_tails(big_n, p, t)[-1]
        assert bounds._log_tails(big_n + longer, p, t)[big_n] == want

    def test_diagonal_tails_against_scipy(self):
        # P(Bin(n - u, p) >= t1 + d0 - u) for u = d0..n, edges p = 0 and 1
        for n, k, l in [(15, 7, 4), (63, 39, 12), (1023, 923, 20), (1023, 1003, 10)]:
            par = params_for(n, k, l)
            u = np.arange(par.d0, n + 1)
            for p in (0.0, 1e-3, 0.1, 0.5, 1.0):
                got = bounds._log_diagonal_tails(n, p, par.t1, par.d0)
                want = stats.binom.sf(par.t1 + par.d0 - u - 1, n - u, p)
                zero = want == 0.0
                assert np.all(got[zero] == -np.inf)
                np.testing.assert_allclose(np.exp(got[~zero]), want[~zero], rtol=1e-9)

    def test_tail_families_exact(self):
        # both families on the table2 settings against exact rationals, at
        # u up to the largest stopping index of table2 (u = 30)
        n = 1023
        for eps, p in PRESET_CHANNELS.values():
            if not eps or not p:
                continue
            for l in (10, 20, 50, 100):
                par = params_for(n, 923, l)
                fixed = bounds._log_tails(n, p, par.t1 + 1)
                diagonal = bounds._log_diagonal_tails(n, p, par.t1, par.d0)
                for u in range(0, 31, 3):
                    want = exact_tail(n - u, p, par.t1 + 1)
                    assert math.exp(fixed[n - u]) == pytest.approx(want, rel=2e-13, abs=0)
                    if u >= par.d0:
                        want = exact_tail(n - u, p, par.t1 + par.d0 - u)
                        got = math.exp(diagonal[u - par.d0])
                        assert got == pytest.approx(want, rel=2e-13, abs=0)


class TestWeightDistribution:
    def test_hamming_exact(self):
        wd = weight_distribution(15, 4, 3, "exact-enumeration")
        assert wd.counts[0] == 1
        assert wd.counts[1] == 0 and wd.counts[2] == 0
        assert wd.counts[3] == 35
        assert wd.counts[4] == 105
        assert wd.counts.sum() == 2 ** 11

    def test_macwilliams_equals_enumeration(self):
        # every (n, l, d0) at n <= 31 where both methods run: n - l <= 24,
        # l <= 24 and deg h* = l
        for n, l, d0 in [(15, 0, 0), (15, 4, 3), (15, 8, 5), (15, 10, 7),
                         (15, 14, 9), (15, 14, 11), (15, 14, 13), (15, 14, 15),
                         (31, 10, 5), (31, 15, 7), (31, 20, 9), (31, 20, 11)]:
            mac = weight_distribution(n, l, d0, "macwilliams")
            ref = weight_distribution(n, l, d0, "exact-enumeration")
            assert np.array_equal(mac.counts, ref.counts)

    def test_whole_space_via_macwilliams(self):
        wd = weight_distribution(15, 0, 0, "macwilliams")
        want = [math.comb(15, w) for w in range(16)]
        assert np.array_equal(wd.counts, np.array(want, dtype=float))

    def test_binomial_approx_formula(self):
        wd = weight_distribution(15, 4, 3, "binomial-approx")
        assert wd.counts[0] == 1
        assert wd.counts[2] == 0
        for w in range(3, 16):
            assert wd.counts[w] == pytest.approx(math.comb(15, w) / 16, rel=1e-15)

    def test_method_budget_errors(self):
        with pytest.raises(ValueError):
            weight_distribution(1023, 20, 5, "exact-enumeration")
        with pytest.raises(ValueError):
            weight_distribution(1023, 30, 7, "macwilliams")

    def test_l_d0_consistency(self):
        with pytest.raises(ValueError):
            weight_distribution(15, 0, 3, "binomial-approx")
        with pytest.raises(ValueError):
            weight_distribution(15, 4, 0, "binomial-approx")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            weight_distribution(15, 4, 3, "guesswork")

    def test_rejects_nan_counts(self):
        for counts in ([1, math.nan, 0, 0], np.array([1.0, 0.0, np.nan, 0.0])):
            with pytest.raises(ValueError, match="NaN"):
                WeightDistribution(3, counts, "exact-enumeration")
        with pytest.raises(ValueError, match="nonnegative"):
            WeightDistribution(3, [1, -1, 0, 0], "exact-enumeration")


class TestMacwilliamsTransform:
    # the Krawtchouk transform on exact integer counts
    def test_even_weight_code(self):
        # dual of the [3,2] even-weight code is the repetition code
        assert bounds._macwilliams_ints(3, [1, 0, 0, 1]) == [1, 0, 3, 0]

    def test_involution_on_self_dual_pair(self):
        # transforming twice returns the original distribution
        dual = [int(c) for c in weight_distribution(15, 8, 5, "exact-enumeration").counts]
        once = bounds._macwilliams_ints(15, dual)
        assert bounds._macwilliams_ints(15, once) == dual

    def test_rejects_bad_size(self):
        with pytest.raises(NumericError, match="not a power of two"):
            bounds._macwilliams_ints(3, [1, 1, 1, 0])

    def test_back_to_the_dual(self):
        # every count of the [63, 51] code is below 2^53
        _, p = masking_polys(63, 12, 5)
        counts = [int(c) for c in weight_distribution(63, 12, 5, "macwilliams").counts]
        dual = bounds._macwilliams_ints(63, counts)
        assert dual == _span_weight_counts([p << i for i in range(12)], 63)


def counted_splits(n):
    """(l, d0, method) of every buildable masking code of length n with
    l > 0, with its A_w counted: by enumeration where n - l <= 24, else
    through the dual."""
    m = n.bit_length()
    out = []
    for l in range(m, n, m):
        d0 = 2 * (l // m) + 1
        try:
            masking_polys(n, l, d0)
        except ConstructionError:
            continue
        out.append((l, d0, "exact-enumeration" if n - l <= 24 else "macwilliams"))
    return out


class TestMaskingFailureBound:
    # log min(1, x_u) for u = 0..n at (15, 7, 4), the Hamming masking code
    def bound15(self):
        wd = weight_distribution(15, 4, 3, "exact-enumeration")
        return np.exp(bounds._log_masking_bound(params_for(15, 7, 4), wd))

    def test_below_distance_is_zero(self):
        assert np.all(self.bound15()[:3] == 0.0)

    def test_at_distance_single_term(self):
        assert self.bound15()[3] == pytest.approx(35 / math.comb(15, 3), rel=1e-12)

    def test_u4_two_terms(self):
        want = (35 * 12 + 105) / math.comb(15, 4)
        assert self.bound15()[4] == pytest.approx(want, rel=1e-12)

    def test_clamped_at_one(self):
        # from u = l + 1 = 5 on, without summing
        bound = self.bound15()
        assert np.all(bound <= 1.0)
        assert np.all(bound[5:] == 1.0)
        wd = weight_distribution(15, 4, 3, "exact-enumeration")
        assert np.all(bounds._log_masking_sums(wd, 15)[5:] >= 0.0)

    def test_domain(self):
        # the distribution must have the bound's length
        wd = weight_distribution(31, 5, 3, "macwilliams")
        with pytest.raises(ValueError, match="length mismatch"):
            decoding_failure_bound(params_for(15, 7, 4), wd, ChannelParams(0.1, 0.01))

    @pytest.mark.parametrize("n,l,d0", [(1023, 20, 5), (15, 4, 3)])
    def test_binomial_closed_form_equals_per_w_sum(self, n, l, d0):
        # the per-w sum in exact integers: x_u = sum_w A_w C(n-w, u-w) / C(n, u)
        # with A_w = C(n, w) 2^-l from d0 on
        num = [0] * (n + 1)
        for w in range(d0, n + 1):
            a, c = math.comb(n, w), 1  # c = C(n - w, u - w)
            for u in range(w, n + 1):
                num[u] += a * c
                c = c * (n - u) // (u - w + 1)
        want = [x / (math.comb(n, u) << l) for u, x in enumerate(num)]
        closed = bounds._log_binomial_masking(n, l, d0)
        assert np.all(closed[:d0] == -np.inf)
        np.testing.assert_allclose(np.exp(closed[d0:]), want[d0:], rtol=1e-12)

    @pytest.mark.parametrize("n", [15, 31])
    def test_codes_reach_one_at_l_plus_1(self, n):
        splits = counted_splits(n)
        assert len(splits) == {15: 2, 31: 4}[n]
        for l, d0, method in splits:
            wd = weight_distribution(n, l, d0, method)
            assert bounds._log_masking_sums(wd, l + 1)[l + 1] >= 0.0, (l, d0, method)

    @pytest.mark.parametrize("n,l,d0,method", [
        (15, 4, 3, "exact-enumeration"),
        (255, 16, 5, "macwilliams"),
        (1023, 20, 5, "macwilliams"),
    ])
    def test_counted_sums_exact(self, n, l, d0, method):
        # x_u = sum_w A_w C(u, w) / C(n, w) for u <= l + 1 in exact
        # rationals, with the exact integer A_w from the dual
        _, p = masking_polys(n, l, d0)
        counts = bounds._macwilliams_ints(n, _span_weight_counts([p << i for i in range(l)], n))
        got = bounds._log_masking_sums(weight_distribution(n, l, d0, method), l + 1)
        for u in range(l + 2):
            want = sum(Fraction(counts[w] * math.comb(u, w), math.comb(n, w))
                       for w in range(1, u + 1))
            if want == 0:
                assert got[u] == -math.inf
            else:
                assert math.exp(got[u]) == pytest.approx(float(want), rel=1e-13, abs=0)

    def test_non_code_counts_raise(self):
        # a single word of weight 3: x_5 = C(5, 3) / C(15, 3) < 1, which no
        # [15, 11] code gives
        wd = WeightDistribution(15, [1, 0, 0, 1] + [0] * 12, "exact-enumeration")
        with pytest.raises(NumericError, match="u = l \\+ 1 = 5"):
            decoding_failure_bound(params_for(15, 7, 4), wd, ChannelParams(0.1, 0.01))


def oracle_total(params, counts, eps, p):
    """Direct double-sum evaluation with scipy, no logs, no truncation."""
    n, t1, d0 = params.n, params.t1, params.d0
    pmf_u = stats.binom.pmf(np.arange(n + 1), n, eps)
    term1 = term2 = 0.0
    for u in range(n + 1):
        if pmf_u[u] == 0.0:
            continue
        term2 += pmf_u[u] * stats.binom.sf(t1, n - u, p)
        if u >= max(d0, 1):
            pm = 0.0
            for w in range(1, u + 1):
                if counts[w] > 0:
                    # exact integer ratio <= 1 before the float product
                    pm += counts[w] * (math.comb(n - w, u - w) / math.comb(n, u))
            tlo = t1 + d0 - u
            tail1 = stats.binom.sf(tlo - 1, n - u, p) if tlo > 0 else 1.0
            term1 += pmf_u[u] * min(1.0, pm) * tail1
    return term1, term2


class TestDecodingFailureBound:
    def test_epsilon_zero_regime(self):
        params = params_for(1023, 923, 20)
        ch = ChannelParams(0.0, 4e-3)
        res = decoding_failure_bound(params, None, ch)
        assert res.regime == "epsilon-zero"
        assert res.p_mask_and_fail == 0.0
        want = stats.binom.sf(params.t1, 1023, 4e-3)
        assert res.total == pytest.approx(want, rel=1e-9)

    def test_l_zero_regime_uses_p_tilde(self):
        params = params_for(1023, 923, 0)
        ch = ChannelParams(4e-3, 2e-3)
        res = decoding_failure_bound(params, None, ch)
        assert res.regime == "l-zero"
        want = stats.binom.sf(params.t1, 1023, ch.p_tilde)
        assert res.total == pytest.approx(want, rel=1e-9)

    def test_general_matches_direct_sum(self, code15):
        params = code15.params
        wd = weight_distribution(15, 4, 3, "exact-enumeration")
        for eps, p in [(0.05, 0.01), (0.05, 0.02), (0.1, 0.01), (0.1, 0.02)]:
            res = decoding_failure_bound(params, wd, ChannelParams(eps, p))
            assert res.regime == "general"
            t1o, t2o = oracle_total(params, wd.counts, eps, p)
            assert abs(res.p_mask_and_fail - t1o) <= res.u_tail_bound + 1e-9 * t1o
            assert abs(res.p_maskok_and_fail - t2o) <= res.u_tail_bound + 1e-9 * t2o
            assert res.total == pytest.approx(t1o + t2o, rel=2e-3)

    def test_general_matches_direct_sum_n1023(self):
        params = params_for(1023, 923, 20)
        wd = weight_distribution(1023, 20, 5, "binomial-approx")
        ch = ChannelParams(4e-3, 2e-3)
        res = decoding_failure_bound(params, wd, ch)
        t1o, t2o = oracle_total(params, wd.counts, 4e-3, 2e-3)
        assert abs(res.total - (t1o + t2o)) <= 2 * res.u_tail_bound + 1e-9
        assert res.u_tail_bound < 1e-3 * res.total

    def test_truncation_recorded(self):
        params = params_for(1023, 923, 20)
        wd = weight_distribution(1023, 20, 5, "binomial-approx")
        res = decoding_failure_bound(params, wd, ChannelParams(4e-3, 2e-3))
        assert res.u_tail_bound > 0.0
        assert res.aw_method == "binomial-approx"

    def test_eq21_nonincreasing_in_t1(self):
        totals = []
        for l in range(0, 101, 10):
            params = params_for(1023, 923, l)
            if params.r == 0:
                continue
            res = decoding_failure_bound(params, None, ChannelParams(0.0, 4e-3))
            totals.append(res.total)
        # l ascending means t1 descending, so totals ascend
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    def test_general_needs_wd(self):
        params = params_for(1023, 923, 20)
        with pytest.raises(ValueError):
            decoding_failure_bound(params, None, ChannelParams(4e-3, 2e-3))


# ---------------------------------------------------------------------------
# scalar reference: the bound summed per u and per w with the documented
# truncation, one logaddexp at a time; the numpy engine must agree with it.
# Every summed log C(a, b) is exact_log_binom; only P(U > u), which places
# the cut and gives u_tail_bound, reads the engine's log-binomial row, so
# that u_tail_bound compares with ==.
# ---------------------------------------------------------------------------

@functools.cache
def exact_log_binom_row(n):
    """math.log of the exact C(n, k) for k = 0..n, from exact integers."""
    out, c = [0.0], 1
    for k in range(1, n + 1):
        c = c * (n - k + 1) // k
        out.append(math.log(c))
    return out


def exact_log_binom(n, k):
    """math.log of the exact C(n, k); -inf outside the triangle."""
    if k < 0 or k > n:
        return -math.inf
    return exact_log_binom_row(n)[k]


def _lae(a, b):
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def scalar_log_tail(n, p, t_lo):
    """log P(Bin(n, p) >= t_lo), term by term with the 45-nat cutoff."""
    if t_lo <= 0:
        return 0.0
    if t_lo > n or p == 0.0:
        return -math.inf
    if p == 1.0:
        return 0.0
    cur = exact_log_binom(n, t_lo) + t_lo * math.log(p) + (n - t_lo) * math.log1p(-p)
    total = cur
    for t in range(t_lo + 1, n + 1):
        ratio = (n - t + 1) / t * (p / (1.0 - p))
        cur += math.log(ratio)
        total = _lae(total, cur)
        if ratio < 0.9 and cur < total - 45.0:
            break
    return total


def scalar_bound(params, wd, ch, truncate=True):
    """(p_mask_and_fail, p_maskok_and_fail, u_tail_bound) of the general regime."""
    n, t1, d0 = params.n, params.t1, params.d0
    le, l1e = math.log(ch.epsilon), math.log1p(-ch.epsilon)
    log_pmf = [exact_log_binom(n, u) + u * le + (n - u) * l1e for u in range(n + 1)]
    row = bounds._log_binom_row(n).tolist()
    log_more = [-math.inf] * (n + 1)  # log P(U > u)
    acc = -math.inf
    for u in range(n, 0, -1):
        acc = _lae(acc, row[u] + u * le + (n - u) * l1e)
        log_more[u - 1] = acc
    log_counts = [float(x) for x in wd.log_counts]

    def masking(u):
        lcnu = exact_log_binom(n, u)
        acc = -math.inf
        for w in range(1, u + 1):
            if log_counts[w] > -math.inf:
                acc = _lae(acc, log_counts[w] + exact_log_binom(n - w, u - w) - lcnu)
        return acc

    def run(us, term):
        total = -math.inf
        for u in us:
            total = _lae(total, term(u))
            if truncate and total > -math.inf and log_more[u] < total + math.log(1e-3):
                return total, math.exp(log_more[u])
        return total, 0.0

    term1, tail1 = run(
        range(max(d0, 1), n + 1),
        lambda u: log_pmf[u] + min(0.0, masking(u))
        + scalar_log_tail(n - u, ch.p, t1 + d0 - u),
    )
    term2, tail2 = run(
        range(n + 1), lambda u: log_pmf[u] + scalar_log_tail(n - u, ch.p, t1 + 1)
    )
    return math.exp(term1), math.exp(term2), max(tail1, tail2)


def assert_matches_scalar(res, params, wd, ch):
    p1, p2, tail = scalar_bound(params, wd, ch)
    assert res.regime == "general"
    assert res.p_mask_and_fail == pytest.approx(p1, rel=1e-12, abs=1e-300)
    assert res.p_maskok_and_fail == pytest.approx(p2, rel=1e-12, abs=1e-300)
    assert res.total == pytest.approx(p1 + p2, rel=1e-12, abs=1e-300)
    assert res.u_tail_bound == tail


@functools.cache
def masked_splits(n):
    """The buildable splits of length n with l > 0 and at most ten m-steps
    of redundancy, as ``enumerate_candidates`` lists them."""
    m = n.bit_length()
    out = []
    for s in range(1, min(10, (n - 1) // m) + 1):
        try:
            out += [c for c in enumerate_candidates(n, n - s * m) if c.l]
        except ConstructionError:
            pass
    return out


class TestAgainstScalarReference:
    def test_table2_all_points(self):
        for eps, p in PRESET_CHANNELS.values():
            ch = ChannelParams(eps, p)
            for l in range(0, 101, 10):
                params = params_for(1023, 923, l)
                wd = None
                if l:
                    wd = weight_distribution(1023, l, params.d0, "binomial-approx")
                res = decoding_failure_bound(params, wd, ch)
                if eps == 0.0 or l == 0:
                    q = p if eps == 0.0 else ch.p_tilde
                    want = math.exp(scalar_log_tail(1023, q, params.t1 + 1))
                    assert res.total == pytest.approx(want, rel=1e-12, abs=0)
                    assert res.u_tail_bound == 0.0
                else:
                    assert_matches_scalar(res, params, wd, ch)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([15, 63, 1023]),
        split=st.integers(0, 10**6),
        eps=st.floats(1e-4, 0.2),
        p=st.one_of(st.just(0.0), st.floats(1e-5, 0.1)),
    )
    def test_random_channels(self, n, split, eps, p):
        splits = masked_splits(n)
        params = splits[split % len(splits)]
        if n == 1023:
            eps, p = eps / 10, p / 10  # keep the reference's u-loop short
        method = "exact-enumeration" if n == 15 else "binomial-approx"
        wd = weight_distribution(n, params.l, params.d0, method)
        ch = ChannelParams(eps, p)
        assert_matches_scalar(decoding_failure_bound(params, wd, ch), params, wd, ch)

    def test_masking_bound_matches_scalar(self):
        params = params_for(1023, 923, 20)
        wd = weight_distribution(1023, 20, 5, "binomial-approx")
        got = np.exp(bounds._log_masking_bound(params, wd))
        lw = [float(x) for x in wd.log_counts]
        for u in (0, 4, 5, 6, 20, 100, 1023):
            acc = -math.inf
            for w in range(1, u + 1):
                if lw[w] > -math.inf:
                    term = lw[w] + exact_log_binom(1023 - w, u - w) - exact_log_binom(1023, u)
                    acc = _lae(acc, term)
            want = min(1.0, math.exp(acc)) if acc > -math.inf else 0.0
            assert got[u] == pytest.approx(want, rel=1e-12, abs=1e-300)


def full_truncated_log_sum(log_terms, start, log_more):
    """The truncated u-sum as one accumulation over every term and one
    search; the engine must return exactly this."""
    cum = np.logaddexp.accumulate(log_terms)
    hit = np.flatnonzero((cum > -np.inf) & (log_more[start:] < cum + math.log(1e-3)))
    if hit.size:
        return float(cum[hit[0]]), math.exp(log_more[start + hit[0]])
    return float(cum[-1]), 0.0


def peak_truncated_log_sum(log_terms, start, log_more):
    """The engine's previous search: the cut of the running maximum over
    every term, then the accumulation up to it."""
    log_more = log_more[start:]
    peak = np.maximum.accumulate(log_terms)
    hit = np.flatnonzero((peak > -np.inf) & (log_more < peak + math.log(1e-3)))
    end = hit[0] + 1 if hit.size else log_terms.size
    cum = np.logaddexp.accumulate(log_terms[:end])
    hit = np.flatnonzero((cum > -np.inf) & (log_more[:end] < cum + math.log(1e-3)))
    if hit.size:
        i = hit[0]
        return float(cum[i]), math.exp(log_more[i])
    return float(cum[-1]), 0.0


def falling_log_more(rng, size, shift, inf_from):
    """log of the mass above u for random masses: falls with u, -inf from
    inf_from on."""
    masses = rng.uniform(-30.0, 0.0, size)
    log_more = np.logaddexp.accumulate(masses[::-1])[::-1] + shift
    log_more[inf_from:] = -np.inf
    return log_more


class TestTruncatedSum:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        terms=st.lists(st.one_of(st.just(-math.inf), st.floats(-30.0, 0.0)),
                       min_size=1, max_size=64),
        start=st.integers(0, 4),
        masses=st.lists(st.floats(-30.0, 0.0), min_size=68, max_size=68),
        shift=st.floats(-12.0, 12.0),
        inf_from=st.integers(0, 68),
    )
    # every term -inf, as term 2 at p = 0 (table2 channel 7)
    @example(terms=[-math.inf] * 12, start=0, masses=[-5.0] * 68, shift=0.0, inf_from=12)
    # log P(U > u) stays above every running sum: never cut
    @example(terms=[-1.0] * 12, start=3, masses=[0.0] * 68, shift=0.0, inf_from=68)
    def test_prefix_cut_equals_full_cut(self, terms, start, masses, shift, inf_from):
        # log P(U > u) as the mass above u: it falls with u, and is -inf
        # from some u on
        log_more = np.logaddexp.accumulate(np.array(masses[::-1]))[::-1] + shift
        log_more[inf_from:] = -np.inf
        log_more = log_more[:start + len(terms)]
        log_terms = np.array(terms)
        got = bounds._truncated_log_sum(log_terms, start, log_more)
        assert got == full_truncated_log_sum(log_terms, start, log_more)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 1500),
        start=st.integers(0, 4),
        inf_prefix=st.integers(0, 1500),
        inf_share=st.floats(0.0, 1.0),
        scale=st.floats(-40.0, 0.0),
        shift=st.floats(-12.0, 12.0),
        inf_from=st.integers(0, 1504),
    )
    def test_long_sum_cut_equals_full_scan(self, seed, size, start, inf_prefix,
                                           inf_share, scale, shift, inf_from):
        # lengths well past the 64 terms searched first, with -inf terms
        # scattered and as a prefix
        rng = np.random.default_rng(seed)
        log_terms = rng.uniform(-30.0, 0.0, size) + scale
        log_terms[rng.random(size) < inf_share] = -np.inf
        log_terms[:inf_prefix] = -np.inf
        log_more = falling_log_more(rng, start + size, shift, inf_from)
        got = bounds._truncated_log_sum(log_terms, start, log_more)
        assert got == full_truncated_log_sum(log_terms, start, log_more)
        assert got == peak_truncated_log_sum(log_terms, start, log_more)

    @pytest.mark.parametrize("case", ["first", "past-prefix", "inf-prefix",
                                      "never", "all-inf"])
    def test_cut_lands_where_full_scan_cuts(self, case):
        size, start = 1200, 2
        log_terms = np.full(size, -1.0)
        log_more = np.full(start + size, -100.0)  # cut at the first term
        cut = 0
        if case == "past-prefix":
            # log P(U > u) meets the rule first at u = 300, past the first
            # 64 terms, and the running maximum only at u = 871
            cut = 300
            cum = np.logaddexp.accumulate(log_terms)
            log_more[start:] = cum[cut] + math.log(1e-3) - 1e-9 - 0.01 * (
                np.arange(size) - cut)
        elif case == "inf-prefix":
            cut = 500
            log_terms[:cut] = -np.inf
        elif case == "never":
            cut = None
            log_terms[:] = -10.0
            log_more[:] = 0.0
        elif case == "all-inf":
            cut = None
            log_terms[:] = -np.inf
        got = bounds._truncated_log_sum(log_terms, start, log_more)
        assert got == full_truncated_log_sum(log_terms, start, log_more)
        assert got == peak_truncated_log_sum(log_terms, start, log_more)
        assert got[1] == (0.0 if cut is None else math.exp(log_more[start + cut]))


class TestTruncationTail:
    def test_both_tails_cover_the_gap(self):
        # table2 channel 2 at l = 10: the sum left out (full - total) is
        # larger than the one reported tail, and at most twice it
        params = params_for(1023, 923, 10)
        wd = weight_distribution(1023, 10, 3, "binomial-approx")
        ch = ChannelParams(*PRESET_CHANNELS[2])
        res = decoding_failure_bound(params, wd, ch)
        p1, p2, _ = scalar_bound(params, wd, ch, truncate=False)
        gap = (p1 + p2) - res.total
        assert res.u_tail_bound < gap <= 2 * res.u_tail_bound


class TestLargeLengths:
    @pytest.mark.parametrize("n", [2047, 4095, 65535])
    def test_binomial_log_counts(self, n):
        # l = m is left out: there ln C(n, n-1) - m ln 2 = ln(n/(n+1)) ~ -1/n,
        # which no float evaluation holds to 1e-12 relative
        m = n.bit_length()
        exact = np.array(exact_log_binom_row(n))
        for l in (2 * m, 5 * m):
            d0 = 2 * (l // m) + 1
            wd = weight_distribution(n, l, d0, "binomial-approx")
            lc = wd.log_counts
            assert lc[0] == 0.0
            assert np.all(lc[1:d0] == -np.inf)
            assert np.all(np.isfinite(lc[d0:]))
            want = exact[d0:] - l * math.log(2)
            assert np.all(np.abs(lc[d0:] - want) <= 1e-12 * np.abs(want))
        # log C(n, w) itself, which P(U = u) also reads, within 5e-11 (about
        # math.log's own error on the exact integers): a plain running sum
        # drifts by 5e-10 at n = 65535 and the log-factorial table by 2e-10
        assert np.max(np.abs(bounds._log_binom_row(n) - exact)) <= 5e-11

    def test_counts_exact_where_finite(self):
        wd = weight_distribution(2047, 22, 5, "binomial-approx")
        assert wd.counts[5] == math.comb(2047, 5) / 2 ** 22
        assert wd.counts[1000] == math.inf
        assert wd.counts[2047] == 2.0 ** -22

    def test_general_tends_to_epsilon_zero(self):
        params = params_for(2047, 1937, 22)
        wd = weight_distribution(2047, 22, 5, "binomial-approx")
        gen = decoding_failure_bound(params, wd, ChannelParams(1e-12, 2e-3))
        eps0 = decoding_failure_bound(params, wd, ChannelParams(0.0, 2e-3))
        assert gen.regime == "general"
        assert gen.total == pytest.approx(eps0.total, rel=1e-6)

    def test_macwilliams_counts_overflow_to_inf(self):
        # the whole space: A_w = C(n, w), past the float range mid-row
        wd = weight_distribution(2047, 0, 0, "macwilliams")
        assert wd.counts[1023] == math.inf
        want = math.log(math.comb(2047, 1023))
        assert wd.log_counts[1023] == pytest.approx(want, rel=1e-15)


def clear_bound_caches():
    for memo in (weight_distribution, bounds._defect_logs,
                 bounds._log_binomial_masking_bound, bounds._tail_column,
                 bounds._log_tails):
        memo.cache_clear()


class TestCache:
    def test_arrays_read_only(self):
        wd = weight_distribution(1023, 20, 5, "binomial-approx")
        with pytest.raises(ValueError):
            wd.log_counts[5] = 0.0
        with pytest.raises(ValueError):
            wd.counts[5] = 0.0
        with pytest.raises(AttributeError):
            wd.n = 15
        built = WeightDistribution(3, [1.0, 0.0, 3.0, 0.0], "exact-enumeration")
        with pytest.raises(ValueError):
            built.counts[1] = 1.0

    def test_same_object_per_key(self):
        a = weight_distribution(1023, 30, 7, "binomial-approx")
        assert weight_distribution(1023, 30, 7, "binomial-approx") is a

    def test_memoised_arrays_read_only(self):
        params = params_for(15, 7, 4)
        memoised = [
            *bounds._defect_logs(15, 0.1),
            bounds._log_binomial_masking_bound(15, 4, 3),
            bounds._tail_column(15, params.t1 + 1),
            bounds._log_tails(15, 0.1, params.t1 + 1),
        ]
        for arr in memoised:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cold_and_warm_bounds_identical(self):
        # the 7 x 11 table2 grid, each point computed with every cache
        # cleared, then warm channel-major (as allocate runs it) and
        # split-major (as bound runs it)
        points = [(c, l) for c in PRESET_CHANNELS for l in range(0, 101, 10)]

        def evaluate(order, clear_each=False):
            out = {}
            for cid, l in order:
                if clear_each:
                    clear_bound_caches()
                ch = ChannelParams(*PRESET_CHANNELS[cid])
                out[cid, l] = _bound_split(params_for(1023, 923, l), ch, "binomial-approx")
            return out

        cold = evaluate(points, clear_each=True)
        clear_bound_caches()
        channel_major = evaluate(points)
        clear_bound_caches()
        split_major = evaluate(sorted(points, key=lambda cl: (cl[1], cl[0])))
        assert cold == channel_major == split_major
