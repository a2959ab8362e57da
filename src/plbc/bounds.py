"""Closed-form failure bounds and channel capacities.

The failure bound is evaluated in natural-log space as a few whole-array
passes over the number of stuck cells u = 0..n.  Every log binomial is a
compensated running sum of log term ratios (``_sum_log_ratios``); P(U = u)
and each family of binomial tails are one array each, a tail family one
running ``np.logaddexp`` sum; the masking union bound is a closed form, or
a sum over u <= l + 1 only; and each truncated u-sum is accumulated only
up to its cut.  Weight counts are held as logs, taken from exact integers
or from a summed log-binomial row, and never pass through a float that
could overflow, so every length the field supports (m <= 16, n up to
65535) works.

Arrays that later calls read again are memoised in bounded caches and
read-only, so every caller shares one copy: weight distributions per
(n, l, d0, method), log P(U = u) and log P(U > u) per (n, epsilon), the
'binomial-approx' masking bound per (n, l, d0), the log-binomial column of
a tail per (n, t), and the last two tail families per (n, p, t), which
depend on p: a sweep over the splits of one channel folds the family of
each threshold once.  A counted masking bound is computed on each call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams
from .codec import PlbcParams, masking_polys
from .errors import NumericError
from .gf2 import _span_weight_counts

__all__ = [
    "BoundResult",
    "WeightDistribution",
    "binary_entropy",
    "capacity_max",
    "capacity_min",
    "decoding_failure_bound",
    "weight_distribution",
]

_NEG_INF = float("-inf")
_LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """h(x) in bits; 0 at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def capacity_min(ch: ChannelParams) -> float:
    """Capacity when the writer ignores defect locations: 1 - h(p_tilde)."""
    return 1.0 - binary_entropy(ch.p_tilde)


def capacity_max(ch: ChannelParams) -> float:
    """Capacity with writer-side defect knowledge: (1 - eps)(1 - h(p))."""
    return (1.0 - ch.epsilon) * (1.0 - binary_entropy(ch.p))


def _sum_log_ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """0 then the running sums of log(num / den), each addition's rounding
    error recovered exactly (TwoSum) and added back.  For log C(65535, w)
    a plain running sum drifts by up to 5e-10, and differences of a
    log-gamma table by up to 2e-10, each a relative error of C itself.
    """
    steps = np.log(num / den)
    sums = np.cumsum(steps)
    prev = np.concatenate(([0.0], sums[:-1]))
    back = sums - prev
    lost = (prev - (sums - back)) + (steps - back)
    return np.concatenate(([0.0], sums + np.cumsum(lost)))


def _log_binom_row(n: int) -> np.ndarray:
    """log C(n, w) for w = 0..n: sums log((n - i + 1) / i) up to n/2 and
    mirrors."""
    half = n // 2
    i = np.arange(1, half + 1)
    low = _sum_log_ratios(n - i + 1, i)
    row = np.empty(n + 1)
    row[: half + 1] = low
    row[n - half:] = low[::-1]
    return row


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=24)
def _tail_column(n: int, t: int) -> np.ndarray:
    """log C(N', t-1) for N' = t-1..n-1, 1 <= t <= n: the binomials under a
    fixed-threshold tail, read-only and memoised.  It is a running sum, so
    its first N - t + 1 entries are, bit for bit, the column of any N <= n."""
    k = np.arange(1, n - t + 1)
    return _read_only(_sum_log_ratios(t - 1 + k, k))


@functools.lru_cache(maxsize=2)
def _log_tails(big_n: int, p: float, t: int) -> np.ndarray:
    """log P(Bin(N, p) >= t) for N = 0..big_n; read-only and memoised.

    The t-th success falls on one of trials t..N, so for N >= t the tail is
    the running sum over N' = t-1..N-1 of p P(Bin(N', p) = t-1), with
    log C(N', t-1) summed from the ratios N' / (N' - t + 1).  Its entry N
    is thus, bit for bit, the last of the family of any length >= N, which
    lets one family serve every length at its threshold.
    """
    out = np.full(big_n + 1, 0.0 if t <= 0 else _NEG_INF)
    if 0 < t <= big_n and p == 1.0:
        out[t:] = 0.0
    elif 0 < t <= big_n and 0.0 < p:
        k = np.arange(big_n - t + 1)  # N' - (t - 1)
        terms = _tail_column(big_n, t) + (t * math.log(p) + k * math.log1p(-p))
        np.logaddexp.accumulate(terms, out=out[t:])
    return _read_only(out)


def _log_diagonal_tails(n: int, p: float, t1: int, d0: int) -> np.ndarray:
    """log P(Bin(n - u, p) >= t1 + d0 - u) for u = d0..n.

    N = n - u and tau = t1 + d0 - u fall together, and P(Bin(N-1, p) >= tau-1)
    = P(Bin(N, p) >= tau) + (1-p) P(Bin(N-1, p) = tau-1): a running sum from
    u = d0 over P(Bin(D + k, p) = k) for k = t1-1 down to 1, D = n - t1 - d0
    (>= 0 for every split).  The tail is 1 once tau <= 0.
    """
    out = np.zeros(n - d0 + 1)
    out[:t1] = _log_tails(n, p, t1)[n - d0]
    if t1 > 1 and 0.0 < p < 1.0:
        big_d = n - t1 - d0
        k = np.arange(1, t1)
        log_q = (big_d + 1) * math.log1p(-p)
        steps = _sum_log_ratios(big_d + k, k)[1:] + (k * math.log(p) + log_q)
        out[:t1] = np.logaddexp.accumulate(np.concatenate((out[:1], steps[::-1])))
    return out


def _log_defect_pmf(n: int, epsilon: float) -> np.ndarray:
    """log P(U = u) for u = 0..n, U ~ Bin(n, epsilon) the number of stuck
    cells, for 0 < epsilon <= 1: log C(n, u) + u log eps + (n - u) log(1 - eps)."""
    if epsilon == 1.0:
        return np.append(np.full(n, _NEG_INF), 0.0)
    u = np.arange(n + 1)
    return _log_binom_row(n) + u * math.log(epsilon) + (n - u) * math.log1p(-epsilon)


@functools.lru_cache(maxsize=8)
def _defect_logs(n: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """log P(U = u) and log P(U > u) for u = 0..n, the latter -inf at u = n;
    read-only and memoised per channel."""
    log_pmf = _log_defect_pmf(n, epsilon)
    log_more = np.append(np.logaddexp.accumulate(log_pmf[::-1])[-2::-1], _NEG_INF)
    return _read_only(log_pmf), _read_only(log_more)


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------

class WeightDistribution:
    """Weight counts A_0..A_n of the code checked by the masking rows.

    ``log_counts`` holds ln A_w (-inf where A_w = 0); it is what the bounds
    read.  ``counts`` holds A_w as floats, exact wherever A_w fits a float64
    and inf where it does not (binomial counts from n ~ 1030 on); methods
    that only know logs build it on first use.  Counts are real-valued so
    approximations fit alongside exact enumerations.  A_0 is always 1 and
    weights below the first nonzero distance are 0.  Instances and their
    arrays are read-only, because ``weight_distribution`` hands one shared
    copy to every caller.
    """

    def __init__(self, n: int, counts, method: str):
        """``counts`` are exact ints or floats; logs are taken entry by entry.
        NaN is refused; inf stands for a count beyond the float range."""
        counts = list(counts)
        if len(counts) != n + 1:
            raise ValueError("counts must have length n + 1")
        if counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if not all(c >= 0 for c in counts):
            raise ValueError("counts must be nonnegative and not NaN")
        log_counts = np.array([math.log(c) if c else _NEG_INF for c in counts])
        self._fill(n, method, log_counts, _exact_floats(counts))

    @classmethod
    def _from_logs(cls, n: int, method: str, log_counts: np.ndarray, counts):
        """Build from log counts; ``counts`` is an array or a function
        returning one on first use."""
        wd = cls.__new__(cls)
        wd._fill(n, method, log_counts, counts)
        return wd

    def _fill(self, n, method, log_counts, counts):
        log_counts.setflags(write=False)
        if isinstance(counts, np.ndarray):
            counts.setflags(write=False)
        self.__dict__.update(n=n, method=method, log_counts=log_counts, _counts=counts)

    def __setattr__(self, name, value):
        raise AttributeError("WeightDistribution is read-only")

    @property
    def counts(self) -> np.ndarray:
        if not isinstance(self._counts, np.ndarray):
            counts = self._counts()
            counts.setflags(write=False)
            self.__dict__["_counts"] = counts
        return self._counts

    def __repr__(self) -> str:
        return "WeightDistribution(n=%d, method=%r)" % (self.n, self.method)


def _exact_floats(ints: list[int], shift: int = 0) -> np.ndarray:
    """ints[i] / 2^shift, correctly rounded; inf where beyond the float range."""
    den = 1 << shift
    out = np.empty(len(ints))
    for i, c in enumerate(ints):
        try:
            out[i] = c / den
        except OverflowError:
            out[i] = math.inf
    return out


def _binomial_counts(n: int, l: int, d0: int) -> np.ndarray:
    """The binomial approximation's A_w as floats, from exact integers."""
    ints = [0] * (n + 1)
    c = 1
    for w in range(1, n + 1):
        c = c * (n - w + 1) // w
        if w >= d0:
            ints[w] = c
    counts = _exact_floats(ints, l)
    counts[0] = 1.0
    return counts


@functools.lru_cache(maxsize=32)
def weight_distribution(n: int, l: int, d0: int, method: str) -> WeightDistribution:
    """A_w for the [n, n-l] code whose parity check is the masking generator.

    Methods: 'exact-enumeration' counts all 2^(n-l) codewords,
    'macwilliams' enumerates the 2^l dual and transforms, and
    'binomial-approx' uses A_w = C(n, w) 2^(-l) above d0.  The two exact
    methods take (h*, p) from ``codec.masking_polys`` and raise its
    ConstructionError when no such masking code exists.  Results are
    memoised per (n, l, d0, method); the returned object is shared and
    read-only.
    """
    if n < 1 or l < 0 or l > n:
        raise ValueError("need 0 <= l <= n")
    if (l == 0) != (d0 == 0):
        raise ValueError("d0 is 0 exactly when l is 0")
    if method == "binomial-approx":
        log_counts = np.full(n + 1, _NEG_INF)
        log_counts[0] = 0.0
        lo = max(d0, 1)
        log_counts[lo:] = _log_binom_row(n)[lo:] - l * _LN2
        return WeightDistribution._from_logs(
            n, method, log_counts, functools.partial(_binomial_counts, n, l, d0)
        )
    if method == "exact-enumeration":
        if n - l > 24:
            raise ValueError("exact enumeration is limited to 2^24 codewords")
        hstar, _ = masking_polys(n, l, d0)
        rows = [hstar << i for i in range(n - l)]
        return WeightDistribution(n, _span_weight_counts(rows, n), method)
    if method == "macwilliams":
        if l > 24:
            raise ValueError("dual enumeration is limited to 2^24 codewords")
        _, p_poly = masking_polys(n, l, d0)
        rows = [p_poly << i for i in range(l)]
        counts = _macwilliams_ints(n, _span_weight_counts(rows, n))
        return WeightDistribution(n, counts, method)
    raise ValueError("unknown weight distribution method %r" % method)


def _macwilliams_ints(n: int, b_int: list[int]) -> list[int]:
    """Exact A_0..A_n from the exact dual counts B_0..B_n by the Krawtchouk
    transform, A_w = 2^(-dim) sum_j B_j K_w(j), with the binary Krawtchouk
    polynomials from their three-term recurrence in exact integers.  A dual
    size that is not a power of two, or a non-integral or negative A_w,
    raises NumericError."""
    size = sum(b_int)
    dim = size.bit_length() - 1
    if size != 1 << dim:
        raise NumericError("dual code size %d is not a power of two" % size)

    js = [j for j, b in enumerate(b_int) if b]
    bs = [b_int[j] for j in js]
    # K_w(j) from w K_w = (n - 2j) K_(w-1) - (n - w + 2) K_(w-2), K_(-1) = 0
    k_prev, k_cur = [0] * len(js), [1] * len(js)
    counts = []
    for w in range(n + 1):
        if w:
            k_next = []
            for idx, j in enumerate(js):
                num = (n - 2 * j) * k_cur[idx] - (n - w + 2) * k_prev[idx]
                if num % w:
                    raise NumericError("Krawtchouk recurrence lost integrality")
                k_next.append(num // w)
            k_prev, k_cur = k_cur, k_next
        total = sum(b * k for b, k in zip(bs, k_cur))
        q, rem = divmod(total, 1 << dim)
        if rem or q < 0:
            raise NumericError(
                "MacWilliams transform gave a non-integral or negative count "
                "at weight %d" % w
            )
        counts.append(q)
    return counts


# ---------------------------------------------------------------------------
# failure bounds
# ---------------------------------------------------------------------------

def _log_masking_sums(wd: WeightDistribution, top: int) -> np.ndarray:
    """log x_u for u = 0..top, x_u = sum_w A_w C(u, w) / C(n, w) the
    unclamped union bound on P(masking fails | U = u), the same quantity as
    sum_w A_w C(n-w, u-w) / C(n, u); -inf where no weight w <= u has a
    count."""
    w = np.flatnonzero(wd.log_counts[1:top + 1] > _NEG_INF) + 1
    terms = np.full((top + 1, w.size), _NEG_INF)
    for u in range(top + 1):
        inside = w[w <= u]  # w ascends, so a prefix
        terms[u, :inside.size] = _log_binom_row(u)[inside]
    terms += wd.log_counts[w] - _log_binom_row(wd.n)[w]
    return np.logaddexp.reduce(terms, axis=1, initial=_NEG_INF)


def _log_binomial_masking(n: int, l: int, d0: int) -> np.ndarray:
    """log x_u for u = 0..n under 'binomial-approx' (A_w = C(n, w) 2^-l from
    d0 on): C(n, w) C(n-w, u-w) / C(n, u) = C(u, w), so
    x_u = 2^-l sum_{w >= d0} C(u, w) = 2^(u-l) P(Bin(u, 1/2) >= d0)."""
    return (np.arange(n + 1) - l) * _LN2 + _log_tails(n, 0.5, d0)


@functools.lru_cache(maxsize=16)
def _log_binomial_masking_bound(n: int, l: int, d0: int) -> np.ndarray:
    """log min(1, x_u) for u = 0..n under 'binomial-approx'; read-only and
    memoised per (n, l, d0)."""
    return _read_only(np.minimum(0.0, _log_binomial_masking(n, l, d0)))


def _log_masking_bound(params: PlbcParams, wd: WeightDistribution) -> np.ndarray:
    """log min(1, x_u) for u = 0..n, x_u as in ``_log_masking_sums``.

    'binomial-approx' takes the closed form from (n, l, d0) of ``params``.
    Counted distributions are summed over u <= l + 1 only, as the bound is 1
    from there on: x_u = E_S[N(S)] - 1 over the u-sets S of cells, N(S) the
    number of words of the [n, n-l] code supported in S.  Those words are
    the kernel of G0 restricted to S, an l x u matrix, so N(S) >= 2^(u-l).
    And x_u = sum_w A_w C(u, w) / C(n, w) does not fall with u for any
    nonnegative counts, so x_(l+1) >= 1 is all the clamp needs; counts with
    x_(l+1) below 1 by more than rounding are no code's: NumericError.
    """
    n, l = params.n, params.l
    if wd.method == "binomial-approx":
        return _log_binomial_masking_bound(n, l, params.d0)
    top = l + 1  # <= n, as k >= 1
    out = np.zeros(n + 1)
    out[:top + 1] = np.minimum(0.0, _log_masking_sums(wd, top))
    if top < n and out[top] < -1e-9:
        raise NumericError(
            "weight counts give a masking bound of %.6g below 1 at u = l + 1 = %d; "
            "no [n, n-l] code has them" % (math.exp(out[top]), top))
    return out


@dataclass(frozen=True)
class BoundResult:
    """Decoding-failure bound split by masking outcome.

    total = p_mask_and_fail + p_maskok_and_fail, reported unclamped.  Each
    of the two u-sums is truncated (see ``decoding_failure_bound``);
    ``u_tail_bound`` is the larger of the two defect-count tails P(U > u)
    they leave out (0.0 when neither was cut).  Each left-out part is at
    most its tail, so ``total`` can sit below the full sum by up to twice
    ``u_tail_bound``.
    """

    p_mask_and_fail: float
    p_maskok_and_fail: float
    total: float
    regime: str
    u_tail_bound: float = 0.0
    aw_method: str | None = None


_LOG_TRUNC = math.log(1e-3)


def _truncated_log_sum(log_terms: np.ndarray, start: int, log_more: np.ndarray):
    """log of sum over u = start..n of exp(log_terms[u - start]), truncated.

    The sum stops at the first u where log P(U > u) (``log_more``) is below
    log(1e-3) plus the running log-sum.  Returns the log-sum and the
    left-out P(U > u), 0.0 when the sum was not cut.  Most sums are cut
    within a few dozen terms, so the first 64 are searched on their own.
    Past them, the running log-sum is at least the running maximum, so the
    cut comes no later than where the maximum alone meets the rule, and
    only that prefix is accumulated.
    """
    log_more = log_more[start:]
    end = min(64, log_terms.size)
    cum = np.logaddexp.accumulate(log_terms[:end])
    hit = np.flatnonzero((cum > _NEG_INF) & (log_more[:end] < cum + _LOG_TRUNC))
    if not hit.size and end < log_terms.size:
        peak = np.maximum.accumulate(log_terms)
        hit = np.flatnonzero((peak > _NEG_INF) & (log_more < peak + _LOG_TRUNC))
        end = hit[0] + 1 if hit.size else log_terms.size
        cum = np.logaddexp.accumulate(log_terms[:end])
        hit = np.flatnonzero((cum > _NEG_INF) & (log_more[:end] < cum + _LOG_TRUNC))
    if hit.size:
        i = hit[0]
        return float(cum[i]), math.exp(log_more[i])
    return float(cum[-1]), 0.0


def decoding_failure_bound(
    params: PlbcParams,
    wd: WeightDistribution | None,
    ch: ChannelParams,
) -> BoundResult:
    """Upper bound on P(decoded message != written message).

    Routes by regime: epsilon = 0 reduces to the plain BSC(p) union bound
    with radius t1; l = 0 reduces to BSC(p_tilde); the general case splits
    on the masking outcome, bounding P(mask fails | u) by the weight
    distribution union bound and the conditional error tails by binomials.
    ``wd`` is the distribution of the masking code of ``params``, as
    ``weight_distribution(n, l, d0, method)`` gives it.  Each of the two
    u-sums is truncated once the remaining defect-tail mass P(U > u) drops
    below 1e-3 of its running total.  ``u_tail_bound`` reports the larger
    of the two left-out tails; since each sum can lose up to its own tail,
    the total can sit below the full sum by up to twice that amount.
    """
    n, t1, d0 = params.n, params.t1, params.d0
    if ch.epsilon == 0.0:
        total = math.exp(_log_tails(n, ch.p, t1 + 1)[n])
        return BoundResult(0.0, total, total, "epsilon-zero",
                           aw_method=wd.method if wd else None)
    if params.l == 0:
        total = math.exp(_log_tails(n, ch.p_tilde, t1 + 1)[n])
        return BoundResult(0.0, total, total, "l-zero",
                           aw_method=wd.method if wd else None)
    if wd is None:
        raise ValueError("the general regime needs a weight distribution")
    if wd.n != n:
        raise ValueError("weight distribution length mismatch")

    # log P(U > u) places the 1e-3 cut and gives u_tail_bound
    log_pmf, log_more = _defect_logs(n, ch.epsilon)
    # index u: log P(Bin(n - u, p) >= t1 + 1), errors beyond the radius
    mask_ok_fails = log_pmf + _log_tails(n, ch.p, t1 + 1)[::-1]
    mask_fails = ((log_pmf + _log_masking_bound(params, wd))[d0:]
                  + _log_diagonal_tails(n, ch.p, t1, d0))
    term1, tail1 = _truncated_log_sum(mask_fails, d0, log_more)
    term2, tail2 = _truncated_log_sum(mask_ok_fails, 0, log_more)
    p1, p2 = math.exp(term1), math.exp(term2)
    return BoundResult(
        p1, p2, p1 + p2, "general",
        u_tail_bound=max(tail1, tail2),
        aw_method=wd.method,
    )
