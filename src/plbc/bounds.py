"""Closed-form failure bounds and channel capacities.

All probability accumulation runs in natural-log space with numpy: the
bounds' log binomial coefficients come from one log-factorial table per
length (``math.lgamma``, built once), sums are running ``np.logaddexp``
accumulations, and binomial tails follow the term-ratio recurrence with an
exact-in-double cutoff (terms more than 45 nats below the running sum with a
decaying term ratio cannot move a float64 total).  Weight counts are held as
logs, taken from exact integers or from a summed log-binomial row, and never
pass through a float that could overflow, so every length the field
supports (m <= 16, n up to 65535) works.

Weight distributions are memoised per (n, l, d0, method) in a bounded cache
and their arrays are read-only, so every caller shares one copy.
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
    "log_binom_tail",
    "macwilliams_transform",
    "masking_failure_bound",
    "weight_distribution",
]

_NEG_INF = float("-inf")
_LN2 = math.log(2.0)
_CHUNK = 32  # first window of u values, and of binomial tail terms
# cap on (window of u) x (n + 1): the (u, w) masking terms and the (u, j)
# tail terms of one window stay within a few such arrays of floats
_MAX_CELLS = 1 << 18
_MAX_TAIL_WIDTH = 1 << 12  # widest segment of binomial tail terms


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


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log i! for i = 0..n, so that log C(a, b) for
    0 <= b <= a <= n is (lf[a] - lf[b]) - lf[a - b]."""
    lf = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    lf.setflags(write=False)
    return lf


def _log_binom_tails(
    ns: np.ndarray, p: float, ts: np.ndarray, lf: np.ndarray
) -> np.ndarray:
    """log P(Bin(ns[i], p) >= ts[i]) for each i: ``log_binom_tail`` on arrays.

    ``lf`` is a log-factorial table reaching max(ns).  Each tail starts at
    its first term and follows the term-ratio recurrence, adding one term at
    a time as the scalar definition does; it stops where that definition
    stops (a ratio below 0.9 and a term 45 nats under the running sum) or at
    the last term.  Terms are taken in segments that double in width up to
    _MAX_TAIL_WIDTH, carrying each unfinished row's last term and sum over.
    """
    ns = np.asarray(ns, dtype=np.int64)
    ts = np.asarray(ts, dtype=np.int64)
    out = np.where(ts <= 0, 0.0, _NEG_INF)
    live = (ts > 0) & (ts <= ns)
    if p == 1.0:
        out[live] = 0.0
    if p in (0.0, 1.0):
        return out
    rows = np.flatnonzero(live)
    big_n, t = ns[rows], ts[rows]
    log_binoms = (lf[big_n] - lf[t]) - lf[big_n - t]
    cur = log_binoms + t * math.log(p) + (big_n - t) * math.log1p(-p)
    out[rows] = cur  # rows with t = n have no further term
    keep = t < big_n
    rows, big_n, t, cur = rows[keep], big_n[keep], t[keep], cur[keep]
    total = cur
    odds = p / (1.0 - p)
    width = _CHUNK
    while rows.size:
        j = t[:, None] + np.arange(1, width + 1)
        inside = j <= big_n[:, None]
        ratio = (big_n[:, None] - j + 1) / j * odds
        steps = np.log(ratio, out=np.full(ratio.shape, _NEG_INF), where=inside)
        cur_seg = np.cumsum(np.column_stack((cur, steps)), axis=1)[:, 1:]
        tot_seg = np.logaddexp.accumulate(np.column_stack((total, cur_seg)), axis=1)[:, 1:]
        stop = ((ratio < 0.9) & (cur_seg < tot_seg - 45.0)) | (j == big_n[:, None])
        done = stop.any(axis=1)
        out[rows[done]] = tot_seg[done, stop[done].argmax(axis=1)]
        more = ~done
        rows, big_n, t = rows[more], big_n[more], j[more, -1]
        cur, total = cur_seg[more, -1], tot_seg[more, -1]
        width = min(2 * width, _MAX_TAIL_WIDTH)
    return out


def log_binom_tail(n: int, p: float, t_lo: int) -> float:
    """log of P(Binomial(n, p) >= t_lo); t_lo <= 0 gives log 1 = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    lf = _log_factorials(n)
    return float(_log_binom_tails(np.array([n]), p, np.array([t_lo]), lf)[0])


def _log_defect_pmf(n: int, epsilon: float) -> np.ndarray:
    """log P(U = u) for u = 0..n, U ~ Bin(n, epsilon) the number of stuck
    cells: log C(n, u) + u log eps + (n - u) log(1 - eps)."""
    out = np.full(n + 1, _NEG_INF)
    if epsilon == 0.0:
        out[0] = 0.0
        return out
    if epsilon == 1.0:
        out[n] = 0.0
        return out
    lf = _log_factorials(n)
    u = np.arange(n + 1)
    log_binoms = (lf[n] - lf[u]) - lf[n - u]
    return log_binoms + u * math.log(epsilon) + (n - u) * math.log1p(-epsilon)


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
        """``counts`` are exact ints or floats; logs are taken entry by entry."""
        counts = list(counts)
        if len(counts) != n + 1:
            raise ValueError("counts must have length n + 1")
        if counts[0] != 1:
            raise ValueError("A_0 must be 1")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
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


def _log_binom_row(n: int) -> np.ndarray:
    """log C(n, w) for w = 0..n, within about 1e-14 relative of exact.

    Sums log((n - i + 1) / i) up to n/2 and mirrors; differences of the
    log-factorial table lose up to 3e-12 relative at n = 65535.
    """
    half = n // 2
    i = np.arange(1, half + 1)
    low = np.concatenate(([0.0], np.cumsum(np.log((n - i + 1) / i))))
    row = np.empty(n + 1)
    row[: half + 1] = low
    row[n - half:] = low[::-1]
    return row


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


def macwilliams_transform(dual_wd: WeightDistribution) -> WeightDistribution:
    """Weight counts of the code from its dual via the Krawtchouk transform.

    A_w = 2^(-dim) sum_j B_j K_w(j), with the binary Krawtchouk polynomials
    generated by their three-term recurrence in exact integer arithmetic.
    The dual counts are read as floats, so each must be at most 2^53, where
    a float still holds every integer; a larger or non-finite count raises
    NumericError.  Non-integral or negative outputs mean the input was not a
    valid dual distribution and raise NumericError.
    """
    b_int = []
    for w, c in enumerate(dual_wd.counts):
        if not c <= 2.0 ** 53:  # NaN and inf included
            raise NumericError(
                "dual weight count at weight %d is %r; a float does not hold "
                "counts above 2^53 exactly" % (w, float(c)))
        r = round(float(c))
        if abs(c - r) > 1e-6:
            raise NumericError("dual weight counts must be integers, got %r" % c)
        b_int.append(int(r))
    counts = _macwilliams_ints(dual_wd.n, b_int)
    return WeightDistribution(dual_wd.n, counts, "macwilliams")


def _macwilliams_ints(n: int, b_int: list[int]) -> list[int]:
    """Exact A_0..A_n from the exact dual counts B_0..B_n."""
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

def _log_masking_bounds(us: np.ndarray, wd: WeightDistribution) -> np.ndarray:
    """log of the union bound on P(masking fails | U = u) for each u in us,
    unclamped: one logaddexp reduction over w of
    log A_w + log C(n-w, u-w) - log C(n, u)."""
    top = int(us.max()) if len(us) else 0
    ws = np.flatnonzero(wd.log_counts[1:top + 1] > _NEG_INF) + 1
    if not ws.size:
        return np.full(len(us), _NEG_INF)
    n = wd.n
    lf = _log_factorials(n)
    u = us[:, None]
    w = ws[None, :]
    inside = w <= u
    v = np.where(inside, u - w, 0)
    lcnu = (lf[n] - lf[u]) - lf[n - u]
    terms = wd.log_counts[w] + ((lf[n - w] - lf[v]) - lf[n - u]) - lcnu
    terms[~inside] = _NEG_INF
    return np.logaddexp.reduce(terms, axis=1)


def masking_failure_bound(u: int, wd: WeightDistribution) -> float:
    """Union bound on the two-step masking failure probability, clamped to 1.

    P(masking fails | U = u) <= sum_w A_w C(n-w, u-w) / C(n, u); counts
    below the masking distance are zero so the sum effectively starts at d0.
    """
    if not 0 <= u <= wd.n:
        raise ValueError("u must be in [0, n]")
    lv = float(_log_masking_bounds(np.array([u]), wd)[0])
    return min(1.0, math.exp(lv)) if lv != _NEG_INF else 0.0


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


_TRUNC_REL = 1e-3
_LOG_TRUNC = math.log(_TRUNC_REL)


def _truncated_log_sum(log_terms, start: int, log_more: np.ndarray):
    """log of sum over u = start.. of exp(log_terms(u)), truncated.

    The sum stops at the first u where log P(U > u) (``log_more``) is below
    log(_TRUNC_REL) plus the running log-sum.  ``log_terms`` maps an array
    of u to their log terms; it is called on windows of u that double in
    size up to _MAX_CELLS / (n + 1), the first reaching _CHUNK past the
    first u with P(U > u) below _TRUNC_REL, where the earliest stop can
    fall.  Returns the log-sum and the left-out P(U > u), 0.0 when the sum
    was not cut.
    """
    n = len(log_more) - 1
    floor = int(np.argmax(log_more < _LOG_TRUNC))
    most = max(1, _MAX_CELLS // (n + 1))
    acc = np.array([_NEG_INF])
    lo, size = start, min(max(start, floor) + _CHUNK - start, most)
    while lo <= n:
        us = np.arange(lo, min(lo + size, n + 1))
        cum = np.logaddexp.accumulate(np.concatenate((acc, log_terms(us))))[1:]
        hit = np.flatnonzero((cum > _NEG_INF) & (log_more[us] < cum + _LOG_TRUNC))
        if hit.size:
            i = hit[0]
            return float(cum[i]), math.exp(log_more[us[i]])
        acc = cum[-1:]
        lo += size
        size = min(2 * size, most)
    return float(acc[0]), 0.0


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
    Each of the two u-sums is truncated once the remaining defect-tail mass
    P(U > u) drops below 1e-3 of its running total.  ``u_tail_bound``
    reports the larger of the two left-out tails; since each sum can lose
    up to its own tail, the total can sit below the full sum by up to twice
    that amount.
    """
    n, t1, d0 = params.n, params.t1, params.d0
    if ch.epsilon == 0.0:
        total = math.exp(log_binom_tail(n, ch.p, t1 + 1))
        return BoundResult(0.0, total, total, "epsilon-zero",
                           aw_method=wd.method if wd else None)
    if params.l == 0:
        total = math.exp(log_binom_tail(n, ch.p_tilde, t1 + 1))
        return BoundResult(0.0, total, total, "l-zero",
                           aw_method=wd.method if wd else None)
    if wd is None:
        raise ValueError("the general regime needs a weight distribution")
    if wd.n != n:
        raise ValueError("weight distribution length mismatch")

    lf = _log_factorials(n)
    log_pmf = _log_defect_pmf(n, ch.epsilon)
    # log P(U > u) at index u: suffix log-sums of the pmf, -inf at u = n
    log_more = np.append(np.logaddexp.accumulate(log_pmf[::-1])[-2::-1], _NEG_INF)

    def mask_fails(us):
        lm = np.minimum(0.0, _log_masking_bounds(us, wd))
        return log_pmf[us] + lm + _log_binom_tails(n - us, ch.p, t1 + d0 - us, lf)

    def mask_ok_fails(us):
        t_lo = np.full(len(us), t1 + 1)
        return log_pmf[us] + _log_binom_tails(n - us, ch.p, t_lo, lf)

    term1, tail1 = _truncated_log_sum(mask_fails, max(d0, 1), log_more)
    term2, tail2 = _truncated_log_sum(mask_ok_fails, 0, log_more)
    p1 = math.exp(term1) if term1 != _NEG_INF else 0.0
    p2 = math.exp(term2) if term2 != _NEG_INF else 0.0
    return BoundResult(
        p1, p2, p1 + p2, "general",
        u_tail_bound=max(tail1, tail2),
        aw_method=wd.method,
    )
