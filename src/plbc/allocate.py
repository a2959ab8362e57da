"""Redundancy allocation between defect masking and error correction.

Enumerates the (l, r) splits of the n - k redundancy cells into
field-degree multiples that can be built, and picks the candidate
minimizing either the closed-form failure bound or a simulated failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bch import field_degree
from .bounds import BoundResult, decoding_failure_bound, weight_distribution
from .channel import ChannelParams
from .codec import PbchCode, PlbcParams, construct_pbch, params_for
from .errors import ConstructionError
from .simulate import SimResult, run_trials

__all__ = [
    "AllocationReport",
    "CandidateResult",
    "allocate",
    "enumerate_candidates",
]


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated candidate: its metric, and the ``BoundResult`` or
    ``SimResult`` (with its ``ci95``) that the metric was read from."""

    candidate: PlbcParams
    metric: float
    detail: BoundResult | SimResult | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AllocationReport:
    channel: ChannelParams
    method: str
    results: tuple[CandidateResult, ...]
    best: CandidateResult


def enumerate_candidates(n: int, k: int) -> list[PlbcParams]:
    """The splits of n - k into multiples l and r of the field degree m that
    ``PlbcParams`` accepts as buildable, l ascending; a ConstructionError
    when none is."""
    m = field_degree(n)
    if k < 1:
        raise ValueError("message length k must be >= 1")
    if k > n:
        raise ValueError("k + l exceeds n")
    if (n - k) % m:
        raise ValueError("redundancy n-k=%d is not a multiple of m=%d" % (n - k, m))
    splits = []
    for t0 in range((n - k) // m + 1):
        try:
            splits.append(params_for(n, k, t0 * m))
        except ConstructionError:
            pass
    if not splits:
        raise ConstructionError("no (l, r) split of n=%d, k=%d can be built" % (n, k))
    return splits


def _bound_split(params: PlbcParams, ch: ChannelParams, aw_method: str) -> BoundResult:
    """The failure bound of one split on one channel.

    A_w enters only the general regime (epsilon > 0 and l > 0), so it is
    fetched only there.
    """
    wd = None
    if ch.epsilon > 0.0 and params.l > 0:
        wd = weight_distribution(params.n, params.l, params.d0, aw_method)
    return decoding_failure_bound(params, wd, ch)


def _simulate_split(
    code: PbchCode,
    ch: ChannelParams,
    trials: int,
    seed: int,
    *,
    threads: int = 1,
    stop_after_failures: int | None = None,
) -> SimResult:
    """Monte Carlo trials of one constructed split on one channel.

    Every split draws from its own stream t0 = l / m of the shared seed.
    """
    return run_trials(
        code, ch, trials, seed,
        threads=threads,
        stop_after_failures=stop_after_failures,
        stream=code.params.t0,
    )


def allocate(
    n: int,
    k: int,
    ch: ChannelParams,
    method: str = "bound",
    *,
    trials: int | None = None,
    seed: int = 0,
    threads: int = 1,
    stop_after_failures: int | None = None,
    aw_method: str = "binomial-approx",
) -> AllocationReport:
    """Pick the redundancy split minimizing the chosen failure metric.

    method 'bound' uses the closed-form upper bound (aw_method selects the
    weight-distribution source); 'simulation' runs ``trials`` Monte Carlo
    trials per candidate.  A candidate is evaluated by ``_bound_split`` or
    ``_simulate_split``, the evaluators ``plbc bound`` and ``plbc simulate``
    use, so all three report the same numbers for a split.  Ties go to the
    smallest l.
    """
    cands = enumerate_candidates(n, k)
    results = []
    if method == "bound":
        for c in cands:
            bres = _bound_split(c, ch, aw_method)
            results.append(CandidateResult(c, bres.total, detail=bres))
    elif method == "simulation":
        if trials is None:
            raise ValueError("the simulation method needs a trial count")
        for c in cands:
            sres = _simulate_split(
                construct_pbch(n, k, c.l), ch, trials, seed,
                threads=threads, stop_after_failures=stop_after_failures,
            )
            results.append(CandidateResult(c, sres.failure_rate, detail=sres))
    else:
        raise ValueError("unknown allocation method %r" % method)
    best = min(results, key=lambda res: res.metric)
    return AllocationReport(ch, method, tuple(results), best)
