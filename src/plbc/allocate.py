"""Redundancy allocation between defect masking and error correction.

Enumerates every (l, r) split of the n - k redundancy cells into
field-degree multiples and picks the candidate minimizing either the
closed-form failure bound or a simulated failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bch import field_degree
from .bounds import (
    BoundResult,
    capacity_max,
    capacity_min,
    decoding_failure_bound,
    weight_distribution,
)
from .channel import ChannelParams
from .codec import PlbcParams, construct_pbch, params_for
from .simulate import SimResult, run_trials

__all__ = [
    "AllocationCandidate",
    "AllocationReport",
    "CandidateResult",
    "allocate",
    "enumerate_candidates",
]


@dataclass(frozen=True)
class AllocationCandidate:
    index: int
    params: PlbcParams

    @property
    def l(self) -> int:
        return self.params.l

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def d0(self) -> int:
        return self.params.d0

    @property
    def d1(self) -> int:
        return self.params.d1


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated candidate; ci and note only under the simulation method."""

    candidate: AllocationCandidate
    metric: float
    ci: tuple[float, float] | None = None
    note: str | None = None
    detail: BoundResult | SimResult | None = field(default=None, compare=False)


@dataclass(frozen=True)
class AllocationReport:
    channel: ChannelParams
    method: str
    results: tuple[CandidateResult, ...]
    best: CandidateResult

    def to_dict(self) -> dict:
        out = {
            "channel": {
                "epsilon": self.channel.epsilon,
                "p": self.channel.p,
                "c_min": capacity_min(self.channel),
                "c_max": capacity_max(self.channel),
                "p_tilde": self.channel.p_tilde,
            },
            "method": self.method,
            "candidates": [],
            "best_l": self.best.candidate.l,
            "best_r": self.best.candidate.r,
        }
        for res in self.results:
            entry = {
                "l": res.candidate.l,
                "r": res.candidate.r,
                "d0": res.candidate.d0,
                "d1": res.candidate.d1,
                "metric": res.metric,
            }
            if res.ci is not None:
                entry["ci"] = list(res.ci)
            if res.note is not None:
                entry["note"] = res.note
            out["candidates"].append(entry)
        return out


def _field_degree(n: int, m: int | None) -> int:
    """The field degree m of length n; a given m must match it."""
    expected = field_degree(n)
    if m is not None and m != expected:
        raise ValueError("m=%d does not match n=%d (expected %d)" % (m, n, expected))
    return expected


def enumerate_candidates(n: int, k: int, m: int | None = None) -> list[AllocationCandidate]:
    """All (l, r) splits of n - k with both parts multiples of m, l ascending."""
    m = _field_degree(n, m)
    if (n - k) % m:
        raise ValueError("redundancy n-k=%d is not a multiple of m=%d" % (n - k, m))
    return [
        AllocationCandidate(i, params_for(n, k, i * m))
        for i in range((n - k) // m + 1)
    ]


def _bound_metric(cand: AllocationCandidate, ch: ChannelParams, aw_method: str):
    p = cand.params
    wd = None
    if ch.epsilon > 0.0 and p.l > 0:
        wd = weight_distribution(p.n, p.l, p.d0, aw_method)
    bres = decoding_failure_bound(p, wd, ch)
    return CandidateResult(cand, metric=bres.total, detail=bres)


def _sim_metric(cand, n, k, ch, trials, seed, threads, stop_after_failures):
    code = construct_pbch(n, k, cand.l)
    sres = run_trials(
        code, ch, trials, seed,
        threads=threads,
        stop_after_failures=stop_after_failures,
        stream=cand.params.t0,
    )
    note = "not estimable" if sres.decoding_failures == 0 else None
    return CandidateResult(
        cand, metric=sres.failure_rate,
        ci=(sres.ci_low, sres.ci_high), note=note, detail=sres,
    )


def allocate(
    n: int,
    k: int,
    m: int | None,
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
    trials per candidate, each on stream t0 = l / m of the shared seed, the
    stream ``plbc simulate`` uses for the same code.  Ties go to the
    smallest l.
    """
    cands = enumerate_candidates(n, k, m)
    if method == "bound":
        results = [_bound_metric(c, ch, aw_method) for c in cands]
    elif method == "simulation":
        if trials is None:
            raise ValueError("the simulation method needs a trial count")
        results = [
            _sim_metric(c, n, k, ch, trials, seed, threads, stop_after_failures)
            for c in cands
        ]
    else:
        raise ValueError("unknown allocation method %r" % method)
    best = results[0]
    for res in results[1:]:
        if res.metric < best.metric:
            best = res
    return AllocationReport(ch, method, tuple(results), best)
