"""Spans taken from outside plbc, by wrapping functions where they are imported.

A ``Tracer`` replaces a module attribute (say ``plbc.simulate.encode``) with
a wrapper that times each call and hands the result to an optional hook.
Callers inside plbc look the name up in their module's globals at call
time, so they reach the wrapper; ``remove`` puts the originals back.
Spans nest through a stack: a span's self time is its duration minus the
time of the spans it caused, and the bookkeeping of a child (its hook
included) counts as the child's, not the parent's.  Everything stays in
memory; ``summary`` gives the aggregate that is written out at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict

# every per-layer metric: name -> unit.  Times of a call are per call,
# counts and times of an operation per operation, unless named per trial.
PER_LAYER = {
    "simulate.self_us_per_trial": "us/trial",
    "simulate.trials": "count/op",
    "channel.sample_defects_us": "us/call",
    "channel.sample_errors_us": "us/call",
    "channel.transmit_us": "us/call",
    "channel.stuck_cells_per_trial": "count/trial",
    "channel.error_bits_per_trial": "count/trial",
    "codec.encode_us": "us/call",
    "codec.encode_step2_share": "ratio",
    "codec.unmasked_cells": "count/op",
    "codec.decode_words_us": "us/call",
    "codec.decode_clean_us": "us/call",
    "codec.decode_fix_us": "us/call",
    "codec.decode_fail_us": "us/call",
    "codec.decode_fix_share": "ratio",
    "codec.detected_failures": "count/op",
    "codec.miscorrections": "count/op",
    "codec.extract_message_us": "us/call",
    "codec.extract_message_calls": "count/op",
    "codec.construct_pbch_ms": "ms/op",
    "codec.check_identities_ms": "ms/op",
    "codec.message_inverse_ms": "ms/op",
    "gf2.rref_ms": "ms/op",
    "bch.bch_generator_ms": "ms/op",
    "bch.bch_parity_check_ms": "ms/op",
    "bch.cyclotomic_coset_calls": "count/op",
    "codec.construct_self_ms": "ms/op",
    "bounds.weight_distribution_ms": "ms/op",
    "bounds.weight_distribution_calls": "count/op",
    "bounds.weight_distribution_distinct": "count/op",
    "bounds.aw_useful_ratio": "ratio",
    "bounds.decoding_failure_bound_ms": "ms/op",
    "bounds.decoding_failure_bound_calls": "count/op",
    "bounds.u_tail_bound_max": "probability",
    "allocate.allocate_ms": "ms/call",
    "allocate.self_ms": "ms/call",
    "cli.emit_ms": "ms/op",
    "trace.overhead_pct": "%",
}


class Span:
    __slots__ = ("calls", "ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[list] = []
        self._patched: list[tuple] = []
        self._targets: list[tuple] = []

    def target(self, module, attr: str, span: str, hook=None) -> None:
        """Register ``module.attr`` to be wrapped as ``span`` by ``install``.

        ``hook(args, kwargs, result, ns)`` runs after each call; an error in
        it is recorded and disables that hook, never the call.
        """
        if getattr(module, attr, None) is None:
            self.missing.append("%s.%s" % (module.__name__, attr))
            return
        self._targets.append((module, attr, span, hook))

    def install(self) -> None:
        for module, attr, span, hook in self._targets:
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, span, hook))
            self._patched.append((module, attr, orig))

    def remove(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def _wrap(self, orig, name: str, hook):
        stack = self._stack
        rec = self.spans[name]
        edges = self.edges
        clock = time.perf_counter_ns
        hooks = [hook] if hook is not None else []

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                res = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
            rec.calls += 1
            rec.ns += dt
            rec.child_ns += frame[1]
            if hooks:
                try:
                    hooks[0](args, kwargs, res, dt)
                except Exception as exc:  # a hook must never fail the call
                    self.hook_errors[name] = repr(exc)
                    hooks.clear()
            if stack:
                parent = stack[-1]
                parent[1] += clock() - t0
                edges[(parent[0], name)] += 1
            else:
                edges[("", name)] += 1
            return res

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {
                k: {"calls": s.calls, "ns": s.ns, "self_ns": s.self_ns}
                for k, s in sorted(self.spans.items())
            },
            "edges": ["%s -> %s: %d" % (a or "(benchmark)", b, c)
                      for (a, b), c in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
            "hook_errors": self.hook_errors,
        }

    # helpers for the metric tables -------------------------------------
    def has(self, *names: str) -> bool:
        """True when every named span was wrapped and no hook failed."""
        wrapped = {t[2] for t in self._targets}
        return all(n in wrapped and n not in self.hook_errors for n in names)

    def per_call(self, name: str, scale: float) -> float:
        s = self.spans[name]
        return s.ns / s.calls / scale if s.calls else 0.0
