"""Batch experiment front-end.

Subcommands: code, candidates, capacity, simulate, bound, allocate.
Exit codes: 0 success, 2 usage error, 3 construction error, 4 numeric
error (including float overflow), 5 I/O error.

This module alone defines the output schemas.  Each subcommand builds its
header and rows, or a JSON document, and hands them to ``_emit``, the one
writer of command output: CSV starts with a schema-version comment line,
JSON with a "schema" key, every float has 12 significant digits, and the
text goes to ``--out`` or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .allocate import (
    _bound_split,
    _simulate_split,
    allocate,
    enumerate_candidates,
)
from .bounds import capacity_max, capacity_min
from .channel import ChannelParams
from .codec import construct_pbch, params_for
from .errors import ConstructionError, NumericError

# Built-in "table2" preset: channel id -> (epsilon, p); all seven share
# C_min ~ 0.9624 while trading defect rate against error rate.  Their
# equivalent crossover rates p_tilde = (1-eps)p + eps/2 agree only
# approximately (0.003992 to 0.004); just channels 1 and 7 share
# p_tilde = 0.004 exactly.
TABLE2_CHANNELS = {
    1: (0.0, 4.0e-3),
    2: (2.0e-3, 3.0e-3),
    3: (3.0e-3, 2.5e-3),
    4: (4.0e-3, 2.0e-3),
    5: (6.0e-3, 1.0e-3),
    6: (7.0e-3, 5.0e-4),
    7: (8.0e-3, 0.0),
}

_AW_NAMES = {
    "exact": "exact-enumeration",
    "macwilliams": "macwilliams",
    "binomial": "binomial-approx",
}


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(args, schema: str, header: list[str], rows: list[list], doc=None) -> None:
    """Write a command's output to ``--out`` or stdout: the one writer.

    CSV is the schema comment line, the header and the rows.  JSON is an
    object whose "schema" key comes first, followed by ``doc``'s keys, or
    by "rows" (one object per row) when there is no doc.  ``schema`` is
    the versioned name after ``plbc.``; every float has 12 significant
    digits.
    """
    if args.format == "json":
        obj = {"schema": "plbc.%s" % schema}
        if doc is None:
            doc = {"rows": [dict(zip(header, row)) for row in rows]}
        obj.update(doc)
        text = json.dumps(_round12(obj), indent=2) + "\n"
    else:
        lines = ["# schema=plbc.%s" % schema, ",".join(header)]
        lines += [
            ",".join("%.12g" % v if isinstance(v, float) else str(v) for v in row)
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_threads() -> int:
    env = os.environ.get("PLBC_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError("PLBC_THREADS must be an integer, got %r" % env)
        if value < 1:
            raise ValueError("PLBC_THREADS must be positive")
        return value
    return os.cpu_count() or 1


def _channels(args) -> list[tuple[int, ChannelParams]]:
    """Channel list from --preset or --epsilon/--p; custom channels get id 0."""
    if getattr(args, "preset", None):
        if args.epsilon is not None or args.p is not None:
            raise ValueError("give either --preset or --epsilon/--p, not both")
        if args.preset != "table2":
            raise ValueError("unknown preset %r" % args.preset)
        return [
            (cid, ChannelParams(eps, p))
            for cid, (eps, p) in sorted(TABLE2_CHANNELS.items())
        ]
    if args.epsilon is None or args.p is None:
        raise ValueError("need --epsilon and --p, or --preset table2")
    return [(0, ChannelParams(args.epsilon, args.p))]


def _sweep_params(args):
    """Candidate parameter sets for --l (single) or the full l-sweep."""
    if args.l is not None:
        return [params_for(args.n, args.k, args.l)]
    return enumerate_candidates(args.n, args.k)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_code(args) -> int:
    (params,) = _sweep_params(args)
    code = construct_pbch(params.n, params.k, params.l)
    doc = {name: getattr(params, name) for name in ("n", "k", "l", "r", "m", "d0", "d1")}
    doc["g_poly"] = format(code.g_poly, "x")
    doc["p_poly"] = format(code.p_poly, "x")
    if args.matrices:
        for name in ("gen_message", "gen_mask", "parity", "msg_inverse"):
            doc[name] = [format(v, "x") for v in getattr(code, name).row_ints()]
    _emit(args, "code.v1", [], [], doc)
    return 0


def _cmd_candidates(args) -> int:
    cands = enumerate_candidates(args.n, args.k)
    rows = [[c.t0, c.l, c.r, c.d0, c.d1] for c in cands]
    _emit(args, "candidates.v2", ["t0", "l", "r", "d0", "d1"], rows)
    return 0


def _cmd_capacity(args) -> int:
    rows = []
    for cid, ch in _channels(args):
        rows.append(
            [cid, ch.epsilon, ch.p, ch.p_tilde, capacity_min(ch), capacity_max(ch)]
        )
    header = ["channel_id", "epsilon", "p", "p_tilde", "c_min", "c_max"]
    _emit(args, "capacity.v1", header, rows)
    return 0


def _cmd_simulate(args) -> int:
    threads = args.threads if args.threads is not None else _default_threads()
    stop = args.stop_after_failures or None
    rows = []
    for params in _sweep_params(args):
        code = construct_pbch(params.n, params.k, params.l)
        for cid, ch in _channels(args):
            res = _simulate_split(
                code, ch, args.trials, args.seed,
                threads=threads, stop_after_failures=stop,
            )
            rows.append([
                cid, ch.epsilon, ch.p, params.l, params.r,
                res.trials, res.masking_failures, res.decoding_failures,
                res.failure_rate, res.ci_low, res.ci_high, res.seed,
            ])
    header = [
        "channel_id", "epsilon", "p", "l", "r", "trials",
        "mask_fails", "dec_fails", "rate", "ci_lo", "ci_hi", "seed",
    ]
    _emit(args, "simulate.v1", header, rows)
    return 0


def _cmd_bound(args) -> int:
    aw = _AW_NAMES[args.aw]
    rows = []
    for params in _sweep_params(args):
        for cid, ch in _channels(args):
            res = _bound_split(params, ch, aw)
            rows.append([
                cid, ch.epsilon, ch.p, params.l, params.r, params.d0, params.d1,
                res.aw_method or "none",
                res.p_mask_and_fail, res.p_maskok_and_fail, res.total,
            ])
    header = [
        "channel_id", "epsilon", "p", "l", "r", "d0", "d1", "aw_method",
        "bound_mask_fail", "bound_maskok_fail", "bound_total",
    ]
    _emit(args, "bound.v1", header, rows)
    return 0


def _cmd_allocate(args) -> int:
    threads = args.threads if args.threads is not None else _default_threads()
    stop = args.stop_after_failures or None
    rows, reports = [], []
    for cid, ch in _channels(args):
        rep = allocate(
            args.n, args.k, ch, args.method,
            trials=args.trials, seed=args.seed, threads=threads,
            stop_after_failures=stop, aw_method=_AW_NAMES[args.aw],
        )
        entries = []
        for res in rep.results:
            c = res.candidate
            entry = {"l": c.l, "r": c.r, "d0": c.d0, "d1": c.d1, "metric": res.metric}
            ci_lo = ci_hi = note = ""
            if rep.method == "simulation":
                ci_lo, ci_hi = entry["ci"] = res.detail.ci95
                if res.detail.decoding_failures == 0:
                    note = entry["note"] = "not estimable"
            entries.append(entry)
            rows.append([
                cid, c.l, c.r, c.d0, c.d1, res.metric,
                ci_lo, ci_hi, note, 1 if res is rep.best else 0,
            ])
        reports.append({
            "channel_id": cid,
            "channel": {
                "epsilon": ch.epsilon,
                "p": ch.p,
                "c_min": capacity_min(ch),
                "c_max": capacity_max(ch),
                "p_tilde": ch.p_tilde,
            },
            "method": rep.method,
            "candidates": entries,
            "best_l": rep.best.candidate.l,
            "best_r": rep.best.candidate.r,
        })
    header = [
        "channel_id", "l", "r", "d0", "d1", "metric",
        "ci_lo", "ci_hi", "note", "best",
    ]
    _emit(args, "allocate.v1", header, rows, {"reports": reports})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_code_args(sp, with_l=True, l_required=False):
    sp.add_argument("--n", type=int, default=1023, help="code length (2^m - 1)")
    sp.add_argument("--k", type=int, default=923, help="message length")
    if with_l:
        sp.add_argument(
            "--l", type=int, required=l_required, default=None,
            help="masking redundancy (default: sweep all candidates)",
        )


def _add_channel_args(sp):
    sp.add_argument("--epsilon", type=float, default=None, help="defect probability")
    sp.add_argument("--p", type=float, default=None, help="error probability")
    sp.add_argument(
        "--preset", choices=["table2"], default=None,
        help="named channel set (seven channels with equal C_min)",
    )


def _add_output_args(sp, formats=("csv", "json"), default="csv"):
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=list(formats), default=default)


def _add_run_args(sp):
    sp.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sp.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default: PLBC_THREADS or all cores)",
    )
    sp.add_argument(
        "--stop-after-failures", type=int, default=100,
        help="stop once this many decoding failures accumulate (0 disables)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call."""
    # a prefix of a long option is an error, not a guess
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = no_abbrev(
        prog="plbc",
        description="Partitioned BCH codes for defect-prone memories: "
        "construction, simulation, failure bounds, redundancy allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)

    sp = sub.add_parser("code", help="construct a code and print its descriptor")
    _add_code_args(sp, l_required=True)
    sp.add_argument("--matrices", action="store_true", help="include full matrices")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=_cmd_code, format="json")

    sp = sub.add_parser("candidates", help="list all (l, r) allocation candidates")
    _add_code_args(sp, with_l=False)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_candidates)

    sp = sub.add_parser("capacity", help="channel capacities with/without defect info")
    _add_channel_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_capacity)

    sp = sub.add_parser("simulate", help="Monte Carlo failure-rate estimation")
    _add_code_args(sp)
    _add_channel_args(sp)
    _add_run_args(sp)
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("bound", help="closed-form decoding-failure bounds")
    _add_code_args(sp)
    _add_channel_args(sp)
    sp.add_argument(
        "--aw", choices=sorted(_AW_NAMES), default="binomial",
        help="weight-distribution method for the masking bound",
    )
    _add_output_args(sp)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("allocate", help="optimal (l, r) redundancy split")
    _add_code_args(sp, with_l=False)
    _add_channel_args(sp)
    sp.add_argument("--method", choices=["bound", "simulation"], default="bound")
    sp.add_argument(
        "--aw", choices=sorted(_AW_NAMES), default="binomial",
        help="weight-distribution method for the bound metric",
    )
    _add_run_args(sp)
    _add_output_args(sp, formats=("json", "csv"), default="json")
    sp.set_defaults(func=_cmd_allocate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate" and args.trials is None:
            raise ValueError("simulate needs --trials")
        if (
            args.command == "allocate"
            and args.method == "simulation"
            and args.trials is None
        ):
            raise ValueError("allocate --method simulation needs --trials")
        return args.func(args)
    except ConstructionError as exc:
        print("construction error: %s" % exc, file=sys.stderr)
        return 3
    except (NumericError, OverflowError) as exc:
        print("numeric error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("I/O error: %s" % exc, file=sys.stderr)
        return 5
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
