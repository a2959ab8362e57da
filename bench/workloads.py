"""The four workloads: inputs from the seed, one timed operation, its checks.

A workload's ``setup`` imports plbc, builds what the operation needs and
warms it up; ``op(j)`` is operation j of a round of ``per_round``
operations (every round repeats the same ones); ``record`` keeps what the
checks need, outside the timed region; ``check`` compares the outputs
with ``oracle`` and returns the problems found.  ``trace`` registers the
spans of the traced run and ``layers`` turns them into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from collections import defaultdict
from pathlib import Path

import numpy as np

from checks import check_allocation, check_construction, check_sim_counts, check_trial
from oracle import CodeOracle, bits_to_int, words_to_int


class Simulation:
    """One run_trials call per operation, threads=1, no early stop."""

    warm_trials = 16
    layer_prefixes = ("simulate.", "channel.", "codec.encode", "codec.unmasked",
                      "codec.decode", "codec.detected", "codec.miscorr",
                      "codec.extract")

    def __init__(self, n, k, l, eps, p, trials, per_round, replay):
        self.n, self.k, self.l, self.eps, self.p = n, k, l, eps, p
        self.trials, self.per_round, self.replay = trials, per_round, replay

    def setup(self, seed: int, out_dir: Path) -> None:
        from plbc import channel, codec, simulate

        self.simulate = simulate
        self.code = codec.construct_pbch(self.n, self.k, self.l)
        self.ch = channel.ChannelParams(self.eps, self.p)
        rnd = random.Random(seed)
        self.seeds = [rnd.getrandbits(63) for _ in range(self.per_round)]
        self.replay_seed = rnd.getrandbits(63)
        simulate.run_trials(self.code, self.ch, self.warm_trials,
                            self.replay_seed, threads=1)
        self.by_seed = defaultdict(list)

    def op(self, j: int):
        return self.simulate.run_trials(
            self.code, self.ch, self.trials, self.seeds[j],
            threads=1, stop_after_failures=None,
        )

    def record(self, j: int, res) -> None:
        self.by_seed[self.seeds[j]].append((
            res.trials, res.masking_failures, res.decoding_failures,
            res.joint_mask_fail_decode_fail,
        ))

    def check(self, last) -> list[str]:
        o = CodeOracle(self.n, self.k, self.l, self.code.field.primitive_poly)
        bad = []
        if self.code.g_poly != o.g or self.code.p_poly != o.p:
            bad.append("code polynomials differ from the BCH construction")
        bad += check_sim_counts(o, self.eps, self.p, self.trials, self.by_seed)
        for trial in self._replay():
            bad += check_trial(o, trial)
        return bad

    def _replay(self):
        """Trials drawn by the benchmark, run through encode/transmit/decode."""
        from plbc import BitVector, DefectVector, decode, encode, transmit

        n, k = self.n, self.k
        rng = np.random.default_rng(self.replay_seed)
        for _ in range(self.replay):
            w = bits_to_int(rng.integers(0, 2, size=k))
            stuck = rng.random(n) < self.eps
            vals = rng.integers(0, 2, size=n).astype(bool) & stuck
            z = bits_to_int((rng.random(n) < self.p) & ~stuck)
            pos = np.flatnonzero(stuck).tolist()
            s = DefectVector.from_positions(n, pos, vals[pos].astype(int).tolist())
            c, mres = encode(self.code, BitVector.from_int(k, w), s)
            y = transmit(c, s, BitVector.from_int(n, z))
            out = decode(self.code, y)
            yield {
                "w": w, "mask": bits_to_int(stuck), "vals": bits_to_int(vals),
                "z": z, "c": words_to_int(c.words), "unmasked": mres.unmasked,
                "y": words_to_int(y.words), "w_hat": words_to_int(out.w_hat.words),
                "status": out.status,
            }

    def trace(self, tr) -> None:
        sim = self.simulate
        cnt = tr.counts
        last_c = [None]

        def on_run(args, kwargs, res, ns):
            cnt["trials"] += res.trials

        def on_defects(args, kwargs, res, ns):
            cnt["stuck_cells"] += int(np.bitwise_count(res.mask.words).sum())

        def on_errors(args, kwargs, res, ns):
            cnt["error_bits"] += int(np.bitwise_count(res.words).sum())

        def on_encode(args, kwargs, res, ns):
            last_c[0] = res[0].words
            cnt["step2"] += res[1].step_used == 2
            cnt["unmasked"] += res[1].unmasked

        def on_decode(args, kwargs, res, ns):
            words, status, z_weight = res
            kind = ("fail" if status == "detected_failure"
                    else "fix" if z_weight > 0 else "clean")
            cnt["decode_%s_calls" % kind] += 1
            cnt["decode_%s_ns" % kind] += ns
            if kind == "fail":
                cnt["detected"] += 1
            elif not np.array_equal(words, last_c[0]):
                cnt["miscorrected"] += 1

        tr.target(sim, "run_trials", "simulate.run_trials", on_run)
        tr.target(sim, "sample_defects", "channel.sample_defects", on_defects)
        tr.target(sim, "sample_errors", "channel.sample_errors", on_errors)
        tr.target(sim, "transmit", "channel.transmit")
        tr.target(sim, "encode", "codec.encode", on_encode)
        tr.target(sim, "_decode_words", "codec.decode_words", on_decode)
        tr.target(sim, "_extract_message", "codec.extract_message")

    def layers(self, tr, ops: int) -> dict:
        sp, cnt, out = tr.spans, tr.counts, {}
        trials = cnt["trials"]
        if tr.has("simulate.run_trials") and trials:
            out["simulate.self_us_per_trial"] = sp["simulate.run_trials"].self_ns / trials / 1e3
            out["simulate.trials"] = trials / ops
        for key, span in (("sample_defects", "channel.sample_defects"),
                          ("sample_errors", "channel.sample_errors"),
                          ("transmit", "channel.transmit")):
            if tr.has(span):
                out["channel.%s_us" % key] = tr.per_call(span, 1e3)
        if tr.has("simulate.run_trials", "channel.sample_defects") and trials:
            out["channel.stuck_cells_per_trial"] = cnt["stuck_cells"] / trials
        if tr.has("simulate.run_trials", "channel.sample_errors") and trials:
            out["channel.error_bits_per_trial"] = cnt["error_bits"] / trials
        if tr.has("codec.encode"):
            calls = sp["codec.encode"].calls
            out["codec.encode_us"] = tr.per_call("codec.encode", 1e3)
            out["codec.encode_step2_share"] = cnt["step2"] / calls if calls else 0.0
            out["codec.unmasked_cells"] = cnt["unmasked"] / ops
        if tr.has("codec.decode_words", "codec.encode"):
            calls = sp["codec.decode_words"].calls
            out["codec.decode_words_us"] = tr.per_call("codec.decode_words", 1e3)
            for kind in ("clean", "fix", "fail"):
                c = cnt["decode_%s_calls" % kind]
                out["codec.decode_%s_us" % kind] = (
                    cnt["decode_%s_ns" % kind] / c / 1e3 if c else 0.0)
            out["codec.decode_fix_share"] = (
                cnt["decode_fix_calls"] / calls if calls else 0.0)
            out["codec.detected_failures"] = cnt["detected"] / ops
            out["codec.miscorrections"] = cnt["miscorrected"] / ops
        if tr.has("codec.extract_message"):
            out["codec.extract_message_us"] = tr.per_call("codec.extract_message", 1e3)
            out["codec.extract_message_calls"] = sp["codec.extract_message"].calls / ops
        return out


class Construction:
    """construct_pbch of the (2047, 1937, 22) code; no input depends on the seed."""

    per_round = 1
    n, k, l = 2047, 1937, 22
    layer_prefixes = ("codec.construct", "codec.check_identities",
                      "codec.message_inverse", "gf2.", "bch.")

    def setup(self, seed: int, out_dir: Path) -> None:
        from plbc import bch, codec, gf2

        self.codec, self.bch, self.gf2 = codec, bch, gf2
        codec.construct_pbch(15, 7, 4)
        self.digests = set()

    def op(self, j: int):
        return self.codec.construct_pbch(self.n, self.k, self.l)

    def record(self, j: int, code) -> None:
        h = hashlib.sha256(repr((code.g_poly, code.p_poly)).encode())
        for mat in (code.gen_message, code.gen_mask, code.parity, code.msg_inverse):
            h.update(np.ascontiguousarray(mat.words).tobytes())
        self.digests.add(h.hexdigest())

    def check(self, code) -> list[str]:
        bad = []
        if len(self.digests) != 1:
            bad.append("construction gave %d different codes" % len(self.digests))
        o = CodeOracle(self.n, self.k, self.l, code.field.primitive_poly)
        bad += check_construction(o, {
            "g": code.g_poly, "p": code.p_poly,
            "gen_message": code.gen_message.words, "gen_mask": code.gen_mask.words,
            "parity": code.parity.words, "msg_inverse": code.msg_inverse.words,
        })
        return bad

    def trace(self, tr) -> None:
        codec, bch, gf2 = self.codec, self.bch, self.gf2
        tr.target(codec, "construct_pbch", "codec.construct_pbch")
        tr.target(codec, "_check_code_identities", "codec.check_identities")
        tr.target(codec, "message_inverse", "codec.message_inverse")
        tr.target(codec, "rref", "gf2.rref")
        tr.target(gf2, "rref", "gf2.rref")
        tr.target(codec, "bch_generator", "bch.bch_generator")
        tr.target(codec, "bch_parity_check", "bch.bch_parity_check")
        tr.target(codec, "cyclotomic_coset", "bch.cyclotomic_coset")
        tr.target(bch, "cyclotomic_coset", "bch.cyclotomic_coset")

    def layers(self, tr, ops: int) -> dict:
        sp, out = tr.spans, {}
        for metric, span in (("codec.construct_pbch_ms", "codec.construct_pbch"),
                             ("codec.check_identities_ms", "codec.check_identities"),
                             ("codec.message_inverse_ms", "codec.message_inverse"),
                             ("gf2.rref_ms", "gf2.rref"),
                             ("bch.bch_generator_ms", "bch.bch_generator"),
                             ("bch.bch_parity_check_ms", "bch.bch_parity_check")):
            if tr.has(span):
                out[metric] = sp[span].ns / ops / 1e6
        if tr.has("bch.cyclotomic_coset"):
            out["bch.cyclotomic_coset_calls"] = sp["bch.cyclotomic_coset"].calls / ops
        if tr.has("codec.construct_pbch"):
            out["codec.construct_self_ms"] = sp["codec.construct_pbch"].self_ns / ops / 1e6
        return out


class Allocation:
    """`plbc allocate --preset table2` by the bound, JSON to a file.

    Seven channels times eleven (l, r) candidates of the [1023, 923] code;
    no input depends on the seed.
    """

    per_round = 1
    n, k = 1023, 923
    layer_prefixes = ("bounds.", "allocate.", "cli.")

    def setup(self, seed: int, out_dir: Path) -> None:
        # plbc exports the function allocate under the submodule's name
        self.cli = importlib.import_module("plbc.cli")
        self.allocate_mod = importlib.import_module("plbc.allocate")
        self.bounds = importlib.import_module("plbc.bounds")
        self.path = out_dir / "allocate-table2.json"
        self.argv = ["allocate", "--preset", "table2", "--method", "bound",
                     "--threads", "1", "--format", "json", "--out", str(self.path)]
        warm = ["allocate", "--n", "15", "--k", "7", "--epsilon", "0.004",
                "--p", "0.002", "--threads", "1", "--out", str(self.path)]
        if self.cli.main(warm) != 0:
            raise RuntimeError("warm-up allocate failed")
        self.digests = set()

    def op(self, j: int):
        rc = self.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError("plbc allocate exited with %d" % rc)
        return rc

    def record(self, j: int, rc) -> None:
        self.digests.add(hashlib.sha256(self.path.read_bytes()).hexdigest())

    def check(self, rc) -> list[str]:
        bad = []
        if len(self.digests) != 1:
            bad.append("allocate wrote %d different outputs" % len(self.digests))
        doc = json.loads(self.path.read_text())
        if len(doc["reports"]) != 7 or any(
                len(r["candidates"]) != 11 for r in doc["reports"]):
            bad.append("expected 7 channels x 11 candidates")
        return bad + check_allocation(doc, self._tails(doc), self.n, self.k)

    def _tails(self, doc) -> dict:
        """The program's neglected tail mass for each truncated bound."""
        from plbc import ChannelParams, params_for

        b = self.bounds
        wds, tails = {}, {}
        for rep in doc["reports"]:
            ch = ChannelParams(rep["channel"]["epsilon"], rep["channel"]["p"])
            for cand in rep["candidates"]:
                l = cand["l"]
                if ch.epsilon == 0.0 or l == 0:
                    continue
                par = params_for(self.n, self.k, l)
                if l not in wds:
                    wds[l] = b.weight_distribution(self.n, l, par.d0, "binomial-approx")
                res = b.decoding_failure_bound(par, wds[l], ch)
                tails[(rep["channel_id"], l)] = res.u_tail_bound
        return tails

    def trace(self, tr) -> None:
        cnt = tr.counts
        seen = set()

        def on_wd(args, kwargs, res, ns):
            seen.add(tuple(args) + tuple(sorted(kwargs.items())))

        def on_bound(args, kwargs, res, ns):
            if res.regime == "general":
                cnt["bound_general_calls"] += 1
                cnt["bound_general_ns"] += ns
            cnt["u_tail_max"] = max(cnt["u_tail_max"], res.u_tail_bound)

        def on_main(args, kwargs, res, ns):
            # distinct weight-distribution inputs are counted per operation
            cnt["wd_distinct_sum"] += len(seen)
            seen.clear()

        tr.target(self.cli, "main", "cli.main", on_main)
        tr.target(self.cli, "allocate", "allocate.allocate")
        tr.target(self.allocate_mod, "weight_distribution",
                  "bounds.weight_distribution", on_wd)
        tr.target(self.allocate_mod, "decoding_failure_bound",
                  "bounds.decoding_failure_bound", on_bound)

    def layers(self, tr, ops: int) -> dict:
        sp, cnt, out = tr.spans, tr.counts, {}
        if tr.has("bounds.weight_distribution", "cli.main"):
            wd = sp["bounds.weight_distribution"]
            out["bounds.weight_distribution_ms"] = wd.ns / ops / 1e6
            out["bounds.weight_distribution_calls"] = wd.calls / ops
            out["bounds.weight_distribution_distinct"] = cnt["wd_distinct_sum"] / ops
            out["bounds.aw_useful_ratio"] = (
                cnt["wd_distinct_sum"] / wd.calls if wd.calls else 0.0)
        if tr.has("bounds.decoding_failure_bound"):
            out["bounds.decoding_failure_bound_ms"] = cnt["bound_general_ns"] / ops / 1e6
            out["bounds.decoding_failure_bound_calls"] = cnt["bound_general_calls"] / ops
            out["bounds.u_tail_bound_max"] = cnt["u_tail_max"]
        if tr.has("allocate.allocate"):
            alloc = sp["allocate.allocate"]
            out["allocate.allocate_ms"] = tr.per_call("allocate.allocate", 1e6)
            out["allocate.self_ms"] = (
                alloc.self_ns / alloc.calls / 1e6 if alloc.calls else 0.0)
            if tr.has("cli.main"):
                out["cli.emit_ms"] = (sp["cli.main"].ns - alloc.ns) / ops / 1e6
        return out


WORKLOADS = {
    # the paper's code at table2 channel 4; left out of BENCHMARK.json
    # because its op_ms is not steady on a shared host (see README.md)
    "sim-n1023": lambda: Simulation(1023, 923, 20, 4e-3, 2e-3,
                                    trials=1024, per_round=4, replay=256),
    # the README's example code and channel
    "sim-n15": lambda: Simulation(15, 7, 4, 0.1, 0.02,
                                  trials=1024, per_round=8, replay=4096),
    "allocate-table2": Allocation,
    "construct-n2047": Construction,
}
