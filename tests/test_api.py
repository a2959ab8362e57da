import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plbc
from plbc.codec import message_inverse

ROOT = Path(__file__).resolve().parents[1]

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(plbc.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["plbc"] + ["plbc." + name for name in SUBMODULES])
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(mod, name)]
    assert not missing, missing



# Module attributes that bench/workloads.py wraps (through bench/tracing.py)
# or calls by name.  The benchmark looks each one up at run time: a missing
# name leaves its per-layer metric unmeasured or fails the workload.
BENCHMARK_NAMES = {
    "plbc": ["BitVector", "ChannelParams", "DefectVector", "decode", "encode",
             "params_for", "transmit"],
    "plbc.allocate": ["decoding_failure_bound", "weight_distribution"],
    "plbc.bch": ["cyclotomic_coset"],
    "plbc.bounds": ["decoding_failure_bound", "weight_distribution"],
    "plbc.channel": ["ChannelParams"],
    "plbc.cli": ["allocate", "main"],
    "plbc.codec": ["_check_code_identities", "bch_generator", "bch_parity_check",
                   "construct_pbch", "message_inverse"],
    "plbc.gf2": ["rref"],
    "plbc.simulate": ["_decode_words", "_extract_message", "encode", "run_trials",
                      "sample_defects", "sample_errors", "transmit"],
}


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in sorted(BENCHMARK_NAMES.items()) for name in names
])
def test_benchmark_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


def test_benchmark_reads_packed_words():
    # the benchmark hashes a code's matrices and trial words as uint64 words
    # and compares decoded words through numpy (values: tests/test_gf2.py);
    # G1, G0, H and T are built from the code's polynomials when first read
    assert plbc.construct_pbch(15, 7, 4).field.primitive_poly == 0b10011
    for n, k, l in ((15, 7, 4), (1023, 923, 20)):
        code = plbc.construct_pbch(n, k, l)
        assert not {"gen_message", "gen_mask", "parity", "msg_inverse"} & set(vars(code))
        for mat, rows in ((code.gen_message, k), (code.gen_mask, l),
                          (code.parity, n - k - l), (code.msg_inverse, k)):
            assert mat.words.dtype == np.uint64 and mat.words.flags.c_contiguous
            assert mat.words.shape == (rows, -(-n // 64))
        assert code.gen_message.row_ints() == [code.g_poly << i for i in range(k)]
        assert code.gen_mask.row_ints() == [code.p_poly << i for i in range(l)]
        assert code.msg_inverse == message_inverse(n, code.g_poly, code.p_poly)
    assert isinstance(plbc.BitVector.words, property)
    assert callable(plbc.BitVector.__array__)


def _no_constant(name):
    raise ValueError("not strict JSON: %s" % name)


def _bench_smoke(workload, trace):
    """A one-second benchmark run: it must exit 0, measure every metric of
    its layers and end in a strict-JSON result line (no NaN) whose checks
    passed with no failed operation.  Returns that result."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert not [ln for ln in lines if ln.startswith("not measured:")], proc.stdout
    res = json.loads(lines[-1], parse_constant=_no_constant)
    assert res["correct"] is True and res["failed"] == 0, proc.stderr
    return res


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_construct_smoke(trace):
    res = _bench_smoke("construct-n2047", trace)
    if trace == "1":
        # construction and its bch stages stay visible to the tracer
        for name in ("codec.construct_pbch_ms", "codec.check_identities_ms",
                     "bch.bch_generator_ms", "bch.bch_parity_check_ms"):
            assert res["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_sim_n15_smoke(trace):
    res = _bench_smoke("sim-n15", trace)
    if trace == "1":
        # run_trials, and the decoder on the words above t1, stay visible
        for name in ("simulate.self_us_per_trial", "simulate.trials",
                     "codec.decode_words_us"):
            assert res["metrics"][name]["value"] > 0, name
