import importlib
import pkgutil

import pytest

import plbc

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
    # and compares decoded words through numpy (values: tests/test_gf2.py)
    code = plbc.construct_pbch(15, 7, 4)
    assert code.field.primitive_poly == 0b10011
    for mat in (code.gen_message, code.gen_mask, code.parity, code.msg_inverse):
        assert mat.words.shape == (mat.rows, 1)
    assert isinstance(plbc.BitVector.words, property)
    assert callable(plbc.BitVector.__array__)
