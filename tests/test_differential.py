"""Pinned outputs of the scalar codec and the simulator.

The literals below were captured from the packed-word implementation of
``BitVector``; any change of representation must reproduce them exactly.
The test reads results only through API that both implementations share
(``from_int``, ``bits()``, the status strings and the ``SimResult`` counts).
"""

import hashlib
from collections import Counter

import pytest

from plbc import ChannelParams, construct_pbch, run_trials
from plbc.channel import sample_defects, sample_errors, transmit
from plbc.codec import decode, encode
from plbc.gf2 import BitVector
from plbc.simulate import trial_rng

DRAWS = 256

# per code (n, k, l): the defect and error rates cycled over the draws;
# high defect rates make the step-2 fallback fire, and the error rates
# reach past t1.  (15, 7, 4) corrects one error and is perfect, so every
# word decodes; (15, 3, 4) corrects two and can detect a failure.
RATES = {
    (15, 7, 4): [(0.1, 0.02), (0.3, 0.05), (0.5, 0.1)],
    (15, 3, 4): [(0.1, 0.02), (0.3, 0.05), (0.5, 0.1)],
    (1023, 923, 20): [(0.003, 0.002), (0.01, 0.005), (0.03, 0.01)],
}

ENCODE_DIGEST = {
    (15, 7, 4):
        "e7ea857c3ef525c640cacadac3648d19454ec7a15b2645c46650e819c77c5785",
    (15, 3, 4):
        "e206ee894a55cfc7a0ecc73e0612d2be35f430309fefa2cb7acef07743b65346",
    (1023, 923, 20):
        "db5ec9f50c0dd381ca2d87fd74356592bfdecbb6b4afc9a1c28c8a5f6d59f980",
}
ENCODE_STEPS = {
    (15, 7, 4): {1: 153, 2: 103},
    (15, 3, 4): {1: 165, 2: 91},
    (1023, 923, 20): {1: 171, 2: 85},
}
DECODE_DIGEST = {
    (15, 7, 4):
        "c4eb9dcb23bdc8286dbfa63e758fe7e07cd13d47f77109698232fe188f2b708d",
    (15, 3, 4):
        "bcac0a12956ece3035f642d48e2d5b76909d6781229b769c3d8e24094693c644",
    (1023, 923, 20):
        "1ec14e5cd10feb7204e7907aacc364384874f26bc867e2a9ad2f8a3d9c709135",
}
DECODE_STATUS = {
    (15, 7, 4): {"corrected": 512},
    (15, 3, 4): {"corrected": 344, "detected_failure": 168},
    (1023, 923, 20): {"corrected": 168, "detected_failure": 344},
}
# (epsilon, p) -> (trials, masking, decoding, joint) of 2048 trials
SIM_COUNTS_1023 = {
    (4e-3, 2e-3): (2048, 0, 0, 0),
    (2e-2, 4e-3): (2048, 1000, 974, 949),
}


def _bits(v):
    return v.bits().tobytes()


def _draws(code):
    """(w, s, z, uniform y) per draw, from one seeded stream per code."""
    n, k = code.params.n, code.params.k
    rates = RATES[(n, k, code.params.l)]
    for t in range(DRAWS):
        eps, p = rates[t % len(rates)]
        ch = ChannelParams(eps, p)
        rng = trial_rng(8128, t, stream=k)
        w = BitVector.from_int(k, int.from_bytes(rng.bytes((k + 7) // 8), "little") % (1 << k))
        s = sample_defects(n, ch, rng)
        z = sample_errors(s, ch, rng)
        y = BitVector.from_int(n, int.from_bytes(rng.bytes((n + 7) // 8), "little") % (1 << n))
        yield w, s, z, y


@pytest.fixture(scope="module", params=list(RATES), ids=str)
def outcomes(request):
    code = construct_pbch(*request.param)
    enc, dec = hashlib.sha256(), hashlib.sha256()
    steps, statuses = Counter(), Counter()
    for w, s, z, y_uniform in _draws(code):
        c, mres = encode(code, w, s)
        enc.update(_bits(c) + _bits(mres.d) + bytes([mres.unmasked, mres.step_used]))
        steps[mres.step_used] += 1
        for y in (transmit(c, s, z), y_uniform):
            out = decode(code, y)
            dec.update(_bits(out.w_hat) + out.status.encode() + bytes([out.z_weight]))
            statuses[out.status] += 1
    return request.param, enc.hexdigest(), dict(steps), dec.hexdigest(), dict(statuses)


def test_encode_outputs(outcomes):
    key, enc, steps, _, _ = outcomes
    assert steps == ENCODE_STEPS[key]
    assert 2 in steps
    assert enc == ENCODE_DIGEST[key]


def test_decode_outputs(outcomes):
    key, _, _, dec, statuses = outcomes
    assert statuses == DECODE_STATUS[key]
    assert dec == DECODE_DIGEST[key]


@pytest.mark.parametrize("rates", list(SIM_COUNTS_1023), ids=str)
def test_run_trials_counts_n1023(code1023_l20, rates):
    res = run_trials(code1023_l20, ChannelParams(*rates), 2048, seed=4099)
    got = (res.trials, res.masking_failures, res.decoding_failures,
           res.joint_mask_fail_decode_fail)
    assert got == SIM_COUNTS_1023[rates]
