"""Partitioned linear block codes for memories with stuck-at defects.

The package builds partitioned BCH codes that split their redundancy
between defect masking (l cells) and random-error correction (r cells),
simulates them over the (epsilon, p) defect/error channel, evaluates
closed-form decoding-failure bounds, and optimizes the (l, r) split.
"""

from .allocate import (
    AllocationReport,
    CandidateResult,
    allocate,
    enumerate_candidates,
)
from .bch import (
    bch_generator,
    bch_parity_check,
    cyclotomic_coset,
    cyclotomic_cosets,
    field_for_length,
    minimal_polynomial,
)
from .bounds import (
    BoundResult,
    WeightDistribution,
    binary_entropy,
    capacity_max,
    capacity_min,
    decoding_failure_bound,
    weight_distribution,
)
from .channel import (
    ChannelParams,
    DefectVector,
    sample_defects,
    sample_errors,
    transmit,
)
from .codec import (
    DecodeOutcome,
    MaskResult,
    PbchCode,
    PlbcParams,
    construct_pbch,
    decode,
    encode,
    masking_polys,
    message_inverse,
    params_for,
    verify_distances,
)
from .errors import ConstructionError, NumericError
from .gf2 import GF2m, BitMatrix, BitVector
from .simulate import SimResult, run_trials, trial_rng, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "AllocationReport",
    "BitMatrix",
    "BitVector",
    "BoundResult",
    "CandidateResult",
    "ChannelParams",
    "ConstructionError",
    "DecodeOutcome",
    "DefectVector",
    "GF2m",
    "MaskResult",
    "NumericError",
    "PbchCode",
    "PlbcParams",
    "SimResult",
    "WeightDistribution",
    "allocate",
    "bch_generator",
    "bch_parity_check",
    "binary_entropy",
    "capacity_max",
    "capacity_min",
    "construct_pbch",
    "cyclotomic_coset",
    "cyclotomic_cosets",
    "decode",
    "decoding_failure_bound",
    "encode",
    "enumerate_candidates",
    "field_for_length",
    "masking_polys",
    "message_inverse",
    "minimal_polynomial",
    "params_for",
    "run_trials",
    "sample_defects",
    "sample_errors",
    "transmit",
    "trial_rng",
    "verify_distances",
    "weight_distribution",
    "wilson_interval",
]
