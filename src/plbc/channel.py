"""Memory cell channel with stuck-at defects and additive errors.

A stored word x of length n passes through two stages: defect clamping,
where each cell is independently stuck at a fixed value with probability
epsilon (half 0, half 1), and a BSC stage flipping each healthy cell with
probability p.  Stuck cells ignore both the written value and the error
stage, so error vectors are zero there by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitVector, _bits_to_int

__all__ = [
    "ChannelParams",
    "DefectVector",
    "sample_defects",
    "sample_errors",
    "transmit",
]


@dataclass(frozen=True)
class ChannelParams:
    """Defect probability epsilon and healthy-cell flip probability p."""

    epsilon: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")

    @property
    def p_tilde(self) -> float:
        """Effective flip probability when defect locations are ignored."""
        return (1.0 - self.epsilon) * self.p + self.epsilon / 2.0


class DefectVector:
    """Per-cell defect state: healthy, stuck-at-0 or stuck-at-1.

    Stored as two vectors: ``mask`` flags stuck cells and ``values`` holds
    the stuck value there (zero elsewhere, enforced).  String form uses
    '.' for healthy cells and '0'/'1' for stuck ones.
    """

    __slots__ = ("n", "mask", "values")

    def __init__(self, mask: BitVector, values: BitVector):
        if mask.n != values.n:
            raise ValueError("mask and values lengths differ")
        if values.value & ~mask.value:
            raise ValueError("stuck values defined only at stuck cells")
        self.n = mask.n
        self.mask = mask
        self.values = values

    @classmethod
    def all_clear(cls, n: int) -> "DefectVector":
        return cls(BitVector(n), BitVector(n))

    @classmethod
    def from_positions(cls, n: int, positions, values) -> "DefectVector":
        mask = BitVector.from_indices(n, positions)
        vals = 0
        for pos, val in zip(positions, values, strict=True):
            if val not in (0, 1):
                raise ValueError("stuck values must be 0 or 1")
            if val:
                vals |= 1 << int(pos)
        return cls(mask, BitVector(n, vals))

    @classmethod
    def from_string(cls, text: str) -> "DefectVector":
        if set(text) - set(".01"):
            raise ValueError("defect strings use only '.', '0', '1'")
        rev = text[::-1]
        mask = int(rev.replace("0", "1").replace(".", "0") or "0", 2)
        vals = int(rev.replace(".", "0") or "0", 2)
        return cls(BitVector(len(text), mask), BitVector(len(text), vals))

    def to_string(self) -> str:
        mask, vals = self.mask.value, self.values.value
        return "".join(
            str(vals >> i & 1) if mask >> i & 1 else "." for i in range(self.n)
        )

    @property
    def u(self) -> int:
        """Number of stuck cells."""
        return self.mask.weight()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DefectVector)
            and self.mask == other.mask
            and self.values == other.values
        )

    def __repr__(self) -> str:
        if self.n <= 64:
            return "DefectVector(%s)" % self.to_string()
        return "DefectVector(n=%d, u=%d)" % (self.n, self.u)


def sample_defects(n: int, ch: ChannelParams, rng: np.random.Generator) -> DefectVector:
    """Draw a defect vector: each cell stuck with probability epsilon.

    Consumes exactly n uniforms (locations) then n bits (stuck values) from
    ``rng``, independent of the parameter values, so seeded streams stay
    aligned across parameter sweeps.
    """
    if n <= 0:
        raise ValueError("length must be positive")
    mask = _bits_to_int(rng.random(n) < ch.epsilon)
    values = _bits_to_int(rng.integers(0, 2, size=n, dtype=np.uint8)) & mask
    return DefectVector(BitVector(n, mask), BitVector(n, values))


def sample_errors(s: DefectVector, ch: ChannelParams, rng: np.random.Generator) -> BitVector:
    """Draw the additive error vector; always zero at stuck cells."""
    flips = _bits_to_int(rng.random(s.n) < ch.p)
    return BitVector(s.n, flips & ~s.mask.value)


def transmit(x: BitVector, s: DefectVector, z: BitVector) -> BitVector:
    """Read back (x o s) + z: stuck cells clamp, healthy cells add z."""
    if x.n != s.n or z.n != s.n:
        raise ValueError("length mismatch between word, defects and errors")
    stuck = s.mask.value
    if z.value & stuck:
        raise ValueError("error vector must be zero at stuck cells")
    return BitVector(x.n, ((x.value ^ z.value) & ~stuck) | s.values.value)
