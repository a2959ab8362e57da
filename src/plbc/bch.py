"""Binary BCH machinery: cyclotomic cosets, minimal polynomials, generators.

Everything here works on primitive-length codes, n = 2^m - 1.  Generator
polynomials are built as the least common multiple of minimal polynomials of
consecutive powers of alpha, which for binary polynomials reduces to a
product over distinct cyclotomic cosets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

from .errors import ConstructionError
from .gf2 import BitMatrix, GF2m, _unpack, poly_mul

__all__ = [
    "CyclotomicCoset",
    "bch_generator",
    "bch_parity_check",
    "cyclotomic_coset",
    "cyclotomic_cosets",
    "minimal_polynomial",
]


@dataclass(frozen=True)
class CyclotomicCoset:
    leader: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def field_degree(n: int) -> int:
    """m for a primitive code length n = 2^m - 1 with a supported field."""
    m = n.bit_length()
    if n <= 0 or n != (1 << m) - 1:
        raise ValueError("length must be 2^m - 1, got %r" % (n,))
    if not 2 <= m <= 16:
        raise ValueError("m must be in [2, 16]")
    return m


@cache
def field_for_length(n: int) -> GF2m:
    """GF(2^m) for a primitive code length n = 2^m - 1, one shared per m."""
    return GF2m(field_degree(n))


def cyclotomic_coset(j: int, n: int) -> CyclotomicCoset:
    """The 2-cyclotomic coset of j modulo n."""
    if n <= 0:
        raise ValueError("modulus must be positive")
    j %= n
    members = []
    e = j
    while True:
        members.append(e)
        e = (2 * e) % n
        if e == j:
            break
    members.sort()
    return CyclotomicCoset(members[0], tuple(members))


def cyclotomic_cosets(n: int) -> list[CyclotomicCoset]:
    """All 2-cyclotomic cosets mod n, ordered by leader."""
    seen = [False] * n
    out = []
    for j in range(n):
        if not seen[j]:
            out.append(cyclotomic_coset(j, n))
            for e in out[-1].members:
                seen[e] = True
    return out


@dataclass(frozen=True)
class CosetTable:
    """The nonzero 2-cyclotomic cosets mod n by leader and, per designed
    distance delta in [0, n]: g(delta) has its roots in the first count[delta]
    cosets (those led below delta) and degree degree[delta], the sum of their
    sizes; negated[delta] is the least leader of their negatives -C, else n."""

    cosets: tuple[CyclotomicCoset, ...]
    count: tuple[int, ...]
    degree: tuple[int, ...]
    negated: tuple[int, ...]


@cache
def coset_table(n: int) -> CosetTable:
    """The CosetTable of length n, built once and shared per n."""
    field_degree(n)
    cosets = cyclotomic_cosets(n)[1:]
    # the coset led by j enters at delta = j + 1; -C is led by n - max C
    size, neg = [0] * (n + 1), [n] * (n + 1)
    for c in cosets:
        size[c.leader + 1], neg[c.leader + 1] = len(c), n - c.members[-1]
    return CosetTable(tuple(cosets), tuple(accumulate(1 if s else 0 for s in size)),
                      tuple(accumulate(size)), tuple(accumulate(neg, min)))


def _check_designed_distance(n: int, delta: int) -> None:
    if not (1 <= delta <= n and delta % 2):
        raise ValueError("designed distance must be odd and in [1, n]")


def minimal_polynomial(j: int, field: GF2m) -> int:
    """Minimal polynomial of alpha^j over GF(2), as a plain int."""
    coset = cyclotomic_coset(j, field.n)
    # expand prod_{i in coset} (x + alpha^i) with GF(2^m) coefficients
    coeffs = [1]
    for e in coset.members:
        root = field.alpha_pow(e)
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d + 1] ^= c
            nxt[d] ^= field.mul(c, root)
        coeffs = nxt
    poly = 0
    for d, c in enumerate(coeffs):
        if c > 1:
            raise ConstructionError(
                "minimal polynomial of alpha^%d has a non-binary coefficient" % j
            )
        poly |= c << d
    return poly


def bch_generator(n: int, delta: int) -> int:
    """Generator polynomial of the BCH code of designed distance delta.

    lcm of the minimal polynomials of alpha^1 .. alpha^(delta-1) in
    ``field_for_length(n)``; delta = 1 gives the generator 1 (the whole space).
    """
    field = field_for_length(n)
    _check_designed_distance(n, delta)
    table = coset_table(n)
    g = 1
    for coset in table.cosets[:table.count[delta]]:
        g = poly_mul(g, minimal_polynomial(coset.leader, field))
    return g


def bch_parity_check(n: int, delta: int) -> BitMatrix:
    """Parity-check matrix of the designed-distance-delta BCH code.

    One m-row block per coset led below delta in ``coset_table(n)``; the
    block of the coset led by j (its least member, odd) holds the binary
    expansion of [1, alpha^j, ..., alpha^((n-1)j)].  Those cosets hold all
    the roots of g = bch_generator(n, delta), so deg g is the sum of their
    sizes.  With every coset of size m, each block spans the m-dimensional
    space of sequences Tr(a alpha^(ji)) and blocks of distinct cosets have
    distinct roots, so by Vandermonde the rows are independent and their
    count m * blocks equals deg g: no elimination is needed.  A short coset
    breaks both and is reported rather than padded over.
    """
    field = field_for_length(n)
    _check_designed_distance(n, delta)
    m = field.m
    table = coset_table(n)
    cosets = table.cosets[:table.count[delta]]
    short = [c.members for c in cosets if len(c) != m]
    if short:
        raise ConstructionError(
            "parity-check rows (%d) != generator degree (%d) at n=%d delta=%d; "
            "cosets shorter than m: %s"
            % (m * len(cosets), sum(map(len, cosets)), n, delta, short)
        )
    positions = np.arange(n, dtype=np.int64)
    planes = np.arange(m, dtype=np.uint16)[:, None]
    rows = []
    for coset in cosets:
        vals = field.exp_np[(positions * coset.leader) % n].astype(np.uint16)
        bits = (vals >> planes).astype(np.uint8) & 1
        rows += _unpack(np.packbits(bits, axis=1, bitorder="little"))
    return BitMatrix(rows, n)
