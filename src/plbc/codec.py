"""Partitioned BCH codes: construction, defect masking, encode, decode.

A partitioned [n, k, l] code splits an [n, k+l] linear code C into a message
part C1 (k rows) and a masking part C0 (l rows) with C1 intersect C0 = {0}.
The encoder spends the l masking bits to agree with as many stuck cells as
possible; the decoder corrects the residue together with random errors.

The construction is cyclic and nested: g generates C, the reciprocal route
through h* = bch_generator(n, d0) produces p = (x^n - 1)/h with g | p, and
C0 = <p>.  The code whose parity check is the masking generator G0 is then
exactly the BCH code <h*>, so any d0 - 1 columns of G0 are independent and
the restricted masking step always has a solution.  ``masking_polys`` is the
one derivation of (h*, p): the codec and the weight distributions of
``plbc.bounds`` both take the masking code from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bch import (
    _check_designed_distance,
    bch_generator,
    bch_parity_check,
    coset_table,
    field_degree,
    field_for_length,
)
from .channel import DefectVector
from .errors import ConstructionError
from .gf2 import (
    BitMatrix,
    BitVector,
    GF2m,
    _pack,
    _solve_two_step,
    _span_weight_counts,
    _transpose_words,
    _unpack,
    poly_divmod,
    poly_mul,
    poly_reciprocal,
)

__all__ = [
    "DecodeOutcome",
    "MaskResult",
    "PbchCode",
    "PlbcParams",
    "construct_pbch",
    "decode",
    "encode",
    "masking_polys",
    "message_inverse",
    "verify_distances",
]


@dataclass(frozen=True)
class PlbcParams:
    """A split (n, k, l) of a partitioned BCH code and what it implies.

    r = n - k - l cells go to error correction; l = m t0 and r = m t1 are
    multiples of the field degree m, and the designed distances are
    d0 = 2 t0 + 1 and d1 = 2 t1 + 1 (0 when l or r is 0).  The derived
    values are set once, on construction, as plain attributes.  Only a split
    that can be built is accepted: deg g(d1) = r, deg h*(d0) = l, and no
    coset of g's roots is the negative of one of h*'s (else C0 would not nest
    inside C), all three read off ``coset_table(n)``.
    """

    n: int
    k: int
    l: int
    r: int = field(init=False)
    m: int = field(init=False)
    t0: int = field(init=False)
    t1: int = field(init=False)
    d0: int = field(init=False)
    d1: int = field(init=False)

    def __post_init__(self):
        n, k, l = self.n, self.k, self.l
        m = field_degree(n)
        if k < 1:
            raise ValueError("message length k must be >= 1")
        if l < 0:
            raise ValueError("masking redundancy l must be >= 0")
        r = n - k - l
        if r < 0:
            raise ValueError("k + l exceeds n")
        for name, value in (("l", l), ("r", r)):
            if value % m:
                raise ConstructionError("%s=%d is not a multiple of m=%d" % (name, value, m))
        t0, t1 = l // m, r // m
        d0, d1 = 2 * t0 + 1 if l else 0, 2 * t1 + 1 if r else 0
        _check_degree(n, d1, r, "generator", "r", "d1")
        _check_degree(n, d0, l, "mask-check", "l", "d0")
        table = coset_table(n)
        if table.negated[d0] < d1:
            negated = [n - c.members[-1] for c in table.cosets[:table.count[d0]]]
            raise ConstructionError(
                "generator and mask checks share roots (coset leaders %s); "
                "the masking code would not nest inside the outer code"
                % sorted(j for j in negated if j < d1)
            )
        for name, value in (("r", r), ("m", m), ("t0", t0), ("t1", t1),
                            ("d0", d0), ("d1", d1)):
            object.__setattr__(self, name, value)


def params_for(n: int, k: int, l: int) -> PlbcParams:
    """Validate (n, k, l) and derive the remaining parameters."""
    return PlbcParams(n, k, l)


@dataclass(frozen=True)
class MaskResult:
    """Masking vector choice: d, residual stuck-cell mismatches, step used."""

    d: BitVector
    unmasked: int
    step_used: int


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded message, decoder status and the applied error-estimate weight.

    status is 'corrected' when a codeword within the error-correcting radius
    was found (the estimate may still be wrong if the channel exceeded the
    code's capability), and 'detected_failure' when bounded-distance decoding
    could not place the received word; the message is then read off the
    received word directly as a best effort.
    """

    w_hat: BitVector
    status: str
    z_weight: int


@dataclass(eq=False)
class PbchCode:
    """A constructed partitioned BCH code with cached decoding tables.

    The code is its polynomials: g_poly generates C; hstar_poly and p_poly
    are the masking code's (h*, p) from ``masking_polys``.  The field, H's
    rows, G0's columns and the message-extraction tables are derived once,
    from these fields, when the code is created; the dense matrices G1, G0,
    H and T are views built on first read.
    """

    params: PlbcParams
    g_poly: int
    p_poly: int
    hstar_poly: int

    def __post_init__(self):
        params, g = self.params, self.g_poly
        n, l, m = params.n, params.l, params.m
        self.field = field_for_length(n)
        # column j of G0 (rows p << i) holds p's bits j, j-1, .., j-l+1 from bit 0
        self._mask_cols, col, low = [], 0, (1 << l) - 1
        for bit in reversed(format(self.p_poly, "0%db" % n)[-n:]):
            col = (col << 1 | (bit == "1")) & low
            self._mask_cols.append(col)
        # gen_message rows are g << i, so w * G1 is the product w(x) g(x)
        self._g_taps = [i for i in range(g.bit_length()) if (g >> i) & 1]
        # rows of H in blocks of m, block j giving S_(2j+1)
        h_rows = bch_parity_check(n, params.d1 or 1).row_ints()
        self._h_blocks = [h_rows[j:j + m] for j in range(0, params.r, m)]
        # T c = ((c mod x^K) u mod x^K) mod q (see message_inverse), with u
        # times every byte value tabulated for a product by bytes of c
        self._q = poly_divmod(self.p_poly, g)[0]
        u = _series_inverse(g, params.k + l)
        self._u_bytes = [0]
        for b in range(1, 256):
            self._u_bytes.append(self._u_bytes[b >> 1] << 1 ^ (u if b & 1 else 0))

    @cached_property
    def gen_message(self) -> BitMatrix:
        """G1, the k message rows g(x) x^i."""
        return BitMatrix([self.g_poly << i for i in range(self.params.k)], self.params.n)

    @cached_property
    def gen_mask(self) -> BitMatrix:
        """G0, the l masking rows p(x) x^i."""
        return BitMatrix([self.p_poly << i for i in range(self.params.l)], self.params.n)

    @cached_property
    def parity(self) -> BitMatrix:
        """H, the r parity-check rows of ``bch_parity_check(n, d1)``."""
        return BitMatrix([row for block in self._h_blocks for row in block], self.params.n)

    @cached_property
    def msg_inverse(self) -> BitMatrix:
        """T, the k x n message inverse (see ``message_inverse``)."""
        return message_inverse(self.params.n, self.g_poly, self.p_poly)

    def __repr__(self) -> str:
        p = self.params
        return "PbchCode(n=%d, k=%d, l=%d, d0=%d, d1=%d)" % (p.n, p.k, p.l, p.d0, p.d1)


def message_inverse(n: int, g: int, p: int) -> BitMatrix:
    """Right inverse of the message rows that annihilates the masking rows.

    Returns the k x n matrix T with G1 T^T = I and G0 T^T = 0 that the
    systematic elimination over [G1 | I_k ; G0 | 0] gives, built from the
    polynomials alone.  With K = n - deg g = k + l, q = p / g and
    u = 1/g mod x^K, T sends y to ((y mod x^K) u mod x^K) mod q: column
    i < K is t_i = (x^i u mod x^K) mod q, and the columns from K on are 0.
    The t_i follow t_0 = u mod q, t_{i+1} = x t_i mod q + u_{K-1-i} (x^K mod q).
    """
    q, rem = poly_divmod(p, g)
    if rem:
        raise ConstructionError("masking generator is not a multiple of g")
    k = q.bit_length() - 1
    big_k = n - (g.bit_length() - 1)
    u = _series_inverse(g, big_k)
    t = poly_divmod(u, q)[1]
    xk = poly_divmod(1 << big_k, q)[1]
    cols = []
    for i in range(big_k):
        cols.append(t)
        t <<= 1
        if t >> k:
            t ^= q
        if (u >> (big_k - 1 - i)) & 1:
            t ^= xk
    words = _pack(cols + [0] * (n - big_k), k)
    del cols  # each copy goes before the next is made: the peak stays near 3.5x T
    t_words = _transpose_words(words, k)
    del words
    return BitMatrix(_unpack(t_words), n)


def _series_inverse(g: int, big_k: int) -> int:
    """u = 1/g mod x^K for g(0) = 1, by K steps of series division."""
    u, acc = 0, 1
    for i in range(big_k):
        if acc & 1:
            u |= 1 << i
            acc ^= g
        acc >>= 1
    return u


def masking_polys(n: int, l: int, d0: int) -> tuple[int, int]:
    """(h*, p) of the masking code with l check cells and distance d0.

    h* = bch_generator(n, d0) (1 when l = 0) generates the code whose parity
    check is the masking generator; p = (x^n - 1)/h with h = reciprocal(h*)
    generates the masking rows (h*, a product of minimal polynomials, divides
    x^n - 1, and so does h).  Raises ConstructionError when deg h* != l.
    """
    _check_designed_distance(n, d0 or 1)
    _check_degree(n, d0, l, "mask-check", "l", "d0")
    hstar = bch_generator(n, d0 or 1)
    return hstar, poly_divmod((1 << n) | 1, poly_reciprocal(hstar))[0]


def _check_degree(n: int, delta: int, size: int, poly: str, part: str, dist: str):
    """Raise unless deg g(delta), read off the coset table, is size."""
    deg = coset_table(n).degree[delta]
    if deg != size:
        raise ConstructionError(
            "%s degree %d != %s=%d at n=%d %s=%d (short cyclotomic coset)"
            % (poly, deg, part, size, n, dist, delta)
        )


def construct_pbch(n: int, k: int, l: int) -> PbchCode:
    """Build the nested-BCH partitioned code for (n, k, l).

    g = bch_generator(n, d1) spans C; the masking part C0 = <p> comes from
    ``masking_polys``.  A split that cannot be built is refused by
    ``PlbcParams`` before any polynomial is made.
    """
    params = params_for(n, k, l)
    g = bch_generator(n, params.d1 or 1)
    hstar, p = masking_polys(n, params.l, params.d0)
    code = PbchCode(params, g, p, hstar)
    _check_code_identities(code)
    return code


def _check_code_identities(code: PbchCode) -> None:
    """Polynomial identity checks run once per construction.

    With K = k + l, q = ``code._q`` and u = ``code._u_bytes[1]``, it checks
    (1) q g = p with deg q = k, (2) u g = 1 mod x^K, (3) H g = 0 and
    (4) p reciprocal(h*) = x^n + 1.  T c = (c u mod x^K) mod q, in both
    ``_extract_message`` and ``message_inverse``.  By (2) a message row
    g x^i (i < k) maps to x^i mod q, which is x^i as deg q = k (1): G1 T^T
    = I.  A masking row p x^i = q g x^i (i < l) maps to q x^i mod q = 0, as
    deg(q x^i) < K: G0 T^T = 0.  Row j m + b of H holds bit b of
    alpha^((2j+1)s) at position s, so H sends a word f of degree < n to the
    values f(alpha^(2j+1)); every row of G1 and G0 is g times a polynomial,
    of degree < n, so (3) gives H [G1; G0]^T = 0.  (4) makes p = (x^n - 1)/h
    for h the reciprocal of h*, so the code with parity check G0 is <h*>.
    """
    p = code.params
    g, q, u = code.g_poly, code._q, code._u_bytes[1]
    if q.bit_length() - 1 != p.k or poly_mul(q, g) != code.p_poly:
        raise ConstructionError("q g != p with deg q = k")
    if poly_mul(u, g) & ((1 << (p.k + p.l)) - 1) != 1:
        raise ConstructionError("u g != 1 mod x^K")
    if any(_syndromes(code, g)):
        raise ConstructionError("H g != 0")
    if poly_mul(code.p_poly, poly_reciprocal(code.hstar_poly)) != (1 << p.n) | 1:
        raise ConstructionError("p reciprocal(h*) != x^n + 1")


# ---------------------------------------------------------------------------
# masking and encoding
# ---------------------------------------------------------------------------

def _encode_ints(
    code: PbchCode, w: int, stuck: list[int], values: int
) -> tuple[int, int, int, int]:
    """Int core of encoding: codeword c, masking vector d, unmasked, step.

    ``stuck`` lists the stuck cells in ascending order and ``values`` holds
    their stuck values (its other bits are ignored).  Row j of the masking
    system is G0's column at the j-th stuck cell with the mismatch between
    w(x) g(x) and the stuck value there as its right-hand side at bit l;
    d solves all the rows (step 1) or, when they are inconsistent, the first
    d0 - 1, which always admit a solution (step 2), and
    c = w(x) g(x) + d(x) p(x).
    """
    n, l = code.params.n, code.params.l
    c = 0
    for i in code._g_taps:
        c ^= w << i
    # bytes, so that reading the bit at each stuck cell costs O(1), not O(n)
    mismatch = (c ^ values).to_bytes((n + 7) >> 3, "little")
    cols = code._mask_cols
    aug = [cols[j] | (mismatch[j >> 3] >> (j & 7) & 1) << l for j in stuck]
    d, unmasked, step = _solve_two_step(aug, l, max(code.params.d0 - 1, 0))
    rest = d
    while rest:
        low = rest & -rest
        c ^= code.p_poly << (low.bit_length() - 1)
        rest ^= low
    return c, d, unmasked, step


def _check_encode_args(code: PbchCode, w: BitVector, s: DefectVector) -> None:
    if w.n != code.params.k:
        raise ValueError("message length must be k=%d" % code.params.k)
    if s.n != code.params.n:
        raise ValueError("defect vector length must be n=%d" % code.params.n)


def _stuck_cells(s: DefectVector) -> list[int]:
    """The stuck cells in ascending order, in one pass over the unpacked mask."""
    return np.flatnonzero(s.mask.bits()).tolist()


def encode(code: PbchCode, w: BitVector, s: DefectVector) -> tuple[BitVector, MaskResult]:
    """Encode w given known defects s; returns the codeword and mask choice."""
    _check_encode_args(code, w, s)
    c, d, unmasked, step = _encode_ints(code, w.value, _stuck_cells(s), s.values.value)
    return (
        BitVector(code.params.n, c),
        MaskResult(BitVector(code.params.l, d), unmasked, step),
    )


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _syndromes(code: PbchCode, y: int) -> list[int]:
    """S_1..S_2t1 of a binary word: odd ones by parity, even by S_2j = S_j^2.

    Row j*m + b of the parity check H holds bit b of alpha^((2j+1)i) over the
    positions i, so the parities of H's rows with y give the odd syndromes
    bit by bit.
    """
    exp, log = code.field.exp, code.field.log
    syn = []
    for block in code._h_blocks:
        s = 0
        for b, row in enumerate(block):
            s |= ((row & y).bit_count() & 1) << b
        syn += [s, 0]
    for j in range(2, len(syn) + 1, 2):
        h = syn[j // 2 - 1]
        syn[j - 1] = exp[2 * log[h]] if h else 0
    return syn


def _berlekamp_massey(field: GF2m, syndromes) -> tuple[list[int], int]:
    """Minimal LFSR for the syndrome sequence; returns (sigma, L)."""
    exp, log = field.exp, field.log
    nn = field.n
    C = [1]
    B = [1]
    L = 0
    shift = 1
    b = 1
    for i, d in enumerate(syndromes):
        for j in range(1, min(L, len(C) - 1) + 1):
            cj, sj = C[j], syndromes[i - j]
            if cj and sj:
                d ^= exp[log[cj] + log[sj]]
        if d == 0:
            shift += 1
            continue
        coef_log = (log[d] - log[b]) % nn
        # C -= (d/b) x^shift B; the length grows when 2L <= i
        T = C[:] if 2 * L <= i else None
        C += [0] * (len(B) + shift - len(C))
        for j, bj in enumerate(B):
            if bj:
                C[j + shift] ^= exp[log[bj] + coef_log]
        if T is None:
            shift += 1
        else:
            L, B, b, shift = i + 1 - L, T, d, 1
    while len(C) > 1 and C[-1] == 0:
        C.pop()
    return C, L


def _chien_roots(code: PbchCode, sigma: list[int]) -> list[int]:
    """Positions i with sigma(alpha^{-i}) = 0, via a full sweep over i.

    Term kk at alpha^i is alpha^x, x = log sigma_kk + kk i, which folds to
    (x & n) + (x >> m) < 2n for the two-period exp table as n = 2^m - 1.
    A degree-1 locator 1 + sigma_1 x has its one root at alpha^i = sigma_1.
    """
    n, field = code.params.n, code.field
    if len(sigma) == 2:
        return [field.log[sigma[1]]]
    acc = np.full(n, sigma[0], dtype=np.int64)
    i = np.arange(n, dtype=np.int64)
    for kk in range(1, len(sigma)):
        if sigma[kk]:
            x = field.log[sigma[kk]] + kk * i
            acc ^= field.exp_np[(x & n) + (x >> field.m)]
    return ((n - np.flatnonzero(acc == 0)) % n).tolist()


def _extract_message(code: PbchCode, c: int) -> int:
    """The message T c read off a word, from the polynomials of T."""
    big_k = code.params.k + code.params.l
    low = (1 << big_k) - 1
    prod = 0
    for j, byte in enumerate((c & low).to_bytes((big_k + 7) >> 3, "little")):
        if byte:
            prod ^= code._u_bytes[byte] << 8 * j
    return poly_divmod(prod & low, code._q)[1]


def decode(code: PbchCode, y: BitVector) -> DecodeOutcome:
    """Bounded-distance decode of a read word.

    Corrects up to t1 flips (unmasked stuck cells act as flips too).  When
    the error locator does not check out, status is 'detected_failure' and
    the message is extracted from y unchanged.
    """
    if y.n != code.params.n:
        raise ValueError("received word length must be n=%d" % code.params.n)
    c, status, z_weight = _decode_words(code, y.value)
    w_hat = BitVector(code.params.k, _extract_message(code, c))
    return DecodeOutcome(w_hat, status, z_weight)


def _decode_words(code: PbchCode, y: int) -> tuple[int, str, int]:
    """Decoder core: (word the message is read from, status, z weight).

    Flipping the roots needs no syndrome check after it.  A locator of
    degree L <= t1 with L distinct roots X_i generates S_1..S_2t1, so
    S_j = sum Y_i X_i^j; S_2j = S_j^2 makes each Y_i 0 or 1, and the
    minimality of L makes every Y_i 1.  The flipped word thus has
    S_1..S_2t1 = 0: it is a multiple of g.
    """
    params = code.params
    if params.r == 0:
        return y, "corrected", 0
    syn = _syndromes(code, y)
    if not any(syn):
        return y, "corrected", 0
    sigma, L = _berlekamp_massey(code.field, syn)
    if L > params.t1 or len(sigma) - 1 != L:
        return y, "detected_failure", 0
    roots = _chien_roots(code, sigma)
    if len(roots) != L:
        return y, "detected_failure", 0
    c = y
    for i in roots:
        c ^= 1 << i
    return c, "corrected", L


# ---------------------------------------------------------------------------
# true minimum distances by enumeration
# ---------------------------------------------------------------------------

def _min_weight_using(rows: list[int], k: int, n: int) -> int:
    """Least weight over the combinations of rows that use one of the first
    k, 0 when there is none.  The other combinations are those of rows[k:],
    so it is the least w where the span histogram of rows exceeds theirs."""
    excess = zip(_span_weight_counts(rows, n), _span_weight_counts(rows[k:], n))
    return next((w for w, (a, b) in enumerate(excess) if a > b), 0)


def verify_distances(code: PbchCode) -> tuple[int, int]:
    """Exhaustively confirmed (d0, d1); see PlbcParams for their meaning.

    d0 is the minimum weight of a nonzero word orthogonal to every masking
    row; d1 is the minimum weight over codewords of C carrying a nonzero
    message component.  Degenerate parts (l = 0 or r = 0) report 0 to match
    the designed-distance convention.
    """
    p = code.params
    if p.n - p.l > 24 or p.k + p.l > 24:
        raise ValueError("enumeration is limited to 2^24 codewords")
    d0 = d1 = 0
    if p.l:
        rows = [code.hstar_poly << i for i in range(p.n - p.l)]
        d0 = _min_weight_using(rows, len(rows), p.n)
    if p.r:
        rows = ([code.g_poly << i for i in range(p.k)]
                + [code.p_poly << i for i in range(p.l)])
        d1 = _min_weight_using(rows, p.k, p.n)
    return d0, d1
