"""Reference computations made apart from plbc.

Nothing here imports plbc.  Binary polynomials are Python ints with bit i
the coefficient of x^i, the convention plbc uses for its code words, so a
word read off a BitVector compares directly.  The checks in ``checks.py``
hold the program's outputs against these values.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# GF(2)[x]
# ---------------------------------------------------------------------------

def pdeg(a: int) -> int:
    return a.bit_length() - 1


def pmul(a: int, b: int) -> int:
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def pdivmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = pdeg(b)
    q = 0
    while a and pdeg(a) >= db:
        s = pdeg(a) - db
        q ^= 1 << s
        a ^= b << s
    return q, a


def pmod(a: int, b: int) -> int:
    return pdivmod(a, b)[1]


def reverse(a: int) -> int:
    """x^deg(a) a(1/x)."""
    return int(format(a, "b")[::-1], 2) if a else 0


def words_to_int(words: np.ndarray) -> int:
    """A packed little-endian uint64 word array as one int."""
    return int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little")


def bits_to_int(bits: np.ndarray) -> int:
    """A 0/1 array, element i as bit i."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def dense_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Packed uint64 rows (bit j of row i at word j // 64) as a 0/1 matrix."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :cols]


def gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.T over GF(2) for 0/1 matrices; exact while rows are < 2^24 long."""
    if a.shape[1] >= 1 << 24:
        raise ValueError("rows too long for an exact float32 product")
    prod = a.astype(np.float32) @ b.astype(np.float32).T
    return prod.astype(np.int64) & 1


def gf2_rank(rows: list[int]) -> int:
    """Rank of GF(2) row vectors given as ints (xor basis by leading bit)."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


# ---------------------------------------------------------------------------
# GF(2^m) and the partitioned BCH polynomials
# ---------------------------------------------------------------------------

class Field:
    """GF(2^m) built from a given modulus, which must be primitive."""

    def __init__(self, m: int, modulus: int):
        if pdeg(modulus) != m:
            raise ValueError("modulus degree must be m")
        n = (1 << m) - 1
        exp = [0] * n
        log = [-1] * (n + 1)
        x = 1
        for i in range(n):
            if log[x] >= 0:
                raise ValueError("modulus 0x%x is not primitive" % modulus)
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= modulus
        if x != 1:
            raise ValueError("modulus 0x%x is not primitive" % modulus)
        self.m, self.n, self.exp, self.log = m, n, exp, log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.n]

    def minimal_poly(self, j: int) -> int:
        """prod over the cyclotomic coset of j of (x - alpha^e), over GF(2)."""
        coset = {j % self.n}
        e = (2 * j) % self.n
        while e not in coset:
            coset.add(e)
            e = (2 * e) % self.n
        coeffs = [1]
        for e in sorted(coset):
            root = self.exp[e]
            nxt = [0] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                nxt[d + 1] ^= c
                nxt[d] ^= self.mul(c, root)
            coeffs = nxt
        if any(c > 1 for c in coeffs):
            raise ValueError("minimal polynomial is not binary")
        return sum(c << d for d, c in enumerate(coeffs))

    def bch_generator(self, delta: int) -> int:
        """lcm of the minimal polynomials of alpha^1 .. alpha^(delta-1)."""
        g = 1
        seen = set()
        for j in range(1, delta):
            mp = self.minimal_poly(j)
            if mp not in seen:
                seen.add(mp)
                g = pmul(g, mp)
        return g


class CodeOracle:
    """The [n, k, l] partitioned BCH code rebuilt from first principles.

    g generates the outer code (designed distance d1 = 2 t1 + 1), h* is the
    BCH generator of designed distance d0 = 2 t0 + 1 and the masking
    generator is p = (x^n - 1) / reverse(h*).  ``modulus`` is the field's
    primitive polynomial; it is checked to be primitive.
    """

    def __init__(self, n: int, k: int, l: int, modulus: int):
        m = n.bit_length()
        if n != (1 << m) - 1:
            raise ValueError("n must be 2^m - 1")
        r = n - k - l
        if r < 0 or l % m or r % m:
            raise ValueError("l and r must be nonnegative multiples of m")
        self.n, self.k, self.l, self.r, self.m = n, k, l, r, m
        self.t0, self.t1 = l // m, r // m
        self.d0 = 2 * self.t0 + 1 if l else 0
        self.d1 = 2 * self.t1 + 1 if r else 0
        field = Field(m, modulus)
        self.g = field.bch_generator(self.d1) if r else 1
        self.hstar = field.bch_generator(self.d0) if l else 1
        self.p, rem = pdivmod((1 << n) | 1, reverse(self.hstar))
        if rem:
            raise ValueError("reverse(h*) does not divide x^n - 1")
        self._table = None

    def is_codeword(self, c: int) -> bool:
        return c.bit_length() <= self.n and pmod(c, self.g) == 0

    def carries_message(self, c: int, w: int) -> bool:
        """c = w(x) g(x) + d(x) p(x) for some d of degree below l."""
        q, rem = pdivmod(c ^ pmul(w, self.g), self.p)
        return rem == 0 and q.bit_length() <= self.l

    def table(self) -> dict[int, int]:
        """Every codeword mapped to its message; small codes only."""
        if self._table is None:
            if self.k + self.l > 16:
                raise ValueError("codeword table limited to 2^16 words")
            table = {}
            for w in range(1 << self.k):
                cw = pmul(w, self.g)
                for d in range(1 << self.l):
                    table[cw ^ pmul(d, self.p)] = w
            if len(table) != 1 << (self.k + self.l):
                raise ValueError("message and masking parts overlap")
            self._table = table
        return self._table

    def codewords_within(self, y: int, radius: int) -> list[int]:
        """All codewords at Hamming distance <= radius from y (table codes)."""
        table = self.table()
        found = []
        for t in range(radius + 1):
            for pos in itertools.combinations(range(self.n), t):
                c = y
                for i in pos:
                    c ^= 1 << i
                if c in table:
                    found.append(c)
        return found


# ---------------------------------------------------------------------------
# the paper's decoding-failure bound, summed in full
# ---------------------------------------------------------------------------

TRUNC_REL = 1e-3


def failure_bound(n: int, k: int, l: int, eps: float, p: float) -> dict:
    """Upper bound on P(decoded message != written message).

    epsilon = 0 gives P(Bin(n, p) > t1); l = 0 gives P(Bin(n, p~) > t1)
    with p~ = (1 - eps) p + eps / 2.  Otherwise, with U ~ Bin(n, eps) the
    number of stuck cells and A_w = C(n, w) 2^-l for w >= d0, it is

      sum_{u >= d0} P(U=u) min(1, M(u)) P(Bin(n-u, p) >= t1 + d0 - u)
    + sum_{u >= 0}  P(U=u) P(Bin(n-u, p) >= t1 + 1),

    where M(u) = sum_w A_w C(n-w, u-w) / C(n, u).  Since
    C(n, w) C(n-w, u-w) = C(n, u) C(u, w), M(u) = 2^(u-l) P(Bin(u, 1/2) >= d0),
    which is how it is evaluated here, in log space.

    Returns the full sum ``full``; ``truncated``, each u-sum cut at the
    first u where P(U > u) falls below TRUNC_REL times its running total
    (the rule plbc documents); and ``tails``, the two P(U > u) left out.
    """
    from scipy.stats import binom

    m = n.bit_length()
    t1 = (n - k - l) // m
    d0 = 2 * (l // m) + 1 if l else 0
    if eps == 0.0 or l == 0:
        q = p if eps == 0.0 else (1.0 - eps) * p + eps / 2.0
        total = math.exp(binom.logsf(t1, n, q))
        return {"full": total, "truncated": total, "tails": (0.0, 0.0)}
    u = np.arange(n + 1)
    log_pu = binom.logpmf(u, n, eps)
    log_more = binom.logsf(u, n, eps)            # log P(U > u)
    v = u[max(d0, 1):]
    log_mask = np.minimum(0.0, (v - l) * LN2 + binom.logsf(d0 - 1, v, 0.5))
    parts = (
        (v, log_pu[v] + log_mask + binom.logsf(t1 + d0 - v - 1, n - v, p)),
        (u, log_pu + binom.logsf(t1, n - u, p)),
    )
    full = truncated = 0.0
    tails = []
    for us, terms in parts:
        cum = np.logaddexp.accumulate(terms)
        full += math.exp(cum[-1])
        stop = np.flatnonzero((cum > -np.inf)
                              & (log_more[us] < cum + math.log(TRUNC_REL)))
        i = stop[0] if stop.size else len(us) - 1
        truncated += math.exp(cum[i])
        tails.append(math.exp(log_more[us[i]]) if stop.size else 0.0)
    return {"full": full, "truncated": truncated, "tails": tuple(tails)}
