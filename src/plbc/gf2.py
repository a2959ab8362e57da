"""GF(2^m) arithmetic and bit-packed linear algebra over GF(2).

Conventions used throughout the package:

* Field elements of GF(2^m) are plain ints in ``[0, 2^m)``; bit i is the
  coefficient of alpha^i in the polynomial basis.
* Binary polynomials are plain ints; bit i is the coefficient of x^i.
* Vectors over GF(2) are plain ints (bit i is entry i) wrapped with their
  length in ``BitVector``; the scalar codec computes on the ints directly.
* Matrices over GF(2) are tuples of row ints wrapped with their width in
  ``BitMatrix``.  Only the numpy kernels (block transpose, span weights)
  and ``.words`` pack rows into little-endian uint64 words.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "GF2m",
    "BitMatrix",
    "BitVector",
    "PRIMITIVE_POLYS",
    "poly_divmod",
    "poly_eval",
    "poly_mul",
    "poly_reciprocal",
    "rref",
]

# Primitive polynomials over GF(2), one per extension degree.  Bit i is the
# coefficient of x^i (e.g. m=4 -> x^4 + x + 1 -> 0b10011).
PRIMITIVE_POLYS = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
}


# ---------------------------------------------------------------------------
# binary polynomials (plain ints)
# ---------------------------------------------------------------------------

def poly_mul(a: int, b: int) -> int:
    """Product of two binary polynomials (carryless multiply)."""
    if a < 0 or b < 0:
        raise ValueError("polynomials are nonnegative ints")
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_divmod(num: int, den: int) -> tuple[int, int]:
    """Quotient and remainder of binary polynomial long division."""
    if num < 0 or den < 0:
        raise ValueError("polynomials are nonnegative ints")
    if den == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dd = den.bit_length()
    quo = 0
    rem = num
    while rem.bit_length() >= dd:
        shift = rem.bit_length() - dd
        quo |= 1 << shift
        rem ^= den << shift
    return quo, rem


def poly_reciprocal(p: int) -> int:
    """Reverse the coefficients of p: x^deg(p) * p(1/x)."""
    if p < 0:
        raise ValueError("polynomials are nonnegative ints")
    if p == 0:
        return 0
    return int(format(p, "b")[::-1], 2)


def poly_eval(p: int, x: int, field: "GF2m") -> int:
    """Evaluate a binary polynomial at a GF(2^m) element (Horner)."""
    acc = 0
    for d in range(p.bit_length() - 1, -1, -1):
        acc = field.mul(acc, x)
        if (p >> d) & 1:
            acc ^= 1
    return acc


# ---------------------------------------------------------------------------
# GF(2^m)
# ---------------------------------------------------------------------------

class GF2m:
    """GF(2^m) with exp/log tables over the primitive polynomial
    ``PRIMITIVE_POLYS[m]``, which the table build checks is primitive.

    Elements are ints in [0, 2^m).  Addition is XOR and is not wrapped in a
    method.  ``exp`` is doubled in length so products of two logs index it
    without a modular reduction.  The tables are tuples and a non-writeable
    array, so ``bch.field_for_length`` can hand out one instance per m.
    """

    def __init__(self, m: int):
        if not 2 <= m <= 16:
            raise ValueError("m must be in [2, 16]")
        primitive_poly = PRIMITIVE_POLYS[m]
        self.m = m
        self.order = 1 << m
        self.n = self.order - 1
        self.primitive_poly = primitive_poly

        exp = [0] * (2 * self.n)
        log = [0] * self.order
        x = 1
        for i in range(self.n):
            exp[i] = x
            exp[i + self.n] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= primitive_poly
        if x != 1:
            raise ValueError("polynomial is not primitive for GF(2^%d)" % m)
        self.exp = tuple(exp)
        self.log = tuple(log)
        # the same two periods as an array, for vectorized lookups
        self.exp_np = np.array(exp, dtype=np.int64)
        self.exp_np.flags.writeable = False

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError("element %r outside GF(2^%d)" % (a, self.m))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def alpha_pow(self, e: int) -> int:
        """alpha^e for any integer exponent."""
        return self.exp[e % self.n]

    def __repr__(self) -> str:
        return "GF2m(m=%d, primitive_poly=0x%x)" % (self.m, self.primitive_poly)


# ---------------------------------------------------------------------------
# bit packing helpers
# ---------------------------------------------------------------------------

_WORD_BYTES = 8


def _n_words(n: int) -> int:
    return (n + 63) >> 6


def _bits_to_int(bits: np.ndarray) -> int:
    """A flat 0/1 (or bool) array as an int, element i as bit i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _pack(ints, n: int) -> np.ndarray:
    """Ints of at most n bits as the rows of a C-contiguous uint64 array of
    little-endian words, each row written in place into one zeroed array."""
    out = np.zeros((len(ints), _n_words(n)), dtype=np.uint64)
    nbytes = out.shape[1] * _WORD_BYTES
    for i, v in enumerate(ints):
        out[i] = np.frombuffer(v.to_bytes(nbytes, "little"), dtype="<u8")
    return out


def _unpack(packed: np.ndarray) -> list[int]:
    """The rows of a 2-D array of little-endian packed bits as ints."""
    packed = packed.astype(packed.dtype.newbyteorder("<"), copy=False)
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

class BitVector:
    """Immutable GF(2) vector of length n held as one int; bit i is entry i.

    ``words`` gives the packed little-endian uint64 words, made on demand
    and read-only, for code that works on numpy arrays; ``__array__`` hands
    numpy the same words, so ``np.array_equal(v, words)`` compares values.
    """

    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int = 0):
        value = operator.index(value)
        if n < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> n:
            raise ValueError("value does not fit in %d bits" % n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1 or np.any(arr > 1):
            raise ValueError("bits must be a flat 0/1 sequence")
        return cls(len(arr), _bits_to_int(arr))

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitVector":
        return cls(n, value)

    @classmethod
    def from_indices(cls, n: int, indices) -> "BitVector":
        value = 0
        for i in map(operator.index, indices):
            if not 0 <= i < n:
                raise ValueError("index %d out of range" % i)
            value |= 1 << i
        return cls(n, value)

    @property
    def words(self) -> np.ndarray:
        raw = self.value.to_bytes(_n_words(self.n) * _WORD_BYTES, "little")
        return np.frombuffer(raw, dtype="<u8")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.words, dtype=dtype, copy=copy)

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise ValueError("index %d out of range" % i)
        return (self.value >> i) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def bits(self) -> np.ndarray:
        raw = np.frombuffer(self.value.to_bytes((self.n + 7) >> 3, "little"), np.uint8)
        return np.unpackbits(raw, count=self.n, bitorder="little")

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.value ^ other.value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitVector)
                and (self.n, self.value) == (other.n, other.value))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        if self.n <= 64:
            return "BitVector(%s)" % "".join(map(str, self.bits()))
        return "BitVector(n=%d, weight=%d)" % (self.n, self.weight())


# (j, mask) for each round of a 64 x 64 bit-block transpose: the mask holds
# the low j bits of every 2j-bit group, and the round exchanges those bits of
# row i + j with the bits j places higher in row i, for each i with bit j clear
_SWAP_MASKS = [
    (j, np.uint64(sum(((1 << j) - 1) << s for s in range(0, 64, 2 * j))))
    for j in (32, 16, 8, 4, 2, 1)
]


def _transpose_words(words: np.ndarray, cols: int) -> np.ndarray:
    """The packed transpose of a packed matrix with ``cols`` columns.

    Masked swaps inside each 64 x 64 bit block of one zero-padded copy,
    never a byte per bit, then block (i, j) moves to (j, i).
    """
    rows, cb = words.shape
    rb = _n_words(rows)
    a = np.zeros((rb * 64, cb), dtype=np.uint64)
    a[:rows] = words
    a = a.reshape(rb, 64, cb)
    for j, mask in _SWAP_MASKS:
        half = a.reshape(rb, 32 // j, 2, j, cb)
        lo, hi = half[:, :, 0], half[:, :, 1]
        t = ((lo >> np.uint64(j)) ^ hi) & mask
        lo ^= t << np.uint64(j)
        hi ^= t
    return np.ascontiguousarray(a.transpose(2, 1, 0).reshape(cb * 64, rb)[:cols])


class BitMatrix:
    """GF(2) matrix held as a tuple of row ints (bit j of row i is entry
    (i, j)); ``words`` packs them on each read into a read-only C-contiguous
    uint64 array of shape (rows, ceil(cols / 64)) for numpy callers."""

    __slots__ = ("rows", "cols", "_ints")

    def __init__(self, row_ints, cols: int):
        row_ints = tuple(row_ints)
        if cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if any(v < 0 or v.bit_length() > cols for v in row_ints):
            raise ValueError("value does not fit in %d bits" % cols)
        self.rows, self.cols, self._ints = len(row_ints), cols, row_ints

    @property
    def words(self) -> np.ndarray:
        words = _pack(self._ints, self.cols)
        words.flags.writeable = False
        return words

    def row_ints(self) -> list[int]:
        """All rows as ints (bit j = column j), in a new list."""
        return list(self._ints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix)
                and (self.cols, self._ints) == (other.cols, other._ints))

    def __repr__(self) -> str:
        return "BitMatrix(%dx%d)" % (self.rows, self.cols)


# ---------------------------------------------------------------------------
# row spaces: elimination and enumeration
# ---------------------------------------------------------------------------

def rref(mat: BitMatrix, n_pivot_cols: int | None = None) -> tuple[BitMatrix, list[int]]:
    """Reduced row echelon form over the first ``n_pivot_cols`` columns.

    Returns the reduced matrix and the pivot column list; pivot columns end
    up as unit columns.  Gauss-Jordan: the pivot is the first row at or
    below the current one with the column bit set, and it is eliminated
    from every other row, above and below.
    """
    if n_pivot_cols is None:
        n_pivot_cols = mat.cols
    if n_pivot_cols > mat.cols:
        raise ValueError("pivot column count exceeds matrix width")
    rows = mat.row_ints()
    nrows = len(rows)
    pivots: list[int] = []
    prow = 0
    for col in range(n_pivot_cols):
        if prow == nrows:
            break
        bit = 1 << col
        for piv in range(prow, nrows):
            if rows[piv] & bit:
                break
        else:
            continue
        rows[prow], rows[piv] = rows[piv], rows[prow]
        pr = rows[prow]
        for i in range(nrows):
            if i != prow and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(col)
        prow += 1
    return BitMatrix(rows, mat.cols), pivots


def _solve_two_step(rows: list[int], width: int, first: int) -> tuple[int, int, int]:
    """Two-step solve of augmented rows (RHS at bit ``width``): (x, misses, step).

    Step 1 is a solution x of all the rows, with 0 rows missed.  When they
    are inconsistent, step 2 is the solution x of the first ``first`` rows,
    which must be consistent, and misses counts the rows it does not
    satisfy.  Free variables are 0 in both.

    One pass reads the rows in order and keeps the pivot rows read so far
    fully reduced, the pivot being a row's lowest set bit: that is the one
    reduced row echelon form of those rows, so the solution at any point
    is the pivot bits of the rows with the RHS set.  The step-2 solution
    is read after ``first`` rows, and the pass stops at the first row that
    reduces to 0 = 1.
    """
    rhs = 1 << width
    basis: dict[int, int] = {}  # pivot bit -> its row
    pivots = x2 = 0
    for i, row in enumerate(rows):
        if i == first:
            x2 = sum(bit for bit, b in basis.items() if b & rhs)
        hits = row & pivots
        while hits:
            bit = hits & -hits
            row ^= basis[bit]
            hits ^= bit
        if row & (rhs - 1):
            bit = row & -row
            for p, b in basis.items():
                if b & bit:
                    basis[p] = b ^ row
            basis[bit] = row
            pivots |= bit
        elif row & rhs:
            if i < first:
                raise AssertionError("restricted masking system must be solvable")
            # row r misses x2 when the parity of r & x2 differs from its RHS
            both = x2 | rhs
            return x2, sum((r & both).bit_count() & 1 for r in rows[first:]), 2
    return sum(bit for bit, b in basis.items() if b & rhs), 0, 1


_SPAN_BLOCK_WORDS = 1 << 16  # words of pair XORs held at once (512 KiB)


def _span_weight_counts(rows: list[int], n: int) -> list[int]:
    """Weight histogram, as ints, of all 2^len(rows) XOR combinations of
    length-n rows (with multiplicity, the empty one included).

    Meet in the middle: the combinations of each half of the rows as packed
    words, and the weights of all pairs' XORs a block of words at a time.
    """
    def combos(half):
        out = np.zeros((1, _n_words(n)), dtype=np.uint64)
        for row in _pack(half, n):
            out = np.concatenate((out, out ^ row))
        return out

    half = len(rows) // 2
    left, right = combos(rows[:half]), combos(rows[half:])
    step = max(1, _SPAN_BLOCK_WORDS // right.size)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, len(left), step):
        pairs = left[lo:lo + step, None, :] ^ right[None, :, :]
        weights = np.bitwise_count(pairs).sum(axis=2, dtype=np.int64)
        counts += np.bincount(weights.ravel(), minlength=n + 1)
    return counts.tolist()
