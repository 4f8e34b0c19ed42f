"""Exact arithmetic, linear algebra and counting over prime fields GF(p),
and the packed-digit format of vectors over GF(q)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Miller-Rabin on the first 13 primes as bases is exact below PRIME_LIMIT
# (Sorenson and Webster, Math. Comp. 86 (2017) 985)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin; p >= PRIME_LIMIT is refused."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"primality of {p} is not decided at or beyond {PRIME_LIMIT}")
    if p < 2:
        return False
    if p in PRIME_BASES:
        return True
    if any(p % b == 0 for b in PRIME_BASES):
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in PRIME_BASES:
        x = pow(b, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False  # b witnesses that p is composite
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for prime p, acting on plain integer numpy arrays.

    All matrices and vectors are ``int64`` arrays with entries reduced to
    [0, p).  Every operation is exact; no floating point is used.
    """

    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def reduce(self, arr) -> np.ndarray:
        return np.asarray(arr, dtype=np.int64) % self.p

    def check(self, arr, name: str = "array") -> np.ndarray:
        """Validate that `arr` is already reduced mod p and return it as int64."""
        out = np.asarray(arr, dtype=np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.p):
            raise ValueError(f"{name} has entries outside [0, {self.p})")
        return out

    def matmul(self, a, b) -> np.ndarray:
        return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % self.p

    def inv_scalar(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(x, self.p - 2, self.p)

    # ------------------------------------------------------------------
    # Gaussian elimination.  Pivoting is deterministic (first nonzero row
    # in scan order) so reduced forms are reproducible.
    # ------------------------------------------------------------------
    def rref(self, a) -> tuple[np.ndarray, list[int], np.ndarray]:
        """Return (R, pivot_columns, T) with T @ a = R (mod p) and R in RREF.

        The row operations run on [a | I], so that R and T are reduced together.
        """
        a = self.reduce(a)
        rows, cols = a.shape
        r = np.hstack([a, np.eye(rows, dtype=np.int64)])
        pivots: list[int] = []
        row = 0
        for col in range(cols):
            if row >= rows:
                break
            sub = np.nonzero(r[row:, col])[0]
            if sub.size == 0:
                continue
            piv = row + int(sub[0])
            if piv != row:
                r[[row, piv]] = r[[piv, row]]
            r[row] = (r[row] * self.inv_scalar(r[row, col])) % self.p
            # clear the column in every other row with one outer product
            f = r[:, col].copy()
            f[row] = 0
            r = (r - np.outer(f, r[row])) % self.p
            pivots.append(col)
            row += 1
        return r[:, :cols], pivots, r[:, cols:]


def _gl_order(m: int, q: int) -> int:
    """Number of invertible m x m matrices over GF(q)."""
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def gaussian_binomial(m: int, q: int, r: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^m (exact integer)."""
    if r < 0 or r > m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    num = _gl_order(m, q)
    den = _gl_order(r, q) * _gl_order(m - r, q) * q ** ((m - r) * r)
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def error_sphere_count(n: int, q: int, d: int) -> int:
    """Number of pairs (x, y) in GF(q)^n x GF(q)^n with wt(x, y) <= d."""
    if d < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    return sum(math.comb(n, i) * (q * q - 1) ** i for i in range(d + 1))


# ----------------------------------------------------------------------
# Packed digit vectors.  Basis words and character indices share one
# format: a vector of `width` digits mod q is one integer key in which
# digit k weighs q^(width-1-k), so key order is the lexicographic order
# of the vectors.
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def places(q: int, width: int) -> np.ndarray:
    """Place values q^(width-1), ..., q, 1 of a packed vector (read-only).

    int64 while q^width <= 2^63, and exact Python ints in an object array
    beyond, so that no key wraps around.
    """
    dtype = np.int64 if q**width <= 2**63 else object
    table = np.array([q**k for k in range(width - 1, -1, -1)], dtype=dtype)
    table.setflags(write=False)
    return table


def pack(rows, q: int) -> np.ndarray:
    """Keys of the digit rows of an array, one product with the place values."""
    rows = np.asarray(rows)
    return rows @ places(q, rows.shape[-1])


def unpack(keys, q: int, width: int) -> np.ndarray:
    """Digit rows (int64) of packed keys; the inverse of `pack`."""
    digits = np.asarray(keys)[:, None] // places(q, width)
    digits %= q  # in place: the digit table is the largest array here
    return digits.astype(np.int64, copy=False)


def _remainder(x, q: int):
    """x mod q for an integer array x, as x - (x // q) q: equal to x % q for every sign.

    numpy divides an int64 array by a scalar several times faster than it
    takes a remainder, and `//` is floor division, so the two agree on
    negative entries too.  Private, so that `perfbench/tracing.py`, which
    wraps every public function here, does not time each call from `apply`
    and `simulate`.
    """
    out = np.floor_divide(x, q)
    out *= q
    return np.subtract(x, out, out=out)


PRODUCT_ROWS = 1024  # rows of `a` that `_exact_product` multiplies at once


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for int64 matrices, formed as float64 BLAS products where that is exact.

    numpy multiplies int64 matrices without BLAS, several times slower.  Every
    term and every partial sum of an entry is an integer of modulus at most
    max|a| max|b| times the inner size.  Below 2^53 each of them is a float64
    exactly, whatever order BLAS sums in, so the cast back gives the int64
    product bit for bit; on tables of digits that bound is far below 2^53.
    Beyond it the int64 product is formed instead.  The rows of `a` go
    through in blocks of PRODUCT_ROWS, so that the float copies stay small
    next to the int64 result and peak memory stays that of `a @ b`.
    """
    if _modulus(a) * _modulus(b) * a.shape[1] >= 2**53:
        return a @ b
    out = np.empty((len(a), b.shape[1]), dtype=np.int64)
    b = b.astype(np.float64)
    for start in range(0, len(a), PRODUCT_ROWS):
        block = slice(start, start + PRODUCT_ROWS)
        out[block] = a[block].astype(np.float64) @ b
    return out


def _modulus(a: np.ndarray) -> int:
    """max |a| over the entries of an integer array, 0 when it is empty."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _digit(keys: np.ndarray, place, q: int) -> np.ndarray:
    """The digit of place value `place` in each key: keys // place mod q."""
    return _remainder(keys // place, q)


# ----------------------------------------------------------------------
# Chunks of key digits.  A chunk is the most digits c with q^c <=
# CHUNK_VALUES (at least one), so that a table over a chunk's values stays
# small; a key of `width` digits is cut into chunks from its least
# significant digit, so only the leading chunk may be narrower.
# ----------------------------------------------------------------------

CHUNK_VALUES = 256  # values that one chunk of key digits spans at most


def _chunk_width(q: int) -> int:
    """Digits in a full chunk: the most c with q^c <= CHUNK_VALUES, at least one."""
    width = 1
    while q ** (width + 1) <= CHUNK_VALUES:
        width += 1
    return width


@lru_cache(maxsize=None)
def _chunk_digits(q: int) -> np.ndarray:
    """Digit rows of every value of a full chunk, in key order (read-only)."""
    width = _chunk_width(q)
    digits = unpack(np.arange(q**width), q, width)
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def _chunk_layout(q: int, width: int) -> tuple:
    """(place value, number of values, digit positions) of each chunk of a
    `width`-digit key, leading chunk first; the positions are a slice."""
    chunk = _chunk_width(q)
    spans = [slice(max(0, hi - chunk), hi) for hi in range(width, 0, -chunk)]
    return tuple((q ** (width - s.stop), q ** (s.stop - s.start), s) for s in reversed(spans))


def _weyl_action(keys: np.ndarray, a, b, q: int, n: int, values=None):
    """U_a V_b on packed words x of n digits: the keys of x + a, and the
    exponents b . x, unreduced (each caller reduces them against its root table).

    The keys are read one chunk of `_chunk_layout` at a time, and only in the
    chunks where (a, b) is nonzero: one division reads the chunk value (or
    `values`, the keys' `_chunk_values`, holds it), and two tables over the
    chunk's values, built from the cached digit rows of `_chunk_digits`,
    give the change of the key under the shift and the chunk's part of b . x.
    """
    targets = keys
    exponents = np.zeros(len(keys), dtype=np.int64)
    for k, (place, size, span) in enumerate(_chunk_layout(q, n)):
        a_c, b_c = a[span], b[span]
        if not (any(a_c) or any(b_c)):
            continue
        digits = _chunk_digits(q)[:size, -len(a_c) :]  # of each chunk value
        if values is not None:
            value = values[k]
        else:  # no division for the last chunk, no remainder for the first
            value = keys // place if place > 1 else keys
            if span.start:
                value = _remainder(value, size)
        if any(a_c):
            moved = pack(_remainder(digits + a_c, q), q)
            targets = targets + ((moved - np.arange(size)) * place)[value]
        if any(b_c):
            exponents += (digits @ np.asarray(b_c, dtype=np.int64))[value]
    return targets, exponents


@lru_cache(maxsize=None)
def _half_digits(q: int, width: int) -> tuple:
    """Digit rows of every value of the leading h = width // 2 digits (hi) and
    of the rest (lo), in key order (read-only): a table over every index
    a = hi q^(width - h) + lo is a q^h x q^(width - h) table whose ravel is
    in key order."""
    halves = tuple(unpack(np.arange(q**k), q, k) for k in (width // 2, width - width // 2))
    for digits in halves:
        digits.setflags(write=False)
    return halves


def _characters(members, q: int, width: int) -> np.ndarray:
    """u . a mod q for each member u (a row) and each index a of GF(q)^width
    in key order (a column): the exponents of V_u on the packed indices,
    as u_hi . a_hi + u_lo . a_lo over the halves of `_half_digits`."""
    hi, lo = _half_digits(q, width)
    members = np.asarray(members, dtype=np.int64)
    h = hi.shape[1]
    out = (members[:, :h] @ hi.T)[:, :, None] + (members[:, h:] @ lo.T)[:, None, :]
    return _remainder(out, q).reshape(len(members), -1)


def _quadratic_table(form: np.ndarray, q: int, modulus: int) -> np.ndarray:
    """a^T F a mod `modulus` for every a in GF(q)^len(F), over the halves of
    `_half_digits`: hi^T F_hh hi + lo^T F_ll lo, plus one exact product for
    the cross term hi^T (F_hl + F_lh^T) lo."""
    hi, lo = _half_digits(q, len(form))
    h = hi.shape[1]
    out = _exact_product(hi @ (form[:h, h:] + form[h:, :h].T), lo.T)
    out += ((hi @ form[:h, :h]) * hi).sum(axis=1)[:, None]
    out += ((lo @ form[h:, h:]) * lo).sum(axis=1)
    return _remainder(out, modulus)


def _chunk_values(keys, q: int, width: int) -> list:
    """The chunk values of packed keys, one int64 array per chunk of `_chunk_layout`."""
    keys = np.asarray(keys)
    return [
        np.asarray(_digit(keys, place, size), dtype=np.int64)
        for place, size, _ in _chunk_layout(q, width)
    ]


@lru_cache(maxsize=None)
def _difference_table(q: int) -> np.ndarray:
    """Entry [a, b]: the chunk-local key of (a - b) mod q digitwise, over the
    values a, b of a full chunk (uint8, read-only; q <= CHUNK_VALUES).

    A narrower chunk's values index it too: their missing leading digits are
    0 in both, and 0 - 0 adds nothing.  Built one digit at a time, Horner
    style, so no q^c x q^c x c array is made.
    """
    digits = _chunk_digits(q).astype(np.int16)
    table = np.zeros((len(digits), len(digits)), dtype=np.int16)
    for column in digits.T:
        table *= q
        table += _remainder(column[:, None] - column[None, :], q)
    table = table.astype(np.uint8)
    table.setflags(write=False)
    return table


def _key_differences(a_chunks: list, b_chunks: list, q: int, width: int) -> np.ndarray:
    """Packed keys of (a - b) mod q digitwise for every a against every b.

    a and b are given by their chunk values (`_chunk_values`), each a scalar
    or a 1-d array per chunk, and the keys come out with shape a.shape +
    b.shape.  Each chunk costs one row lookup in `_difference_table` and
    one gather along the rows (several times faster than indexing it with
    two broadcast arrays), or one remainder when q > CHUNK_VALUES, where a
    chunk is one digit and a table would have q^2 entries.  The keys are
    accumulated leading chunk first, Horner style, in the dtype of
    `places(q, width)`, so that keys beyond int64 stay exact.
    """
    dtype = places(q, width).dtype
    out = np.zeros((), dtype=dtype)  # the key of every vector of width 0
    for k, ((_, size, _), a, b) in enumerate(zip(_chunk_layout(q, width), a_chunks, b_chunks)):
        if q > CHUNK_VALUES:
            diff = _remainder(np.subtract.outer(a, b), q)
        else:
            diff = _difference_table(q)[a].take(b, axis=-1)
        if k:
            out *= size
            out += diff
        else:
            out = diff.astype(dtype)
    return out


def unique_keys(keys) -> np.ndarray:
    """Sorted unique keys, flattened.

    Dense keys, non-negative int64 ones whose largest is below their count,
    are marked in a boolean array over 0 .. max, and the marked indices are
    read back in order: linear time.  Other keys take a sort and a mask: on
    int64 keys this is several times faster than `np.unique`, which hashes
    before it sorts.
    """
    keys = np.asarray(keys).ravel()
    top = int(keys.max()) if keys.dtype == np.int64 and keys.size else keys.size
    if top < keys.size and keys.min() >= 0:
        seen = np.zeros(top + 1, dtype=bool)
        seen[keys] = True
        return np.flatnonzero(seen)
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]
