"""Exact arithmetic, linear algebra and counting over prime fields GF(p),
and the packed-digit format of vectors over GF(q)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
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
    # in scan order) so reduced forms and kernel bases are reproducible.
    # ------------------------------------------------------------------
    def rref(self, a) -> tuple[np.ndarray, list[int], np.ndarray]:
        """Return (R, pivot_columns, T) with T @ a = R (mod p) and R in RREF."""
        a = self.reduce(a)
        rows, cols = a.shape
        r = a.copy()
        t = np.eye(rows, dtype=np.int64)
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
                t[[row, piv]] = t[[piv, row]]
            inv = self.inv_scalar(r[row, col])
            r[row] = (r[row] * inv) % self.p
            t[row] = (t[row] * inv) % self.p
            # clear the column in every other row with one outer product
            f = r[:, col].copy()
            f[row] = 0
            r = (r - np.outer(f, r[row])) % self.p
            t = (t - np.outer(f, t[row])) % self.p
            pivots.append(col)
            row += 1
        return r, pivots, t

    def rank(self, a) -> int:
        return len(self.rref(a)[1])

    def kernel(self, a) -> list[np.ndarray]:
        """Basis of the right kernel of `a`, one vector per free column."""
        a = self.reduce(a)
        _, cols = a.shape
        r, pivots, _ = self.rref(a)
        free = [c for c in range(cols) if c not in pivots]
        basis = []
        for f in free:
            v = np.zeros(cols, dtype=np.int64)
            v[f] = 1
            for i, c in enumerate(pivots):
                v[c] = (-r[i, f]) % self.p
            basis.append(v)
        return basis

    def solve(self, a, b) -> np.ndarray | None:
        """One particular solution of a @ x = b, or None if inconsistent."""
        a = self.reduce(a)
        b = self.reduce(b)
        if a.shape[0] != b.shape[0]:
            raise ValueError("dimension mismatch between matrix and rhs")
        r, pivots, t = self.rref(a)
        tb = (t @ b) % self.p
        nrows = len(pivots)
        if np.any(tb[nrows:]):
            return None
        x = np.zeros(a.shape[1], dtype=np.int64)
        for i, c in enumerate(pivots):
            x[c] = tb[i]
        return x


def linear_solve(field: PrimeField, a, b) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve a @ x = b over GF(p).

    Returns a particular solution together with a basis of ker(a), or None
    when the system is inconsistent.
    """
    x = field.solve(a, b)
    if x is None:
        return None
    return x, field.kernel(a)


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


def unique_keys(keys) -> np.ndarray:
    """Sorted unique keys, flattened.

    A sort and a mask: on int64 keys this is several times faster than
    `np.unique`, which hashes before it sorts.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]
