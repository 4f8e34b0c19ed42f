"""Exact arithmetic, linear algebra and counting over prime fields GF(p)."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
