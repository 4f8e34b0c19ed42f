"""Exact symbolic algebra of the error group of phased shift/multiply operators.

Operators act on words of n digits in Z_q.  An element is written

    w^phase U_a V_b

where U_a shifts basis words (U_a|x> = |x+a>), V_b multiplies by the
character (V_b|x> = <b,x>|x>, with <b,x> = exp(2*pi*i*(b.x)/q)), and the
phase unit w is the primitive 2q-th root of unity exp(2*pi*i/(2q)).  Words
are tuples of n digits mod q.  All phases are integer exponents mod 2q;
complex numbers appear only in `dense_matrix` and in callers that opt in
via `phase_value`.

The phase denominator is 2q rather than q: subgroups containing an element
whose square is -I (e.g. a U_1 V_1 factor over Z_2) only close up once the
quarter phase i is available.

The module also holds the package's resource caps, each defined once here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .galois import error_sphere_count

# Resource caps.  The first two are the defaults of the CLI's --max-sphere
# and --max-group; callers that take a `cap` or `group_cap` may override them.
ENUMERATION_CAP = 10**7  # error pairs in one enumeration; also the q^r indices greedy walks
GROUP_CAP = 2**16  # elements of one subgroup table; also amplitudes of one dense state
DENSE_MATRIX_CAP = 2**12  # side of one dense operator matrix
SUBSET_CAP = 10**6  # row or column subsets that one alpha-good check enumerates

Word = tuple[int, ...]


def check_sphere(n: int, q: int, w: int, cap: int = ENUMERATION_CAP) -> None:
    """Refuse an enumeration of the error sphere of radius w beyond `cap` pairs."""
    need = error_sphere_count(n, q, w)
    if need > cap:
        raise ValueError(f"enumeration budget exceeded: need {need} pairs, cap {cap}")


def check_size(what: str, size: int, cap: int) -> None:
    """Refuse to build something of `size` beyond `cap`; `what` names the size."""
    if size > cap:
        raise ValueError(f"{what} {size} exceeds cap {cap}")


@lru_cache(maxsize=None)
def root_table(denominator: int) -> np.ndarray:
    """exp(2*pi*i*k/denominator) for k = 0 .. denominator-1, computed once."""
    roots = np.exp(2j * np.pi * np.arange(denominator) / denominator)
    roots.setflags(write=False)
    return roots


def phase_value(exponent: int, denominator: int) -> complex:
    """exp(2*pi*i*exponent/denominator) with a cached root table."""
    return complex(root_table(denominator)[exponent % denominator])


@dataclass(frozen=True)
class AlphabetGroup:
    """The cyclic group Z_q of digits, the alphabet of every word position."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("the alphabet size must be an integer >= 2")

    @property
    def size(self) -> int:
        return self.q

    @property
    def phase_denominator(self) -> int:
        return 2 * self.q

    def word(self, seq) -> Word:
        """Canonical word: a tuple of digits reduced mod q."""
        return tuple(int(v) % self.q for v in seq)

    def zero(self, n: int) -> Word:
        return (0,) * n

    def _check_pair(self, a: Word, b: Word) -> None:
        if len(a) != len(b):
            raise ValueError("words have different lengths")

    def add(self, a: Word, b: Word) -> Word:
        self._check_pair(a, b)
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def neg(self, a: Word) -> Word:
        return tuple((-x) % self.q for x in a)

    def bicharacter_exponent(self, a: Word, b: Word) -> int:
        """Exponent e mod 2q with <a,b> = exp(2*pi*i*e/(2q))."""
        self._check_pair(a, b)
        return 2 * sum(x * y for x, y in zip(a, b)) % self.phase_denominator

    def weight(self, a: Word, b: Word) -> int:
        """Number of positions where (a_i, b_i) != (0, 0)."""
        self._check_pair(a, b)
        return sum(1 for x, y in zip(a, b) if x or y)

    def all_words(self, n: int):
        """All words of length n in lexicographic order."""
        return itertools.product(range(self.q), repeat=n)


def prime_group(q: int) -> AlphabetGroup:
    return AlphabetGroup(int(q))


@dataclass(frozen=True)
class WeylElement:
    """w^phase U_a V_b with an exact phase exponent mod 2q."""

    group: AlphabetGroup
    phase: int
    a: Word
    b: Word

    def __post_init__(self) -> None:
        self.group._check_pair(self.a, self.b)
        object.__setattr__(self, "phase", self.phase % self.group.phase_denominator)
        object.__setattr__(self, "a", self.group.word(self.a))
        object.__setattr__(self, "b", self.group.word(self.b))

    @classmethod
    def identity(cls, group: AlphabetGroup, n: int) -> "WeylElement":
        return cls(group, 0, group.zero(n), group.zero(n))

    @classmethod
    def shift(cls, group: AlphabetGroup, a) -> "WeylElement":
        a = group.word(a)
        return cls(group, 0, a, (0,) * len(a))

    @classmethod
    def mult(cls, group: AlphabetGroup, b) -> "WeylElement":
        b = group.word(b)
        return cls(group, 0, (0,) * len(b), b)

    @property
    def n(self) -> int:
        return len(self.a)

    def is_scalar(self) -> bool:
        return not any(self.a) and not any(self.b)

    def weight(self) -> int:
        return self.group.weight(self.a, self.b)

    def phase_factor(self) -> complex:
        return phase_value(self.phase, self.group.phase_denominator)


def _check_operands(g: WeylElement, h: WeylElement) -> None:
    if g.group != h.group or len(g.a) != len(h.a):
        raise ValueError("elements act on different alphabets or lengths")


def compose(g: WeylElement, h: WeylElement) -> WeylElement:
    """Group product: (w^i U_a V_b)(w^j U_c V_d) = w^{i+j} <b,c> U_{a+c} V_{b+d}."""
    _check_operands(g, h)
    grp = g.group
    phase = g.phase + h.phase + grp.bicharacter_exponent(g.b, h.a)
    return WeylElement(grp, phase, grp.add(g.a, h.a), grp.add(g.b, h.b))


def inverse(g: WeylElement) -> WeylElement:
    grp = g.group
    phase = -g.phase + grp.bicharacter_exponent(g.b, g.a)
    return WeylElement(grp, phase, grp.neg(g.a), grp.neg(g.b))


def gamma(g: WeylElement, h: WeylElement) -> int:
    """Commutator phase exponent: g h g^-1 h^-1 = w^gamma I."""
    _check_operands(g, h)
    grp = g.group
    return (
        grp.bicharacter_exponent(g.b, h.a) - grp.bicharacter_exponent(g.a, h.b)
    ) % grp.phase_denominator


def dense_matrix(g: WeylElement) -> np.ndarray:
    """Complex matrix of g on the q^n-dimensional word space (oracle use)."""
    grp = g.group
    dim = grp.q**g.n
    check_size("dense dimension", dim, DENSE_MATRIX_CAP)
    words = list(grp.all_words(g.n))
    index = {w: i for i, w in enumerate(words)}
    out = np.zeros((dim, dim), dtype=complex)
    p = grp.phase_denominator
    for col, x in enumerate(words):
        row = index[grp.add(x, g.a)]
        out[row, col] = phase_value(g.phase + grp.bicharacter_exponent(g.b, x), p)
    return out


def bounded_pairs(q: int, n: int, w: int, cap: int = ENUMERATION_CAP):
    """All (a, b) word pairs with 1 <= wt(a, b) <= w, as two int64 arrays of rows.

    Order is canonical: by weight, then support positions, then the
    per-position digit pairs (x, y) != (0, 0) in lexicographic order.  Each
    (weight, support) block is filled by indexing, so no pair is built in
    Python.  The range and the cap are checked before anything is allocated.
    """
    if w < 0 or w > n:
        raise ValueError(f"need 0 <= w <= n, got w={w}, n={n}")
    check_sphere(n, q, w, cap)
    total = error_sphere_count(n, q, w) - 1
    xs = np.zeros((total, n), dtype=np.int64)
    ys = np.zeros((total, n), dtype=np.int64)
    start = 0
    for weight in range(1, w + 1):
        supports = np.array(list(itertools.combinations(range(n), weight)), dtype=np.int64)
        # option k in 1 .. q^2 - 1 is the digit pair (k // q, k % q); first position slowest
        options = np.indices((q * q - 1,) * weight).reshape(weight, -1).T + 1
        stop = start + len(supports) * len(options)
        rows = np.arange(start, stop)[:, None]
        columns = np.repeat(supports, len(options), axis=0)
        xs[rows, columns] = np.tile(options // q, (len(supports), 1))
        ys[rows, columns] = np.tile(options % q, (len(supports), 1))
        start = stop
    return xs, ys


def enumerate_bounded(group: AlphabetGroup, n: int, w: int, cap: int = ENUMERATION_CAP):
    """Yield all (a, b) word pairs with 1 <= wt(a, b) <= w, each exactly once,
    as the rows of `bounded_pairs` in its canonical order."""
    xs, ys = bounded_pairs(group.q, n, w, cap)
    for a, b in zip(xs.tolist(), ys.tolist()):
        yield tuple(a), tuple(b)
