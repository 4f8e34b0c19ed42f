"""Exact symbolic algebra of the error group of phased shift/multiply operators.

Operators act on words of n digits in Z_q.  An element is written

    w^phase U_a V_b

where U_a shifts basis words (U_a|x> = |x+a>), V_b multiplies by the
character (V_b|x> = <b,x>|x>, with <b,x> = exp(2*pi*i*(b.x)/q)), and the
phase unit w is the primitive 2q-th root of unity exp(2*pi*i/(2q)).  Words
are tuples of n digits mod q.  All phases are integer exponents mod 2q;
complex numbers appear only in the cached `root_table` and its readers.

The phase denominator is 2q rather than q: subgroups containing an element
whose square is -I (e.g. a U_1 V_1 factor over Z_2) only close up once the
quarter phase i is available.

The module also holds the package's resource caps and the current `Budget`
of the two that a caller sets, which `check_sphere` and `check_size` read.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .galois import error_sphere_count

# Resource caps.  The first two are the defaults of the budget's `sphere` and
# `group`, and of the CLI's --max-sphere and --max-group; the last two are fixed.
ENUMERATION_CAP = 10**7  # error pairs in one enumeration; also K^2 and the q^r indices greedy walks
GROUP_CAP = 2**16  # elements of one subgroup table; also amplitudes of one dense state
DENSE_MATRIX_CAP = 2**12  # side of one dense operator matrix
SUBSET_CAP = 10**6  # row or column subsets that one alpha-good check enumerates

Word = tuple[int, ...]


@dataclass(frozen=True)
class Budget:
    """The caps that a caller sets; the comments of their defaults say what they bound."""

    sphere: int = ENUMERATION_CAP
    group: int = GROUP_CAP


_BUDGET: ContextVar[Budget] = ContextVar("budget", default=Budget())


@contextmanager
def budget(**caps):
    """Replace the named fields of the budget for a block, and restore the previous one on exit."""
    token = _BUDGET.set(replace(_BUDGET.get(), **caps))
    try:
        yield _BUDGET.get()
    finally:
        _BUDGET.reset(token)


def check_sphere(n: int, q: int, w: int) -> None:
    """Refuse an enumeration of the error sphere of radius w beyond the budget's `sphere`."""
    need = error_sphere_count(n, q, w)
    cap = _BUDGET.get().sphere
    if need > cap:
        raise ValueError(f"enumeration budget exceeded: need {need} pairs, cap {cap}")


def check_size(what: str, size: int, limit: str | int) -> None:
    """Refuse to build something of `size` beyond the budget's field `limit`
    ("sphere" or "group"), or beyond a fixed cap; `what` names the size."""
    cap = getattr(_BUDGET.get(), limit) if isinstance(limit, str) else limit
    if size > cap:
        raise ValueError(f"{what} {size} exceeds cap {cap}")


@lru_cache(maxsize=None)
def root_table(denominator: int) -> np.ndarray:
    """exp(2*pi*i*k/denominator) for k = 0 .. denominator-1, computed once."""
    roots = np.exp(2j * np.pi * np.arange(denominator) / denominator)
    roots.setflags(write=False)
    return roots


@dataclass(frozen=True)
class AlphabetGroup:
    """The cyclic group Z_q of digits, the alphabet of every word position."""

    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("the alphabet size must be an integer >= 2")

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

    @property
    def n(self) -> int:
        return len(self.a)


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
