"""Explicit code families and the alpha-good machinery.

Index conventions, frozen here for the whole package
----------------------------------------------------
Vector positions carry 1-based labels 1..n.  Constructions use a formal
index j taken mod n, where j = 0 denotes position n; thus e_0 = e_n and
"index addition mod n" acts on the labels {1, ..., n} with n playing the
role of 0.  In arrays, position p is the 0-based entry p - 1.

All families share one subgroup shape: U-parts range over the sum-zero
code C in GF(q)^n, V-parts over L7 a + b with b a multiple of the all-ones
vector, and phases are the quadratic form of an upper-triangular matrix
with L7 = upper + upper^T.  `maximal_form_spec` packages that shape as a
GottesmanSpec; the circulant coupling of the distance-2 and Laflamme-type
families and the block matrix of alpha-good seeds are special cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier_code import FourierDescription, Report
from .galois import PrimeField, gaussian_binomial, pack, unpack
from .gottesman import GottesmanSpec
from .weyl import SUBSET_CAP

LAFLAMME_15_8_3_SETS = (
    frozenset({1, 2, 3, 4, 13}),
    frozenset({5, 6, 7, 8, 13}),
    frozenset({9, 10, 11, 12, 13}),
    frozenset({1, 2, 5, 6, 9, 10}),
    frozenset({1, 2, 7, 8, 11, 12}),
    frozenset({3, 4, 7, 8, 9, 10}),
    frozenset({3, 4, 5, 6, 11, 12}),
    frozenset({14, 15}),
)


def unit_vector(n: int, j: int) -> np.ndarray:
    """e_j with the formal index j taken mod n (j = 0 means position n)."""
    v = np.zeros(n, dtype=np.int64)
    v[(j - 1) % n] = 1
    return v


def circulant_coupling(n: int) -> np.ndarray:
    """Symmetric circulant whose first row has ones at positions m+1, m+2."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    m = (n - 1) // 2
    s = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        s[i, (i + m) % n] = 1
        s[i, (i + m + 1) % n] = 1
    return s


def sum_zero_image_matrix(n: int, q: int) -> np.ndarray:
    """The n x n matrix with I_{n-1} over a row of -1's and a zero last column.

    Its columns e_j - e_n span the sum-zero code C, and the all-ones matrix
    J annihilates it (JL = 0).
    """
    l_mat = np.zeros((n, n), dtype=np.int64)
    l_mat[: n - 1, : n - 1] = np.eye(n - 1, dtype=np.int64)
    l_mat[n - 1, : n - 1] = (q - 1) % q
    return l_mat


def maximal_form_spec(q: int, n: int, upper) -> GottesmanSpec:
    """Maximal spec with U-parts over C and quadratic phases from `upper`.

    `upper` is an n x n upper-triangular matrix over GF(q).  With
    L7 = upper + upper^T, L the sum-zero image matrix and J all-ones,
    the spec is (L, M = L7 L + J, D = 2 L^T upper L); the +J term makes
    a -> (La, Ma) injective, so #S = q^n.
    """
    field = PrimeField(q)
    upper = field.check(np.asarray(upper, dtype=np.int64), "upper")
    if upper.shape != (n, n) or np.any(np.tril(upper, -1)):
        raise ValueError("upper must be an n x n upper-triangular matrix")
    l_mat = sum_zero_image_matrix(n, q)
    l7 = (upper + upper.T) % q
    m_mat = (l7 @ l_mat + 1) % q
    d_mat = 2 * ((l_mat.T @ upper @ l_mat) % q)
    return GottesmanSpec(q=q, L=l_mat, M=m_mat, D=d_mat, quad_upper=upper)


def laflamme_spec(n: int) -> GottesmanSpec:
    """The binary circulant-coupling maximal spec on n digits (n odd)."""
    return distance2_spec(n, 2)


def distance2_spec(n: int, q: int) -> GottesmanSpec:
    return maximal_form_spec(q, n, np.triu(circulant_coupling(n), 1))


def distance2_family(n: int, q: int) -> tuple[GottesmanSpec, FourierDescription]:
    """The ((n, 1 + n(q-1), 2))_q code on the circulant-coupling spec.

    B = {0} u {alpha e_0} u {e_0 + alpha u_j} where u_j = sum_{i=1}^{n-1} e_i - e_j.

    B has distance 2 only for odd n >= 5.  At n = 3 the same construction
    gives the stated dimension 1 + 3(q-1) but distance 1: a distance-2 code
    that large would break the quantum Singleton bound K <= q^(n-2).  It
    stays available for studying that impossible case.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    spec = distance2_spec(n, q)
    e0 = unit_vector(n, 0)
    ones_head = np.zeros(n, dtype=np.int64)
    ones_head[: n - 1] = 1
    members = [tuple(np.zeros(n, dtype=np.int64))]
    for alpha in range(1, q):
        members.append(tuple((alpha * e0) % q))
    for j in range(1, n):
        u_j = (ones_head - unit_vector(n, j)) % q
        for alpha in range(1, q):
            members.append(tuple((e0 + alpha * u_j) % q))
    description = FourierDescription(spec, frozenset(members))
    assert len(description) == 1 + n * (q - 1)
    return spec, description


def code_15_8_3() -> FourierDescription:
    """The ((15, 8, 3)) code from eight subsets of {1..15} with pairwise
    symmetric differences of size 7 or 8."""
    return family_to_b(SetFamily(15, LAFLAMME_15_8_3_SETS), 15)


# ----------------------------------------------------------------------
# Set families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SetFamily:
    """Distinct subsets of the universe {1, ..., universe}."""

    universe: int
    members: tuple

    def __post_init__(self) -> None:
        members = tuple(frozenset(s) for s in self.members)
        if len(set(members)) != len(members):
            raise ValueError("family members must be distinct sets")
        for s in members:
            if any(not 1 <= v <= self.universe for v in s):
                raise ValueError("member outside the universe")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


def subspace_family(m: int, r: int, q: int) -> SetFamily:
    """All r-dimensional subspaces of GF(q)^m as point sets.

    Vectors are identified with labels 1..q^m via v -> 1 + sum v_i q^(m-1-i).
    Subspaces are enumerated through their reduced-row-echelon bases:
    pivot-column combinations in lexicographic order, free entries in
    lexicographic order, so the family is canonical and deterministic.
    """
    count = gaussian_binomial(m, q, r)
    members = []
    if r == 0:
        return SetFamily(q**m, (frozenset({1}),))
    coeffs = unpack(np.arange(q**r), q, r)
    for pivots in itertools.combinations(range(m), r):
        free_slots = [
            (row, col)
            for row in range(r)
            for col in range(m)
            if col > pivots[row] and col not in pivots
        ]
        for values in unpack(np.arange(q ** len(free_slots)), q, len(free_slots)):
            basis = np.zeros((r, m), dtype=np.int64)
            for row, col in zip(range(r), pivots):
                basis[row, col] = 1
            for (row, col), v in zip(free_slots, values):
                basis[row, col] = v
            points = (coeffs @ basis) % q
            members.append(frozenset((pack(points, q) + 1).tolist()))
    family = SetFamily(q**m, tuple(members))
    assert len(family) == count
    return family


def family_to_b(family: SetFamily, n: int) -> FourierDescription:
    """Embed a set family as a Fourier description over laflamme_spec(n), n >= 5.

    The universe must fit in {1..n}, and every pairwise symmetric difference
    size w must avoid the weights of the distance-3 forbidden set, that is,
    7 <= w <= n - 7 or w = n; the first offending pair, in
    `itertools.combinations` order, is reported otherwise.  With I the 0/1
    indicator matrix of the members, the sizes are |s_i| + |s_j| - 2 (I I^T)_ij.

    The rule: a pair (x, y) of weight <= 2 has forbidden index z = E^T v +
    (sum x) 1, v = y + S x (S the circulant coupling, E the sum-zero image
    matrix, M = S E + J).  E^T v clears v_n, or flips the other digits if
    v_n = 1, so wt(z) is wt(v) <= 6 or n - wt(v).  Weight n needs sum x = 1
    and E^T v = 0: x = e_i and v = 0 (wt(v) <= 4 < n), so y = S e_i, three
    positions.  The other weights in [1, 6] and [n - 6, n - 1] are reached
    (tested for odd n <= 41); n = 3 bans {1, 2, 3}, so n < 5 is refused.
    """
    if n < 5:
        raise ValueError(f"set families embed over laflamme_spec(n) for odd n >= 5 only, got n={n}")
    if family.universe > n:
        raise ValueError(f"universe {family.universe} does not embed in 1..{n}")
    spec = laflamme_spec(n)
    indicators = np.zeros((len(family), n), dtype=np.int64)
    for row, s in zip(indicators, family.members):
        row[[label - 1 for label in s]] = 1
    sizes = indicators.sum(axis=1)
    differences = sizes[:, None] + sizes[None, :] - 2 * (indicators @ indicators.T)
    allowed = ((differences >= 7) & (differences <= n - 7)) | (differences == n)
    offending = np.argwhere(np.triu(~allowed, 1))
    if len(offending):
        i, j = offending[0]  # argwhere is row-major: combinations order
        s1, s2 = family.members[i], family.members[j]
        raise ValueError(
            f"symmetric difference of {sorted(s1)} and {sorted(s2)} has "
            f"banned size {differences[i, j]}"
        )
    members = frozenset(map(tuple, indicators.tolist()))
    assert len(members) == len(family)
    return FourierDescription(spec, members)


def puncture(family: SetFamily, coordinate: int) -> SetFamily:
    """Drop one coordinate from the universe and every member.

    Labels above the dropped coordinate shift down by one so the universe
    stays contiguous.  Raises if two members collapse to the same set.
    """
    if not 1 <= coordinate <= family.universe:
        raise ValueError(f"coordinate {coordinate} outside 1..{family.universe}")
    relabel = lambda v: v if v < coordinate else v - 1
    members = []
    for s in family.members:
        members.append(frozenset(relabel(v) for v in s if v != coordinate))
    if len(set(members)) != len(members):
        raise ValueError("puncturing collapses two members to the same set")
    return SetFamily(family.universe - 1, tuple(members))


# ----------------------------------------------------------------------
# alpha-good matrices
# ----------------------------------------------------------------------


def alpha_good(r_mat, alpha) -> Report:
    """Check the four sum-of-rows/columns weight conditions on a binary matrix.

    Every floor(alpha n)-subset of columns (conditions i, iii) and of rows
    (ii, iv) must sum to a vector of weight in [alpha n, (1 - alpha) n].
    The witness of a failure is the condition and the first subset, in
    `itertools.combinations` order, that breaks it.
    """
    r_mat = PrimeField(2).check(np.asarray(r_mat, dtype=np.int64), "matrix")
    if r_mat.ndim != 2 or r_mat.shape[0] != r_mat.shape[1]:
        raise ValueError("matrix must be square")
    n = r_mat.shape[0]
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    t = int(alpha * n)
    if t < 1:
        raise ValueError("floor(alpha n) must be at least 1")
    if math.comb(n, t) > SUBSET_CAP:
        raise ValueError("subset enumeration budget exceeded")
    lo, hi = alpha * n, (1 - alpha) * n
    for axis, (cond_lo, cond_hi) in ((1, (1, 3)), (0, (2, 4))):
        vectors = r_mat.T if axis == 1 else r_mat
        for subset in itertools.combinations(range(n), t):
            weight = int(np.sum(np.bitwise_xor.reduce(vectors[list(subset)], axis=0)))
            if not lo <= weight <= hi:
                condition = cond_lo if weight < lo else cond_hi
                return Report(False, witness={"condition": condition, "subset": list(subset)})
    return Report(True)


def alpha_good_spec(r_mat) -> GottesmanSpec:
    """Maximal spec on 2n digits seeded by an n x n binary matrix.

    The coupling is the symmetric block matrix [[0, R], [R^T, 0]]; the
    phase seed is its strictly upper-triangular half [[0, R], [0, 0]].
    """
    r_mat = PrimeField(2).check(np.asarray(r_mat, dtype=np.int64), "matrix")
    if r_mat.ndim != 2 or r_mat.shape[0] != r_mat.shape[1]:
        raise ValueError("matrix must be square")
    n = r_mat.shape[0]
    big = np.zeros((2 * n, 2 * n), dtype=np.int64)
    big[:n, n:] = r_mat
    big[n:, :n] = r_mat.T
    return maximal_form_spec(2, 2 * n, np.triu(big, 1))


def search_alpha_good(n: int, alpha, attempts: int, seed: int):
    """Randomized search for an alpha-good n x n binary matrix.

    Returns (matrix, attempt_index) on success, None otherwise; existence
    is never asserted.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(attempts):
        candidate = rng.integers(0, 2, size=(n, n), dtype=np.int64)
        if alpha_good(candidate, alpha):
            return candidate, attempt
    return None
