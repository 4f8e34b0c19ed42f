"""Gottesman subgroup specifications over prime fields.

A specification holds n x r matrices L, M over GF(q) and an r x r integer
phase matrix D mod P (P = 2q).  It generates the abelian subgroup

    S = { s_a = w^rho(a) U_{La} V_{Ma} | a in GF(q)^r }

with rho(a) = a^T D a evaluated over the integers on canonical lifts and
reduced mod P.  A valid spec makes a -> s_a an exact group isomorphism from
GF(q)^r onto S, which requires

    rho(a + b) - rho(a) - rho(b)  =  (P/q) * (a^T M^T L b mod q)   (mod P),

plus injectivity of a -> (La, Ma) and symmetry of L^T M.  Characters of S
are indexed by u in GF(q)^r via chi_u(s_a) = w_q^(u . a).

JSON form of a spec: {"q", "n", "r", "L", "M", "D", "phase_denominator"}
with matrices as row-major lists of integer rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galois import PrimeField
from .weyl import ENUMERATION_CAP, AlphabetGroup, WeylElement, enumerate_bounded, gamma, prime_group


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


def synthesize_phase_matrix(q: int, l_mat, m_mat) -> np.ndarray:
    """An integer phase matrix D mod 2q satisfying the cocycle condition.

    For odd q every entry of D is even and the carries of integer lifting
    vanish; for q = 2 the diagonal of G = L^T M lands on the diagonal of D
    as odd entries, which is exactly where quarter phases enter.
    """
    field_ = PrimeField(q)
    g = field_.matmul(np.asarray(l_mat).T, m_mat)
    if not np.array_equal(g, g.T):
        raise ValueError("L^T M is not symmetric; no abelian phase assignment exists")
    if q == 2:
        return 2 * np.triu(g, 1) + np.diag(np.diag(g))
    inv2 = (q + 1) // 2
    return 2 * ((inv2 * g) % q)


@dataclass(frozen=True, eq=False)
class GottesmanSpec:
    """Matrices (L, M) over GF(q) plus the quadratic phase table D mod 2q.

    `quad_upper`, when present, is an n x n upper-triangular matrix over
    GF(q) certifying that the spec is a maximal subgroup in product form:
    U-parts range over the sum-zero code C, V-parts over (D7 + D7^T) a + b
    with b a multiple of the all-ones vector, and phases are the quadratic
    form of quad_upper on the U-part.  Encoders and closed-form codewords
    require this certificate.
    """

    q: int
    L: np.ndarray
    M: np.ndarray
    D: np.ndarray
    quad_upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "L", _frozen(self.L))
        object.__setattr__(self, "M", _frozen(self.M))
        object.__setattr__(self, "D", _frozen(self.D))
        if self.L.shape != self.M.shape or self.L.ndim != 2:
            raise ValueError("L and M must be matrices of the same shape")
        if self.D.shape != (self.r, self.r):
            raise ValueError("D must be r x r")
        if self.quad_upper is not None:
            object.__setattr__(self, "quad_upper", _frozen(self.quad_upper))

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def r(self) -> int:
        return self.L.shape[1]

    @property
    def phase_denominator(self) -> int:
        return 2 * self.q

    @cached_property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @cached_property
    def group(self) -> AlphabetGroup:
        return prime_group(self.q)

    @property
    def size(self) -> int:
        return self.q**self.r

    def is_maximal(self) -> bool:
        return self.size == self.q**self.n

    # ------------------------------------------------------------------
    def rho(self, a) -> int:
        """Phase exponent of s_a, mod 2q."""
        a = self.field.check(np.atleast_1d(np.asarray(a, dtype=np.int64)), "index vector")
        if a.shape != (self.r,):
            raise ValueError(f"index vector must have length {self.r}")
        return int(a @ self.D @ a) % self.phase_denominator

    def rho_batch(self, a_rows: np.ndarray) -> np.ndarray:
        return np.einsum("ij,jk,ik->i", a_rows, self.D, a_rows) % self.phase_denominator

    def element(self, a) -> WeylElement:
        """The group element s_a = w^rho(a) U_{La} V_{Ma}."""
        a = self.field.check(np.atleast_1d(np.asarray(a, dtype=np.int64)), "index vector")
        return WeylElement(
            self.group,
            self.rho(a),
            tuple(self.field.matmul(self.L, a)),
            tuple(self.field.matmul(self.M, a)),
        )

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        doc = {
            "q": self.q,
            "n": self.n,
            "r": self.r,
            "L": self.L.tolist(),
            "M": self.M.tolist(),
            "D": self.D.tolist(),
            "phase_denominator": self.phase_denominator,
        }
        if self.quad_upper is not None:
            doc["quad_upper"] = self.quad_upper.tolist()
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GottesmanSpec":
        spec = cls(
            q=int(doc["q"]),
            L=doc["L"],
            M=doc["M"],
            D=doc["D"],
            quad_upper=doc.get("quad_upper"),
        )
        if doc.get("phase_denominator", spec.phase_denominator) != spec.phase_denominator:
            raise ValueError("phase denominator must equal 2q")
        return spec


# ----------------------------------------------------------------------
# Packed character indices
# ----------------------------------------------------------------------


def _key_dtype(q: int, r: int):
    return np.int64 if q**r <= 2**63 else object


def pack_keys(columns, q: int, r: int) -> np.ndarray:
    """Packed keys of character indices in GF(q)^r, from their r digit columns.

    `columns` yields the digit arrays, most significant first and all of one
    shape (`rows.T` for a matrix of digit rows), so that a caller never has
    to hold all r of them at once.  Digit k weighs q^(r-1-k), so the order of
    the keys is the lexicographic order of the indices.  Keys are int64 while
    q^r <= 2^63 and exact Python ints in an object array beyond, so that no
    key wraps around.
    """
    keys = None
    for column in columns:
        if keys is None:
            keys = np.array(column, dtype=_key_dtype(q, r))
        else:
            keys *= q
            keys += column
    return keys


def unique_keys(keys) -> np.ndarray:
    """Sorted unique keys, flattened.

    A sort and a mask: on int64 keys this is several times faster than
    `np.unique`, which hashes before it sorts.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def unpack_keys(keys: np.ndarray, q: int, r: int) -> np.ndarray:
    """Digit rows (int64) of packed character indices; the inverse of `pack_keys`."""
    places = np.array([q ** (r - 1 - k) for k in range(r)], dtype=_key_dtype(q, r))
    return (keys[:, None] // places % q).astype(np.int64)


@dataclass(frozen=True, eq=False)
class ForbiddenSet:
    """Character indices that the difference set of a code must avoid.

    Stored as the sorted unique packed keys of `pack_keys`; the tuple views
    are derived from them.
    """

    d: int
    q: int
    r: int
    keys: np.ndarray

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members())

    def __contains__(self, u) -> bool:
        return tuple(int(v) for v in u) in self.members

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self) -> np.ndarray:
        """The members as digit rows, in lexicographic order."""
        return unpack_keys(self.keys, self.q, self.r)

    def weights(self) -> set:
        return set(np.count_nonzero(self.rows(), axis=1).tolist())

    def sorted_members(self) -> list:
        return list(map(tuple, self.rows().tolist()))


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def validate(spec: GottesmanSpec, rng_seed: int = 0, samples: int = 40) -> list[str]:
    """Check the spec invariants; returns a list of violations (empty = valid).

    Checks: symmetry of L^T M, injectivity of a -> (La, Ma) (which also
    rules out nontrivial scalars in S), the phase cocycle on all standard
    basis pairs plus random pairs, and commutativity via the commutator
    phase of basis elements.
    """
    violations: list[str] = []
    f = spec.field
    g = f.matmul(spec.L.T, spec.M)
    if not np.array_equal(g, g.T):
        violations.append("L^T M is not symmetric")

    stacked = np.vstack([spec.L, spec.M])
    if f.rank(stacked) != spec.r:
        violations.append("a -> (La, Ma) is not injective (scalar elements present)")

    if spec.rho(np.zeros(spec.r, dtype=np.int64)) != 0:
        violations.append("identity element carries a nonzero phase")

    rng = np.random.default_rng(rng_seed)
    eyes = np.eye(spec.r, dtype=np.int64)
    pairs = [(eyes[i], eyes[j]) for i in range(spec.r) for j in range(spec.r)]
    pairs += [
        (rng.integers(0, spec.q, spec.r), rng.integers(0, spec.q, spec.r))
        for _ in range(samples)
    ]
    p = spec.phase_denominator
    unit = p // spec.q
    for v1, v2 in pairs:
        lhs = (spec.rho((v1 + v2) % spec.q) - spec.rho(v1) - spec.rho(v2)) % p
        rhs = (unit * int((v1 @ g @ v2) % spec.q)) % p
        if lhs != rhs:
            violations.append(
                f"phase cocycle fails at v1={list(map(int, v1))}, v2={list(map(int, v2))}"
            )
            break

    for i in range(spec.r):
        for j in range(i + 1, spec.r):
            if gamma(spec.element(eyes[i]), spec.element(eyes[j])) != 0:
                violations.append(f"generators {i} and {j} do not commute")
    return violations


# ----------------------------------------------------------------------
# Characters
# ----------------------------------------------------------------------


def character_exponent(spec: GottesmanSpec, u, a) -> int:
    """Exponent of chi_u(s_a) = w_q^(u . a), in units of 1/P."""
    u = spec.field.check(np.atleast_1d(np.asarray(u, dtype=np.int64)), "character index")
    a = spec.field.check(np.atleast_1d(np.asarray(a, dtype=np.int64)), "index vector")
    if u.shape != (spec.r,) or a.shape != (spec.r,):
        raise ValueError("character arguments must have length r")
    return (spec.phase_denominator // spec.q) * int((u @ a) % spec.q)


# ----------------------------------------------------------------------
# Low-weight structure: enumeration helpers, purity, forbidden sets
# ----------------------------------------------------------------------


def bounded_pair_arrays(q: int, n: int, w: int, cap: int = ENUMERATION_CAP):
    """All (x, y) pairs with 1 <= wt <= w as two arrays, in canonical order."""
    pairs = list(enumerate_bounded(prime_group(q), n, w, cap=cap))
    if not pairs:
        empty = np.zeros((0, n), dtype=np.int64)
        return empty, empty.copy()
    xs = np.array([p[0] for p in pairs], dtype=np.int64)
    ys = np.array([p[1] for p in pairs], dtype=np.int64)
    return xs, ys


class _ImageSolver:
    """Batched membership/solve for the stacked system [L; M] a = [x; y]."""

    def __init__(self, spec: GottesmanSpec):
        self.spec = spec
        stacked = np.vstack([spec.L, spec.M])
        r, pivots, t = spec.field.rref(stacked)
        self.transform = t
        self.pivots = pivots
        self.nrows = len(pivots)
        self.pivot_cols = np.array(pivots, dtype=np.int64)

    def solve_batch(self, xs: np.ndarray, ys: np.ndarray):
        """For stacked rhs columns, return (solvable mask, solutions matrix)."""
        q = self.spec.q
        rhs = np.hstack([xs, ys]).T  # (2n, count)
        reduced = (self.transform @ rhs) % q
        solvable = ~np.any(reduced[self.nrows :, :], axis=0)
        sols = np.zeros((self.spec.r, rhs.shape[1]), dtype=np.int64)
        sols[self.pivot_cols, :] = reduced[: self.nrows, :]
        return solvable, sols.T


def purity_radius(spec: GottesmanSpec, cutoff: int, cap: int = ENUMERATION_CAP) -> int | None:
    """Minimum weight over nonscalar centralizer elements, if below `cutoff`.

    Returns the smallest w < cutoff such that some (x, y) != 0 of weight w
    satisfies M^T x = L^T y, or None when every nonscalar centralizer
    element has weight >= cutoff (the spec is then `cutoff`-pure).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    xs, ys = bounded_pair_arrays(spec.q, spec.n, min(cutoff - 1, spec.n), cap=cap)
    if xs.shape[0] == 0:
        return None
    syndrome = (xs @ spec.M - ys @ spec.L) % spec.q
    central = ~np.any(syndrome, axis=1)
    if not central.any():
        return None
    weights = np.sum((xs != 0) | (ys != 0), axis=1)
    return int(weights[central].min())


def forbidden_set(spec: GottesmanSpec, d: int, cap: int = ENUMERATION_CAP) -> ForbiddenSet:
    """Character indices L^T y - M^T x over pairs with 0 < wt(x, y) < d.

    Pairs (x, y) lying in the image of a -> (La, Ma) are excluded: those
    correspond to elements of the subgroup closure and are handled by
    `low_weight_members` instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    xs, ys = bounded_pair_arrays(spec.q, spec.n, min(d - 1, spec.n), cap=cap)
    us = np.zeros((0, spec.r), dtype=np.int64)
    if xs.shape[0]:
        in_image, _ = _ImageSolver(spec).solve_batch(xs, ys)
        us = (ys[~in_image] @ spec.L - xs[~in_image] @ spec.M) % spec.q
    return ForbiddenSet(d, spec.q, spec.r, unique_keys(pack_keys(us.T, spec.q, spec.r)))


def low_weight_members(
    spec: GottesmanSpec, w: int, cap: int = ENUMERATION_CAP
) -> list[tuple[tuple, WeylElement]]:
    """All (a, s_a) whose element has weight in [1, w], in canonical order."""
    if w < 0:
        raise ValueError("w must be >= 0")
    if w == 0:
        return []
    xs, ys = bounded_pair_arrays(spec.q, spec.n, min(w, spec.n), cap=cap)
    if xs.shape[0] == 0:
        return []
    solvable, sols = _ImageSolver(spec).solve_batch(xs, ys)
    out = []
    for ok, a in zip(solvable, sols):
        if ok:
            out.append((tuple(map(int, a)), spec.element(a)))
    return out
