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
with matrices as row-major lists of integer rows.  Loading refuses, with a
one-line ValueError, any entry that is not an integer (booleans and floats
included), L, M and quad_upper entries outside [0, q), D entries outside
[0, 2q), and "n" or "r" fields that do not match L.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .galois import PrimeField, pack, unique_keys, unpack
from .weyl import ENUMERATION_CAP, AlphabetGroup, WeylElement, bounded_pairs, prime_group


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.int64)
    out.setflags(write=False)
    return out


def json_integer(value, name: str) -> int:
    """A JSON integer field; booleans and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def json_matrix(rows, name: str, bound: int, shape: tuple | None = None) -> np.ndarray:
    """A JSON matrix of integers in [0, bound), as int64, of `shape` if given.

    One array conversion decides the shape and the type: floats, strings,
    ragged rows and integers beyond int64 do not give a signed integer
    array.  Booleans do (numpy casts them to int), so they are looked for
    among the entries' types.
    """
    try:
        arr = np.array(rows)
    except ValueError:
        arr = None
    if arr is not None and arr.ndim == 2 and arr.size == 0:
        arr = arr.astype(np.int64)
    if (
        arr is None
        or arr.ndim != 2
        or (shape is not None and arr.shape != shape)
        or arr.dtype.kind != "i"
        or bool in set(map(type, itertools.chain.from_iterable(rows)))
        or (arr.size and (arr.min() < 0 or arr.max() >= bound))
    ):
        form = "a matrix of" if shape is None else f"{shape[0]} rows of {shape[1]}"
        raise ValueError(f"{name} must hold {form} integers in [0, {bound})")
    return arr


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
        return ((a_rows @ self.D) * a_rows).sum(axis=1) % self.phase_denominator

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GottesmanSpec":
        q = json_integer(doc["q"], "spec q")
        PrimeField(q)  # refuses a q that is not prime
        l_mat = json_matrix(doc["L"], "spec L", q)
        n, r = l_mat.shape
        for key, size in (("n", n), ("r", r)):
            if key in doc and json_integer(doc[key], f"spec {key}") != size:
                raise ValueError(f"spec {key}={doc[key]} does not match L, which is {n} x {r}")
        quad_upper = doc.get("quad_upper")
        if quad_upper is not None:
            quad_upper = json_matrix(quad_upper, "spec quad_upper", q, (n, n))
        if "phase_denominator" in doc:
            if json_integer(doc["phase_denominator"], "spec phase_denominator") != 2 * q:
                raise ValueError("phase denominator must equal 2q")
        return cls(
            q=q,
            L=l_mat,
            M=json_matrix(doc["M"], "spec M", q, (n, r)),
            D=json_matrix(doc["D"], "spec D", 2 * q, (r, r)),
            quad_upper=quad_upper,
        )


@dataclass(frozen=True, eq=False)
class ForbiddenSet:
    """Character indices that the difference set of a code must avoid.

    Stored as the sorted unique packed keys of `galois.pack`; the tuple views
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
        return unpack(self.keys, self.q, self.r)

    def weights(self) -> set:
        return set(np.count_nonzero(self.rows(), axis=1).tolist())

    def sorted_members(self) -> list:
        return list(map(tuple, self.rows().tolist()))


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def validate(spec: GottesmanSpec) -> list[str]:
    """Check the spec invariants; returns a list of violations (empty = valid).

    Checks: symmetry of L^T M, injectivity of a -> (La, Ma) (which also
    rules out nontrivial scalars in S), the phase cocycle, and
    commutativity of the generators.  The commutator phase of s_{e_i} and
    s_{e_j} is 2 (M^T L - L^T M)[i, j] mod 2q, so generators i and j
    commute exactly when that entry of (g^T - g) mod q vanishes, g = L^T M.
    rho(0) = 0^T D 0 = 0 always, so the identity needs no check.

    The cocycle rho(v1 + v2) - rho(v1) - rho(v2) = 2 (v1^T g v2) mod 2q is
    checked exactly, on the basis pairs (e_i, e_j) in row-major order and
    then, for odd q, on the pairs (e_i, (q-1) e_i).  The basis pairs hold
    exactly when D + D^T = 2g mod 2q.  Reducing s = v1 + v2 mod q subtracts
    q c for a carry vector c, and then the defect of (v1, v2) is
    q^2 c^T D c - q c^T (D + D^T) s mod 2q.  The second term is 2q times an
    integer.  For q = 2 the first is 4 c^T D c, so nothing more can fail.
    For odd q it is q (c^T D c) mod 2q, and c^T D c is even for every c
    exactly when every diagonal entry of D is even; (e_i, (q-1) e_i) has
    c = e_i, so it fails exactly when D[i, i] is odd.  The cocycle thus
    holds on all pairs exactly when it holds on the pairs checked.
    """
    violations: list[str] = []
    q, r = spec.q, spec.r
    f = spec.field
    g = f.matmul(spec.L.T, spec.M)
    if not np.array_equal(g, g.T):
        violations.append("L^T M is not symmetric")

    stacked = np.vstack([spec.L, spec.M])
    if f.rank(stacked) != r:
        violations.append("a -> (La, Ma) is not injective (scalar elements present)")

    eyes = np.eye(r, dtype=np.int64)
    v1 = np.repeat(eyes, r, axis=0)
    v2 = np.tile(eyes, (r, 1))
    if q % 2:
        v1, v2 = np.vstack([v1, eyes]), np.vstack([v2, (q - 1) * eyes])
    p = spec.phase_denominator
    rho = spec.rho_batch(np.vstack([(v1 + v2) % q, v1, v2])).reshape(3, -1)
    lhs = (rho[0] - rho[1] - rho[2]) % p
    rhs = (p // q) * (((v1 @ g) * v2).sum(axis=1) % q)
    failing = np.flatnonzero(lhs != rhs)
    if failing.size:
        k = failing[0]
        violations.append(f"phase cocycle fails at v1={v1[k].tolist()}, v2={v2[k].tolist()}")

    commutators = np.triu((g.T - g) % q, 1)
    for i, j in np.argwhere(commutators).tolist():
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
    return bounded_pairs(q, n, w, cap)


def _split_sphere(spec: GottesmanSpec, w: int, cap: int):
    """The pairs (x, y) with 1 <= wt <= w and their solves of [L; M] a = [x; y].

    One enumeration and one reduction of [L; M]: returns (xs, ys, in_image,
    solutions), where row i of `solutions` solves the system for pair i
    wherever `in_image[i]`.  Nothing is kept after the call.
    """
    xs, ys = bounded_pair_arrays(spec.q, spec.n, w, cap=cap)
    _, pivots, transform = spec.field.rref(np.vstack([spec.L, spec.M]))
    reduced = (transform @ np.hstack([xs, ys]).T) % spec.q
    in_image = ~np.any(reduced[len(pivots) :, :], axis=0)
    solutions = np.zeros((spec.r, xs.shape[0]), dtype=np.int64)
    solutions[pivots, :] = reduced[: len(pivots), :]
    return xs, ys, in_image, solutions.T


def syndrome_shifts(spec: GottesmanSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """M^T x - L^T y mod q for each error pair (x, y), one row per pair.

    The error U_x V_y moves the syndrome of the codeword with character
    index u to u + M^T x - L^T y; a zero shift means that the error commutes
    with every element of S.
    """
    return (xs @ spec.M - ys @ spec.L) % spec.q


def _forbidden_keys(spec: GottesmanSpec, shifts: np.ndarray, in_image: np.ndarray) -> np.ndarray:
    """Sorted unique keys of the syndrome shifts of the pairs outside the image.

    The pairs outside the image are closed under negation, so these are
    also the keys of L^T y - M^T x over them, the forbidden indices.
    """
    return unique_keys(pack(shifts[~in_image], spec.q))


def purity_radius(spec: GottesmanSpec, cutoff: int, cap: int = ENUMERATION_CAP) -> int | None:
    """Minimum weight over nonscalar centralizer elements, if below `cutoff`.

    Returns the smallest w < cutoff such that some (x, y) != 0 of weight w
    satisfies M^T x = L^T y, or None when every nonscalar centralizer
    element has weight >= cutoff (the spec is then `cutoff`-pure).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    xs, ys = bounded_pair_arrays(spec.q, spec.n, min(cutoff - 1, spec.n), cap=cap)
    central = ~np.any(syndrome_shifts(spec, xs, ys), axis=1)
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
    xs, ys, in_image, _ = _split_sphere(spec, min(d - 1, spec.n), cap)
    keys = _forbidden_keys(spec, syndrome_shifts(spec, xs, ys), in_image)
    return ForbiddenSet(d, spec.q, spec.r, keys)


def low_weight_members(
    spec: GottesmanSpec, w: int, cap: int = ENUMERATION_CAP
) -> list[tuple[tuple, WeylElement]]:
    """All (a, s_a) whose element has weight in [1, w], in canonical order."""
    if w < 0:
        raise ValueError("w must be >= 0")
    _, _, in_image, solutions = _split_sphere(spec, min(w, spec.n), cap)
    return [(tuple(a), spec.element(a)) for a in solutions[in_image].tolist()]
