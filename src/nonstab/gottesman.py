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
from functools import cached_property, lru_cache

import numpy as np

from .galois import (
    PRODUCT_ROWS,
    PrimeField,
    _exact_product,
    _remainder,
    error_sphere_count,
    pack,
    places,
    unique_keys,
)
from .weyl import AlphabetGroup, WeylElement, check_sphere, prime_group


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
    then, for odd q, on the pairs (e_i, (q-1) e_i), with no table of pairs:
    (e_i, e_j) holds exactly when (D + D^T - 2g)[i, j] = 0 mod 2q.  Reducing
    s = v1 + v2 mod q subtracts q c for a carry vector c, and then the defect
    of (v1, v2) is q^2 c^T D c - q c^T (D + D^T) s mod 2q.  The second term is
    2q times an integer.  For q = 2 the first is 4 c^T D c, so nothing more
    can fail.  For odd q it is q (c^T D c) mod 2q, and c^T D c is even for
    every c exactly when every diagonal entry of D is even; (e_i, (q-1) e_i)
    has c = e_i, so it fails exactly when D[i, i] is odd.  The cocycle thus
    holds on all pairs exactly when it holds on the pairs checked.
    """
    violations: list[str] = []
    q, r = spec.q, spec.r
    f = spec.field
    g = f.matmul(spec.L.T, spec.M)
    if not np.array_equal(g, g.T):
        violations.append("L^T M is not symmetric")

    if len(_image_reduction(spec)[0]) != r:
        violations.append("a -> (La, Ma) is not injective (scalar elements present)")

    eyes = np.eye(r, dtype=np.int64)
    p = spec.phase_denominator
    failing = [(eyes[i], eyes[j]) for i, j in np.argwhere((spec.D + spec.D.T - 2 * g) % p)[:1]]
    if q % 2:
        failing += [(eyes[i], (q - 1) * eyes[i]) for i in np.flatnonzero(np.diag(spec.D) % 2)[:1]]
    if failing:
        v1, v2 = failing[0]
        violations.append(f"phase cocycle fails at v1={v1.tolist()}, v2={v2.tolist()}")

    commutators = np.triu((g.T - g) % q, 1)
    for i, j in np.argwhere(commutators).tolist():
        violations.append(f"generators {i} and {j} do not commute")
    return violations


# ----------------------------------------------------------------------
# Low-weight structure: enumeration helpers, purity, forbidden sets
# ----------------------------------------------------------------------


def bounded_pair_arrays(q: int, n: int, w: int):
    """All (x, y) word pairs with 1 <= wt(x, y) <= w, as two int64 arrays of rows.

    Order is canonical: by weight, then support positions, then the
    per-position digit pairs (x, y) != (0, 0) in lexicographic order.  Each
    (weight, support) block is filled by indexing, once the range and the
    budget are checked.
    """
    if w < 0 or w > n:
        raise ValueError(f"need 0 <= w <= n, got w={w}, n={n}")
    check_sphere(n, q, w)
    xs = np.zeros((error_sphere_count(n, q, w) - 1, n), dtype=np.int64)
    ys = np.zeros_like(xs)
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


@lru_cache(maxsize=1)
def _image_reduction(spec: GottesmanSpec) -> tuple[np.ndarray, np.ndarray]:
    """(pivot columns, T) of the row reduction T [L; M] = R over GF(q), read-only.

    `validate` reads the rank and `_sphere` the transform.  Only the last
    spec's reduction is kept: it is shared along one call chain, such as
    the validation and the error sphere of one `verify`, and never read
    for another spec.
    """
    _, pivots, transform = spec.field.rref(np.vstack([spec.L, spec.M]))
    pivots = np.array(pivots, dtype=np.int64)
    pivots.setflags(write=False)
    transform.setflags(write=False)
    return pivots, transform


def _sphere(spec: GottesmanSpec, w: int):
    """The pairs (x, y) with 1 <= wt <= min(w, n), in canonical order, with
    their syndrome shifts and their image solve.

    Returns (xs, ys, in_image, members, shift_keys): the pairs, whether each
    is (La, Ma) for some a, the solutions a of the pairs in the image (one
    row each, in pair order), and the packed keys of the shifts M^T x - L^T y.

    With T the transform of the reduction of [L; M] (T [L; M] in RREF), a
    pair is in the image exactly when T [x; y] mod q vanishes below the
    rank, and then its first entries are the pivot coordinates of the
    solution.  Shift and solve are both linear in [x; y], so one exact
    product [x y] [M; -L | T^T] and one remainder give both.  It runs over
    blocks of PRODUCT_ROWS pairs, and each block keeps only what callers
    read, so no N x (r + 2n) image is ever held.
    """
    q, n, r = spec.q, spec.n, spec.r
    xs, ys = bounded_pair_arrays(q, n, min(w, n))
    pivots, transform = _image_reduction(spec)
    rank = len(pivots)
    operator = np.hstack([np.vstack([spec.M, -spec.L]), transform.T])
    in_image = np.empty(len(xs), dtype=bool)
    shift_keys = np.empty(len(xs), dtype=places(q, r).dtype)
    solved = [np.empty((0, rank), dtype=np.int64)]
    for start in range(0, len(xs), PRODUCT_ROWS):
        block = slice(start, start + PRODUCT_ROWS)
        image = _remainder(_exact_product(np.hstack([xs[block], ys[block]]), operator), q)
        shift_keys[block] = pack(image[:, :r], q)
        inside = ~image[:, r + rank :].any(axis=1)
        in_image[block] = inside
        solved.append(image[inside, r : r + rank])
    solved = np.vstack(solved)
    members = np.zeros((len(solved), r), dtype=np.int64)
    members[:, pivots] = solved
    return xs, ys, in_image, members, shift_keys


def _forbidden_keys(shift_keys: np.ndarray, in_image: np.ndarray) -> np.ndarray:
    """Sorted unique syndrome shift keys (`_sphere`) of the pairs outside the image.

    The pairs outside the image are closed under negation, so these are
    also the keys of L^T y - M^T x over them, the forbidden indices.
    """
    return unique_keys(shift_keys[~in_image])


def purity_radius(spec: GottesmanSpec, cutoff: int) -> int | None:
    """Minimum weight over nonscalar centralizer elements, if below `cutoff`.

    Returns the smallest w < cutoff such that some (x, y) != 0 of weight w
    satisfies M^T x = L^T y, or None when every nonscalar centralizer
    element has weight >= cutoff (the spec is then `cutoff`-pure).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    xs, ys, _, _, shift_keys = _sphere(spec, cutoff - 1)
    central = np.flatnonzero(shift_keys == 0)
    if not central.size:
        return None
    return int(np.count_nonzero(xs[central[0]] | ys[central[0]]))  # pairs are in weight order


def forbidden_set(spec: GottesmanSpec, d: int) -> np.ndarray:
    """Sorted unique packed keys (`galois.pack`) of the character indices
    L^T y - M^T x over pairs with 0 < wt(x, y) < d.

    Pairs (x, y) lying in the image of a -> (La, Ma) are excluded: those
    correspond to elements of the subgroup closure and are handled by
    `low_weight_members` instead.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    _, _, in_image, _, shift_keys = _sphere(spec, d - 1)
    return _forbidden_keys(shift_keys, in_image)


def low_weight_members(spec: GottesmanSpec, w: int) -> list[tuple[tuple, WeylElement]]:
    """All (a, s_a) whose element has weight in [1, w], in canonical order."""
    if w < 0:
        raise ValueError("w must be >= 0")
    members = _sphere(spec, w)[3]
    return [(tuple(a), spec.element(a)) for a in members.tolist()]
