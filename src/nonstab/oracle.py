"""Independent verification through explicit states.

States are sparse maps from basis words to complex amplitudes, stored as a
sorted array of packed word indices plus an amplitude array; all sums run
in sorted word order so results are bit-stable.  Codewords are built by
applying the code projection to standard basis words, which only needs the
subgroup data; for specs carrying the product-form certificate the closed
form is evaluated as a second, independent path and compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fourier_code import FourierDescription, Report, _member_characters, code_dimension
from .fourier_code import projection_coefficients
from .galois import _characters, _chunk_digits, _chunk_layout, _chunk_values, _digit, _half_digits
from .galois import _key_differences, _quadratic_table, _remainder, _weyl_action, error_sphere_count
from .galois import pack, unpack
from .gottesman import GottesmanSpec, _sphere
from .weyl import DENSE_MATRIX_CAP, AlphabetGroup, WeylElement, check_size, check_sphere, root_table

PRUNE_TOL = 1e-14
VANISHING = 1e-8  # norm below which a projected basis word counts as zero
BASIS_TOL = 1e-10  # codeword basis against the closed form, and its orthonormality
KL_TOL = 1e-9  # of every Knill-Laflamme Gram and projection test


def _canonical(packed: np.ndarray, amps: np.ndarray):
    """Sorted unique packed indices with their merged amplitudes, near-zeros pruned.

    Equal indices are summed in input order, so the amplitude bits depend
    only on the order of the rows handed in.
    """
    uniq, inverse = np.unique(packed, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=complex)
    np.add.at(merged, inverse, amps)
    return _pruned(uniq, merged)


def _pruned(packed: np.ndarray, amps: np.ndarray):
    """Sorted unique indices and amplitudes, near-zeros dropped, read-only: the
    inputs themselves when nothing is dropped, so callers hand in fresh arrays."""
    keep = np.abs(amps) > PRUNE_TOL
    out_packed, out_amps = (packed, amps) if keep.all() else (packed[keep], amps[keep])
    out_packed.setflags(write=False)
    out_amps.setflags(write=False)
    return out_packed, out_amps


@dataclass(frozen=True, eq=False)
class SparseState:
    """Sparse complex state on words of n digits mod q.

    The state is its sorted packed word indices (`galois.pack`) and the
    amplitudes on them; `galois.unpack` gives the digit rows.  Packed
    indices are int64, so a word space of more than 2^63 words is refused
    here rather than left to wrap around.
    """

    group: AlphabetGroup
    n: int
    packed: np.ndarray  # int64, sorted and unique
    amps: np.ndarray  # complex128

    def __post_init__(self) -> None:
        q = self.group.q
        if q**self.n > 2**63:
            raise ValueError(f"packed index overflows int64: {q}^{self.n} words exceed 2^63")

    @classmethod
    def from_pairs(cls, group: AlphabetGroup, n: int, words, amps) -> "SparseState":
        """Canonical state: duplicate words merged, near-zeros pruned, sorted."""
        words = np.array(words, dtype=np.int64).reshape(-1, n) % group.q
        amps = np.asarray(amps, dtype=complex).ravel()
        if words.shape[0] != amps.shape[0]:
            raise ValueError("words and amplitudes differ in length")
        return cls._from_packed(group, n, pack(words, group.q), amps)

    @classmethod
    def _from_packed(cls, group: AlphabetGroup, n: int, packed, amps) -> "SparseState":
        return cls(group, n, *_canonical(packed, amps))

    @classmethod
    def basis_word(cls, group: AlphabetGroup, word) -> "SparseState":
        word = group.word(word)
        return cls.from_pairs(group, len(word), [word], [1.0])

    @cached_property
    def _key_chunks(self) -> list:
        """The `galois._chunk_values` of the support, for every `apply` to this state."""
        return _chunk_values(self.packed, self.group.q, self.n)

    def __len__(self) -> int:
        return len(self.amps)

    def inner(self, other: "SparseState") -> complex:
        """<self | other>, conjugate-linear in self."""
        if self.group != other.group or self.n != other.n:
            raise ValueError("states live on different word spaces")
        if np.array_equal(self.packed, other.packed):  # the same pairs, without the search
            return complex(np.sum(np.conj(self.amps) * other.amps))
        ib = np.searchsorted(other.packed, self.packed)  # sorted unique keys: pairs in order
        ia = np.flatnonzero(other.packed.take(ib, mode="clip") == self.packed) if len(other) else []
        return complex(np.sum(np.conj(self.amps[ia]) * other.amps[ib[ia]]))

    def fidelity(self, other: "SparseState") -> float:
        return abs(self.inner(other))


def apply(g: WeylElement, state: SparseState) -> SparseState:
    """Monomial action of w^phase U_a V_b: shift by a, multiply by <b, x>.

    `_weyl_action` gives the targets and b . x, and <b, x> = w^(2 b . x),
    from the chunk values of the support, which a state reads once for
    every element applied to it (the generators of a syndrome, say).
    The element permutes words, so no two targets meet: one argsort orders
    them (a stable one, which is the same permutation on unique keys and is
    faster on the long ascending runs that a shift leaves), and adding 0.0
    turns -0.0 into +0.0 as the merge of `_canonical` does, so that the
    amplitude bits are the same.
    """
    if g.group != state.group or g.n != state.n:
        raise ValueError("element and state act on different word spaces")
    grp = state.group
    p = grp.phase_denominator
    targets, exponents = _weyl_action(state.packed, g.a, g.b, grp.q, state.n, state._key_chunks)
    phases = root_table(p)[_remainder(2 * exponents + g.phase, p)]
    order = np.argsort(targets, kind="stable")
    return SparseState(grp, state.n, *_pruned(targets[order], (state.amps * phases)[order] + 0.0))


# ----------------------------------------------------------------------
# Codewords
# ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def _subgroup_keys(spec: GottesmanSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(packed La, packed Ma, rho(a)) in element index order, read-only: the one
    table of the subgroup, kept for the readers of the last spec to share.
    Readers check the `group` budget first, so that a table built under a
    larger budget is refused under a smaller one.  With a split into halves
    (hi, lo) (`galois._half_digits`), La = L_hi hi - (-L_lo lo) is keyed by
    `_key_differences` from one product of each half with [L | M] (Ma
    likewise), and rho(a) is the `_quadratic_table` of D."""
    q, n, h = spec.q, spec.n, spec.r // 2
    hi, lo = _half_digits(q, spec.r)
    lm = np.hstack([spec.L.T, spec.M.T])  # row k: L e_k, then M e_k
    halves = _remainder(hi @ lm[:h], q), _remainder(lo @ -lm[h:], q)
    la, ma = (
        _key_differences(*(_chunk_values(pack(half[:, part], q), q, n) for half in halves), q, n).ravel()
        for part in (slice(0, n), slice(n, None))
    )
    rho = _quadratic_table(spec.D, q, spec.phase_denominator).ravel()
    for arr in (la, ma, rho):
        arr.setflags(write=False)
    return la, ma, rho


def codeword(description: FourierDescription, u) -> SparseState:
    """Unit eigenvector of the subgroup with character index u (maximal specs).

    The one-member case of `_projected_basis`, on the spec's shared table.  A
    maximal spec has as many elements as the state has amplitudes, so the
    budget's `group` bounds both.
    """
    spec = description.spec
    if tuple(int(v) for v in u) not in description.members:
        raise ValueError("u is not a member of the Fourier description")
    if not spec.is_maximal():
        raise ValueError("codeword construction requires a maximal spec")
    check_size("subgroup size", spec.size, "group")  # before the q^n characters are held
    column = _projected_basis(spec, [u], _characters([u], spec.q, spec.n))[:, 0]
    return SparseState(spec.group, spec.n, *_pruned(np.arange(len(column)), column))


def _basis_matrix(description: FourierDescription) -> np.ndarray:
    """The codewords of `_projected_basis` as a read-only matrix (maximal specs).

    Its q^n x K entries are checked against DENSE_MATRIX_CAP^2, the size of
    a dense projection, and the subgroup against the budget, before the
    cache is read: a basis built under a larger budget is refused under a
    smaller one.  Only the last basis is kept, for `kl_check` and
    `orthonormality_check` on one description to share.
    """
    spec = description.spec
    check_size("codeword basis entries", spec.q**spec.n * code_dimension(description), DENSE_MATRIX_CAP**2)
    check_size("subgroup size", spec.size, "group")
    return _cached_basis(description)


@lru_cache(maxsize=1)
def _cached_basis(description: FourierDescription) -> np.ndarray:
    basis = _projected_basis(description.spec, description.sorted_members(), _member_characters(description))
    basis.setflags(write=False)
    return basis


def _projected_basis(spec: GottesmanSpec, members, chis: np.ndarray) -> np.ndarray:
    """The codewords of `members` over a maximal spec, as the columns of a
    matrix in the order given; `chis` are their `galois._characters`.

    Each column is P_u e_w, normalized, for a member u and the first standard
    basis word w, in lexicographic order, on which the character projection
    P_u is nonzero.  The shared keys of `_subgroup_keys` are read, and the
    targets and phases of a word are computed once for every member still
    waiting for one.  When the spec carries a product-form certificate, the
    closed form is evaluated as an independent second path and every column
    must agree with it within BASIS_TOL.
    """
    check_size("subgroup size", spec.size, "group")
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    la, ma, rho = _subgroup_keys(spec)
    zero, roots = np.zeros(n, dtype=np.int64), root_table(p)
    dim = q**n
    basis = np.zeros((dim, len(members)), dtype=complex)
    pending = list(range(len(members)))
    for word in range(dim):
        if not pending:
            break
        # s_a e_w = w^rho(a) <Ma, w> e_(w + La): U_w shifts the keys of La
        # to the targets, and V_w phases the keys of Ma
        w = unpack([word], q, n)[0]
        targets = _weyl_action(la, w, zero, q, n)[0]
        phases = rho + unit * _weyl_action(ma, zero, w, q, n)[1]
        waiting = []
        for col in pending:
            image = np.zeros(dim, dtype=complex)
            np.add.at(image, targets, roots[_remainder(phases - unit * chis[col], p)])
            image /= spec.size
            norm = np.linalg.norm(image)
            if norm > VANISHING:
                support = np.nonzero(np.abs(image) > PRUNE_TOL)[0]
                support, amps = _pruned(support, image[support] / norm)
                basis[support, col] = amps
            else:
                waiting.append(col)
        pending = waiting
    if pending:
        raise ValueError("projection vanished on every basis word (invalid spec?)")
    if spec.quad_upper is not None:
        _check_closed_form(spec, members, basis)
    return basis


def _check_closed_form(spec: GottesmanSpec, members, basis: np.ndarray) -> None:
    """Every column of `basis` must have fidelity 1 within BASIS_TOL with the
    closed form of its member, where that member has product-form coordinates
    (c, delta): the sum over sum-zero x of w^(z^T Q z) conj(w)^(x . c) |z>,
    z = x + delta 1, normalized, with the keys of z from `_weyl_action`."""
    q, n, quad = spec.q, spec.n, _closed_form_exponents(spec)
    roots = root_table(q)
    hi, lo = _half_digits(q, n - 1)  # x: n - 1 free digits f, then -sum(f)
    sums = (hi.sum(axis=1)[:, None] + lo.sum(axis=1)).ravel()
    xs = np.arange(len(sums)) * q + _remainder(-sums, q)
    for col, u in enumerate(members):
        try:
            c_vec, delta = message_coordinates(spec, u)
        except ValueError:
            continue  # no unique product-form coordinates
        rows, lin = _weyl_action(xs, np.full(n, delta), c_vec, q, n)
        amps = roots[quad[rows]] * np.conj(roots[_remainder(lin, q)]) / math.sqrt(len(xs))
        if abs(abs(np.sum(np.conj(basis[rows, col]) * amps)) - 1.0) > BASIS_TOL:
            raise ValueError("projection-built codeword disagrees with the closed form")


@lru_cache(maxsize=1)
def _closed_form_exponents(spec: GottesmanSpec) -> np.ndarray:
    """z^T Q z mod q for every word z in key order, read-only, for the last spec's codewords."""
    exponents = _quadratic_table(spec.quad_upper, spec.q, spec.q).ravel()
    exponents.setflags(write=False)
    return exponents


def message_coordinates(spec: GottesmanSpec, u) -> tuple[np.ndarray, int]:
    """Express a character index as product-form coordinates (c, delta).

    Solves u = L^T c + delta * w with c in the sum-zero code, where w is
    determined by the V-part offset of the spec.  Requires the certificate
    and a unique solution (fails when q divides the digit count).  The
    system is reduced once per spec; only the right-hand side depends on u.
    """
    q, n = spec.q, spec.n
    transform, pivots = _product_form_reduction(spec)
    tb = (transform @ np.concatenate([np.array(u, dtype=np.int64) % q, [0]])) % q
    if np.any(tb[len(pivots) :]):
        raise ValueError("character has no product-form coordinates")
    if len(pivots) < n + 1:
        raise ValueError(
            "product-form coordinates are not unique (degenerate: q divides n)"
        )
    x = np.zeros(n + 1, dtype=np.int64)
    x[pivots] = tb[: len(pivots)]
    return x[:n], int(x[n])


@lru_cache(maxsize=1)
def _product_form_reduction(spec: GottesmanSpec) -> tuple[np.ndarray, np.ndarray]:
    """(T, pivot columns) of the row reduction T A = R of the product-form
    system A = [[L^T, w], [1 ... 1, 0]] of `message_coordinates`, read-only."""
    if spec.quad_upper is None:
        raise ValueError("spec does not carry a product-form certificate")
    q, n = spec.q, spec.n
    l7 = (spec.quad_upper + spec.quad_upper.T) % q
    w_vec = ((spec.M - (l7 @ spec.L) % q).T @ np.ones(n, dtype=np.int64)) % q
    system = np.zeros((n + 1, n + 1), dtype=np.int64)
    system[:n, :n] = spec.L.T
    system[:n, n] = w_vec
    system[n, :n] = 1
    _, pivots, transform = spec.field.rref(system)
    pivots = np.array(pivots, dtype=np.int64)
    transform.setflags(write=False)
    pivots.setflags(write=False)
    return transform, pivots


# ----------------------------------------------------------------------
# Knill-Laflamme checks
# ----------------------------------------------------------------------


def _gram_witness(basis, moved, members, tol):
    """Where <phi_u| g |phi_v> is not a multiple of the identity, if anywhere."""
    gram = basis.conj().T @ moved
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    bad_off = np.abs(off) > tol
    spread = np.abs(diag - diag[0])
    if bad_off.any():
        i, j = np.argwhere(bad_off)[0]
        value = off[i, j]
    elif spread.max() > tol:
        i = j = int(np.argmax(spread))
        value = diag[j]
    else:
        return None
    return {
        "u": list(members[i]),
        "v": list(members[j]),
        "value": [float(value.real), float(value.imag)],
    }


def _projection_witness(projection, moved, trace, tol):
    """The deviation of P g P from phi(g) P, if beyond tol."""
    pgp = projection @ moved
    pgp -= np.trace(pgp) / trace * projection  # in place: one dense matrix fewer
    deviation = np.abs(pgp).max()
    return {"value": float(deviation)} if deviation > tol else None


def _weyl_times(x, y, operand, q):
    """U_x V_y @ operand on the dense word space."""
    targets, exponents = _weyl_action(np.arange(len(operand)), x, y, q, len(x))
    moved = np.zeros_like(operand)
    moved[targets] = root_table(q)[_remainder(exponents, q)][:, None] * operand
    return moved


def kl_check(description: FourierDescription, d: int) -> Report:
    """Exact decision that every error of weight < d is detected, then a walk
    to the first error that fails on state vectors.

    The code projection is P = sum over a of t_a s_a, with t_a = F(a) / #S
    and F(a) = sum over u in B of conj chi_u(s_a) (`projection_coefficients`),
    and K = tr P is the dimension.  For a Weyl error E and X = P E P,
    Cauchy-Schwarz gives |tr X|^2 = |tr(P X)|^2 <= K tr(X^H X), with
    equality exactly when X = c P, c = tr(X) / K; the gap is the residual
    ||X - c P||_F^2 = tr(E^H P E P) - |tr(E P)|^2 / K.  Summed over the
    errors of weight j, the two sides are the Shor-Laflamme enumerators of
    P: with alpha_w the sum of |F(a)|^2 over the elements s_a of weight w,
    the sum of |tr(E P)|^2 is q^(2n) alpha_j / #S^2, and that of
    tr(E^H P E P) is q^n / #S^2 times the sum over w of alpha_w K_j(w), K_j
    the Krawtchouk polynomial over q^2 letters.  So every error of weight j
    has P E P = c P exactly when q^n alpha_j = K sum_w alpha_w K_j(w).  That
    is an identity of integers (`_enumerator`), decided with no tolerance.

    At the least j < d where it fails, `_first_failure` walks the errors of
    weight up to j in canonical order.  The identity holds at every weight
    below j and each residual is >= 0, so every lighter error has residual
    0.  The errors whose residual is not 0 are exactly those that break
    condition 1 or 2 of `fourier_code`, which the walk flags from exact
    integer sets; the rest are skipped: every entry of the Gram V^H E V - c I
    on the codeword basis V (`_gram_witness`, maximal specs), and of
    P E P - c P on the dense projection (`_projection_witness`, any other
    spec), is then rounding, since the largest entry of a matrix is at most
    its Frobenius norm, and both are isometric images of X - c P.  The
    flagged errors are confirmed on those states, and the first that fails
    within KL_TOL is the witness that the walk over every error would find.
    When none fails, the identity and KL_TOL disagree, and a ValueError
    says so.  Every cap, of the budget or fixed, is checked before anything
    is built.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    spec = description.spec
    q, n = spec.q, spec.n
    m = min(d - 1, n)
    check_sphere(n, q, m)
    check_size("subgroup size", spec.size, "group")
    counts = {"errors": error_sphere_count(n, q, m) - 1}
    dim = code_dimension(description)
    if spec.is_maximal():
        check_size("codeword basis entries", q**n * dim, DENSE_MATRIX_CAP**2)
        counts["pairs"] = len(description) ** 2
    else:
        check_size("dense dimension", q**n, DENSE_MATRIX_CAP)
    weights = _weights(spec)  # builds the subgroup table before the characters are held
    alpha = _enumerator(_member_characters(description), weights, q, n)
    failing = (
        j for j in range(1, m + 1)
        if q**n * alpha[j] != dim * sum(a * _krawtchouk(j, w, q * q, n) for w, a in enumerate(alpha))
    )
    weight = next(failing, None)
    if weight is None:
        return Report(True, counts=counts)
    x, y, found = _first_failure(description, weight)
    return Report(False, witness={"error": {"x": x.tolist(), "y": y.tolist()}, **found})


def _krawtchouk(j: int, w: int, letters: int, n: int) -> int:
    """K_j(w) over an alphabet of `letters` letters, words of length n."""
    return sum(
        (-1) ** s * (letters - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
        for s in range(j + 1)
    )


COUNT_BLOCK = 2**16  # character counts c_k(a) that `_enumerator` holds at once


def _enumerator(chars: np.ndarray, weights: np.ndarray, q: int, n: int) -> list[int]:
    """alpha_w for w = 0 .. n, exactly: the sum of |F(a)|^2 over the elements
    s_a of weight w, with `chars` the characters u . a of the members and
    `weights` those of the elements (`_weights`).

    With c_k(a) the number of members u with u . a = k mod q,
    F(a) = sum over k of c_k(a) conj(w_q)^k, so |F(a)|^2 is the sum over m of
    R_m(a) w_q^m, R_m(a) = sum over k of c_k(a) c_(k+m)(a).  A weight class
    is closed under a -> c a for c != 0, which takes R_m to R_(m / c): over
    the class every R_m with m != 0 has the same sum, and the w_q^m with
    m != 0 sum to -1.  So alpha_w is the sum over the class of
    c_k (c_k - c_(k+1)), an integer: for q = 2 it is F(a)^2.  The counts are
    taken for COUNT_BLOCK / q elements at a time.
    """
    size = len(weights)
    terms = np.empty(size, dtype=np.int64)
    step = max(1, COUNT_BLOCK // q)
    for start in range(0, size, step):
        block = chars[:, start : start + step]
        width = block.shape[1]
        counts = np.bincount((block + q * np.arange(width)).ravel(), minlength=q * width)
        counts = counts.reshape(width, q)
        terms[start : start + width] = (counts * (counts - np.roll(counts, -1, axis=1))).sum(axis=1)
    alpha = np.zeros(n + 1, dtype=np.int64)
    np.add.at(alpha, weights, terms)
    return alpha.tolist()


def _weights(spec: GottesmanSpec) -> np.ndarray:
    """The weight of every element s_a, the digits where La or Ma is nonzero,
    read from the keys of `_subgroup_keys` one chunk of `_chunk_layout` at a
    time: a bit per nonzero digit of each chunk value, and the bits of the
    two keys' values counted."""
    q, n = spec.q, spec.n
    la, ma, _ = _subgroup_keys(spec)
    weights = np.zeros(len(la), dtype=np.int64)
    ones = np.count_nonzero(_chunk_digits(2), axis=1)  # the bits set in each value below 2^8
    for place, size, span in _chunk_layout(q, n):
        width = span.stop - span.start
        bits = pack(_chunk_digits(q)[:size, -width:] != 0, 2)  # below 2^8: width <= 8
        weights += ones[bits[_digit(la, place, size)] | bits[_digit(ma, place, size)]]
    return weights


def _first_failure(description: FourierDescription, j: int):
    """(x, y, witness) of the first error of weight j that fails on state
    vectors, confirming only the errors whose residual is not 0 (`kl_check`).

    E = U_x V_y takes s_a to E^H s_a E = w_q^(+-a . sigma) s_a, with sigma =
    M^T x - L^T y its syndrome shift, and tr(s_a s_b) = q^n when a + b = 0,
    else 0.  So the residual is

        q^n / (K #S^2) (K G(sigma) - q^n |F(a_E)|^2),

    with G(sigma) #S times the number of pairs (u, v) in B^2 with v - u =
    sigma, and F(a_E) present only when E = U_La V_Ma for an element a_E.
    Then sigma = 0 and K G(0) = q^n #B^2, so the residual is 0 exactly when
    |F(a_E)| = #B, when u . a is the same for every member u.  So it is not
    0 exactly when E breaks condition 1 of `fourier_code` (E is such an
    element, u . a not constant on B) or condition 2 (E is not one, and
    sigma is in B - B), read as exact integer sets from one
    `gottesman._sphere` pass as `verify_distance` reads them.  No pair of
    weight below j is flagged, as its residual is 0.
    """
    spec = description.spec
    q = spec.q
    xs, ys, in_image, elements, shifts = _sphere(spec, j)
    flagged = np.isin(shifts, description.difference_keys())
    values = (description.member_array @ elements.T) % q
    flagged[np.flatnonzero(in_image)[(values == values[:1]).all(axis=0)]] = False
    if spec.is_maximal():
        basis, members = _basis_matrix(description), description.sorted_members()

        def confirm(x, y):
            return _gram_witness(basis, _weyl_times(x, y, basis, q), members, KL_TOL)
    else:
        projection = dense_projection(description)
        trace = np.trace(projection).real

        def confirm(x, y):
            return _projection_witness(projection, _weyl_times(x, y, projection, q), trace, KL_TOL)
    for x, y in zip(xs[flagged], ys[flagged]):
        found = confirm(x, y)
        if found is not None:
            return x, y, found
    raise ValueError(
        f"the weight enumerators fail at weight {j}, but no error of weight {j} fails within KL_TOL"
    )


def dense_projection(description: FourierDescription) -> np.ndarray:
    """The code projection as a dense matrix (small n only)."""
    spec = description.spec
    q, n, p = spec.q, spec.n, spec.phase_denominator
    dim = q**n
    check_size("dense dimension", dim, DENSE_MATRIX_CAP)
    coeffs = projection_coefficients(description)  # checks the group budget
    la, ma, rho = _subgroup_keys(spec)  # in element index order, as the coefficients
    kept = np.flatnonzero(np.abs(coeffs) >= PRUNE_TOL)
    roots = root_table(p)
    unit = p // q
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for i, x, y in zip(kept, unpack(la[kept], q, n), unpack(ma[kept], q, n)):
        rows, exponents = _weyl_action(cols, x, y, q, n)
        out[rows, cols] += coeffs[i] * roots[(rho[i] + unit * exponents) % p]
    return out


def orthonormality_check(description: FourierDescription) -> Report:
    """Gram matrix of the codeword basis must be the identity within BASIS_TOL (maximal specs)."""
    if not description.spec.is_maximal():
        raise ValueError("codeword construction requires a maximal spec")
    members = description.sorted_members()
    basis = _basis_matrix(description)
    gram = basis.conj().T @ basis
    deviation = np.abs(gram - np.eye(len(members)))
    if deviation.max() > BASIS_TOL:
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        return Report(
            False,
            witness={"u": list(members[i]), "v": list(members[j]),
                     "value": [float(gram[i, j].real), float(gram[i, j].imag)]},
        )
    return Report(True, counts={"codewords": len(members)})
