"""Independent verification through explicit states.

States are sparse maps from basis words to complex amplitudes, stored as a
sorted array of packed word indices plus an amplitude array; all sums run
in sorted word order so results are bit-stable.  Codewords are built by
applying the code projection to standard basis words, which only needs the
subgroup data; for specs carrying the product-form certificate the closed
form is evaluated as a second, independent path and compared.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fourier_code import FourierDescription, Report, projection_coefficients
from .galois import _exact_product, _remainder, pack, unpack
from .gottesman import GottesmanSpec, bounded_pair_arrays
from .weyl import (
    DENSE_MATRIX_CAP,
    ENUMERATION_CAP,
    GROUP_CAP,
    AlphabetGroup,
    WeylElement,
    check_size,
    root_table,
)

PRUNE_TOL = 1e-14
BASIS_TOL = 1e-10  # codeword basis against the closed form, and its orthonormality


def _shift_phase(words: np.ndarray, x: np.ndarray, y: np.ndarray, q: int):
    """U_x V_y on basis words: packed indices of w + x and exponents y . w mod q.

    Rows broadcast, so one word may meet many (x, y) or many words one (x, y).
    """
    moved = words + x
    moved %= q  # in place: the word rows are the largest array here
    return pack(moved, q), np.einsum("...i,...i->...", words, y) % q


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
    """Read-only copies of sorted unique indices and amplitudes, near-zeros dropped."""
    keep = np.abs(amps) > PRUNE_TOL
    out_packed, out_amps = packed[keep], amps[keep]
    out_packed.setflags(write=False)
    out_amps.setflags(write=False)
    return out_packed, out_amps


@dataclass(frozen=True, eq=False)
class SparseState:
    """Sparse complex state on words of n digits mod q.

    The state is its sorted packed word indices (`galois.pack`) and the
    amplitudes on them; the digit rows are derived.  Packed indices are
    int64, so a word space of more than 2^63 words is refused here rather
    than left to wrap around.
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
    def words(self) -> np.ndarray:
        """Digit rows of the support, one per packed index (read-only)."""
        words = unpack(self.packed, self.group.q, self.n)
        words.setflags(write=False)
        return words

    def items(self):
        for row, amp in zip(self.words, self.amps):
            yield tuple(int(v) for v in row), complex(amp)

    def to_dict(self) -> dict:
        return dict(self.items())

    def __len__(self) -> int:
        return len(self.amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def normalized(self) -> "SparseState":
        nrm = self.norm()
        if nrm < PRUNE_TOL:
            raise ValueError("cannot normalize a (near-)zero state")
        return SparseState._from_packed(self.group, self.n, self.packed, self.amps / nrm)

    def inner(self, other: "SparseState") -> complex:
        """<self | other>, conjugate-linear in self."""
        if self.group != other.group or self.n != other.n:
            raise ValueError("states live on different word spaces")
        _, ia, ib = np.intersect1d(
            self.packed, other.packed, assume_unique=True, return_indices=True
        )
        return complex(np.sum(np.conj(self.amps[ia]) * other.amps[ib]))

    def fidelity(self, other: "SparseState") -> float:
        return abs(self.inner(other))

    def to_dense(self) -> np.ndarray:
        dim = self.group.q**self.n
        check_size("dense dimension", dim, GROUP_CAP)
        out = np.zeros(dim, dtype=complex)
        out[self.packed] = self.amps
        return out


CHUNK_VALUES = 256  # `apply` reads the digits of a key in chunks of at most this many values


@lru_cache(maxsize=None)
def _chunk_digits(q: int) -> np.ndarray:
    """Digit rows of every value of a full chunk, the most digits c with
    q^c <= CHUNK_VALUES (at least one), in key order (read-only)."""
    width = 1
    while q ** (width + 1) <= CHUNK_VALUES:
        width += 1
    digits = unpack(np.arange(q**width), q, width)
    digits.setflags(write=False)
    return digits


def apply(g: WeylElement, state: SparseState) -> SparseState:
    """Monomial action of w^phase U_a V_b: shift by a, multiply by <b, x>.

    The packed indices are read one chunk of digits at a time, and only in
    the chunks where (a, b) is nonzero: one division reads the chunk value,
    and two tables over the chunk's values, built from the cached digit rows
    of `_chunk_digits`, give the change of the index under the shift and the
    chunk's part of the phase exponent b . x.  The element permutes words,
    so no two targets meet: one argsort orders them (a stable one, which is
    the same permutation on unique keys and is faster on the long ascending
    runs that a shift leaves), and adding 0.0 turns -0.0 into +0.0 as the
    merge of `_canonical` does, so that the amplitude bits are the same.
    """
    if g.group != state.group or g.n != state.n:
        raise ValueError("element and state act on different word spaces")
    grp = state.group
    q, p, n = grp.q, grp.phase_denominator, state.n
    table = _chunk_digits(q)
    width = table.shape[1]
    targets = state.packed
    exponents = np.zeros(len(state), dtype=np.int64)
    for hi in range(n, 0, -width):  # the chunk of digits lo .. hi-1
        lo = max(0, hi - width)
        a_c, b_c = g.a[lo:hi], g.b[lo:hi]
        if not (any(a_c) or any(b_c)):
            continue
        digits = table[: q ** (hi - lo), width - (hi - lo) :]  # of each chunk value
        place = q ** (n - hi)
        # the chunk value: no division for the last chunk, no remainder for the first
        value = state.packed // place if place > 1 else state.packed
        if lo:
            value = _remainder(value, len(digits))
        if any(a_c):
            moved = pack(_remainder(digits + a_c, q), q)
            targets = targets + ((moved - np.arange(len(moved))) * place)[value]
        if any(b_c):
            exponents += (digits @ np.array(b_c, dtype=np.int64) * 2)[value]  # <b, x> = w^(2 b.x)
    phases = root_table(p)[_remainder(exponents + g.phase, p)]
    order = np.argsort(targets, kind="stable")
    return SparseState(grp, n, *_pruned(targets[order], (state.amps * phases)[order] + 0.0))


# ----------------------------------------------------------------------
# Codewords
# ----------------------------------------------------------------------


def _spec_tables(spec: GottesmanSpec, group_cap: int = GROUP_CAP):
    """(index rows, U-parts, V-parts, phase exponents) for the whole subgroup."""
    check_size("subgroup size", spec.size, group_cap)
    a_rows = unpack(np.arange(spec.size), spec.q, spec.r)
    la = _remainder(_exact_product(a_rows, spec.L.T), spec.q)
    ma = _remainder(_exact_product(a_rows, spec.M.T), spec.q)
    rho = spec.rho_batch(a_rows)
    return a_rows, la, ma, rho


def codeword(description: FourierDescription, u) -> SparseState:
    """Unit eigenvector of the subgroup with character index u (maximal specs).

    The one-member case of `_projected_basis`.  A maximal spec has as many
    elements as the state has amplitudes, so GROUP_CAP bounds both.
    """
    spec = description.spec
    if tuple(int(v) for v in u) not in description.members:
        raise ValueError("u is not a member of the Fourier description")
    column = _projected_basis(spec, [u], GROUP_CAP)[:, 0]
    return SparseState(spec.group, spec.n, *_pruned(np.arange(len(column)), column))


@lru_cache(maxsize=1)
def _basis_matrix(description: FourierDescription, group_cap: int) -> np.ndarray:
    """The codeword basis as a read-only q^n x K matrix, one column per sorted member.

    Its size is checked against DENSE_MATRIX_CAP^2 entries, the budget of a
    dense projection, before anything is built.  Only the last result is
    kept, so that `kl_check` and `orthonormality_check` on one description
    share a build.
    """
    spec = description.spec
    check_size("codeword basis entries", spec.q**spec.n * len(description), DENSE_MATRIX_CAP**2)
    basis = _projected_basis(spec, description.sorted_members(), group_cap)
    basis.setflags(write=False)
    return basis


def _projected_basis(spec: GottesmanSpec, members, group_cap: int):
    """The codewords of `members` as the columns of a q^n x len(members) matrix.

    The rank-one character projection of member u is applied to standard
    basis words in lexicographic order until its image is nonzero; that
    image, normalized, is u's codeword.  The targets and phases of a word
    are computed once for every member still waiting for one, and each
    member then needs only its character column.  When the spec carries a
    product-form certificate, the closed form is evaluated as an
    independent second path and every column must agree with it within
    BASIS_TOL.
    """
    if not spec.is_maximal():
        raise ValueError("codeword construction requires a maximal spec")
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    a_rows, la, ma, rho = _spec_tables(spec, group_cap)
    roots = root_table(p)
    dim = q**n
    basis = np.zeros((dim, len(members)), dtype=complex)
    pending = list(range(len(members)))
    for word in range(dim):
        if not pending:
            break
        targets, exponents = _shift_phase(unpack([word], q, n)[0], la, ma, q)
        phases = rho + unit * exponents
        waiting = []
        for col in pending:
            chi = unit * ((a_rows @ np.array(members[col], dtype=np.int64)) % q)
            image = np.zeros(dim, dtype=complex)
            np.add.at(image, targets, roots[(phases - chi) % p])
            image /= spec.size
            norm = np.linalg.norm(image)
            if norm > 1e-8:
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
    closed form of its member, where that member has product-form coordinates."""
    by_delta: dict[int, list] = {}
    for col, u in enumerate(members):
        try:
            c_vec, delta = message_coordinates(spec, u)
        except ValueError:
            continue  # no unique product-form coordinates
        by_delta.setdefault(delta, []).append((col, c_vec))
    roots = root_table(spec.q)
    for delta, columns in by_delta.items():
        xs, zs, quad_phase = _closed_form_terms(spec, delta)
        rows = pack(zs, spec.q)
        for col, c_vec in columns:
            amps = quad_phase * np.conj(roots[(xs @ c_vec) % spec.q]) / math.sqrt(len(xs))
            if abs(abs(np.sum(np.conj(basis[rows, col]) * amps)) - 1.0) > BASIS_TOL:
                raise ValueError("projection-built codeword disagrees with the closed form")


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


@lru_cache(maxsize=16)
def sum_zero_words(n: int, q: int) -> np.ndarray:
    """All words in GF(q)^n with zero digit sum, in lexicographic order (read-only)."""
    free = unpack(np.arange(q ** (n - 1)), q, n - 1)
    last = (-free.sum(axis=1)) % q
    words = np.hstack([free, last[:, None]])
    words.setflags(write=False)
    return words


def _closed_form_terms(spec: GottesmanSpec, delta: int):
    """(sum-zero words x, words z = x + delta, w^(z^T Q z)) of the closed form."""
    xs = sum_zero_words(spec.n, spec.q)
    zs = (xs + delta) % spec.q
    quad = (_exact_product(zs, spec.quad_upper) * zs).sum(axis=1) % spec.q
    return xs, zs, root_table(spec.q)[quad]


def closed_form_codeword(spec: GottesmanSpec, u) -> SparseState:
    """Codeword of a product-form spec, from its explicit amplitude formula:

        sum over sum-zero x of  w^((x+d)^T Q (x+d)) conj(w)^(x . c) |x + d>

    normalized, with Q the certificate matrix and (c, d = delta * ones)
    the product-form coordinates of u.
    """
    c_vec, delta = message_coordinates(spec, u)
    xs, zs, quad_phase = _closed_form_terms(spec, delta)
    lin = (xs @ c_vec) % spec.q
    amps = quad_phase * np.conj(root_table(spec.q)[lin]) / math.sqrt(len(xs))
    return SparseState.from_pairs(spec.group, spec.n, zs, amps)


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
    deviation = np.abs(pgp - np.trace(pgp) / trace * projection).max()
    return {"value": float(deviation)} if deviation > tol else None


def _reduced_screen(basis, q, m, supports, tol):
    """Mask of the errors that the reduced matrices on m-subsets of digits clear.

    For a set T of m digits, reorder the words so that T's digits come last:
    the basis becomes A_T with q^(n-m) rows and q^m K columns, and
    R_T = A_T^H A_T has entries R_T[(a, u), (b, v)] = sum over the words w
    off T of conj(phi_u(a, w)) phi_v(b, w).  It is formed as one real
    product Z_T^T Z_T of the float view Z_T of A_T, which interleaves the
    real and imaginary parts of each column, so that BLAS runs a symmetric
    rank-k update; Re R_T and Im R_T are read from its 2 x 2 blocks as
    re.re + im.im and re.im - im.re.  T is clean when every block
    R_T[:, u, :, v] is within eps = tol / (2 q^m) of delta_uv R_T[:, 0, :, 0].
    An error is cleared when its support, a row of `supports`, lies in a
    clean T.

    Why eps is safe: an error E supported on T acts as E_T on T's digits,
    and E_T is monomial, with q^m entries of unit modulus at (a, pi(a)).  So
    <phi_u| E |phi_v> = sum over a of E_T[a, pi(a)] R_T[(a, u), (pi(a), v)],
    and on a clean T each Gram is within q^m eps = tol / 2 of c I, with c
    the same sum over R_T[:, 0, :, 0].  The other tol / 2 covers rounding,
    so a cleared error passes `_gram_witness` at `tol`.  The real product
    sums the very products that the complex one does, only grouped
    differently, so each entry of R_T differs from A_T^H A_T by rounding
    alone: at most about q^(n-m) units of 2^-53 times the sum of the
    moduli of its terms, which is at most 1 for unit columns.  Under the
    group cap that is below 1e-11, far inside tol / 2.

    A code that passes has K <= q^(n - 2m), the quantum Singleton bound.
    Beyond it nothing is screened, and R_T, with q^(2m) K^2 entries, is
    never larger than the basis.  A 1 x 1 Gram always passes.
    """
    n = supports.shape[1]
    kk = basis.shape[1]
    cleared = np.full(len(supports), kk == 1)
    if kk == 1 or 2 * m > n or kk > q ** (n - 2 * m):
        return cleared
    side = q**m
    columns = side * kk
    tensor = basis.view(np.float64).reshape((q,) * n + (2 * kk,))
    identity = np.eye(kk)[:, None, :]
    for subset in itertools.combinations(range(n), m):
        rest = [k for k in range(n) if k not in subset]
        z_t = tensor.transpose(rest + list(subset) + [n]).reshape(-1, 2 * columns)
        blocks = (z_t.T @ z_t).reshape(columns, 2, columns, 2)
        real = blocks[:, 0, :, 0] + blocks[:, 1, :, 1]
        imag = blocks[:, 0, :, 1] - blocks[:, 1, :, 0]
        reduced = (real + 1j * imag).reshape(side, kk, side, kk)
        if np.abs(reduced - reduced[:, :1, :, :1] * identity).max() <= tol / (2 * side):
            cleared |= ~supports[:, rest].any(axis=1)
    return cleared


def kl_check(
    description: FourierDescription,
    d: int,
    tol: float = 1e-9,
    cap: int = ENUMERATION_CAP,
    group_cap: int = GROUP_CAP,
) -> Report:
    """Direct check that every error of weight < d is detected.

    For each error g and the codeword basis {phi_u}, the matrix of
    <phi_u| g |phi_v> must be a constant multiple of the identity within
    `tol`.  Maximal specs use the explicit codeword basis: `_reduced_screen`
    clears the errors on the clean (d-1)-subsets of digits, and the rest are
    checked one at a time, in canonical order, under `tol`.  Non-maximal
    specs check P g P = phi(g) P on the dense projection, error by error.
    `cap` bounds the error enumeration and `group_cap` the subgroup tables;
    both are checked, like the dense-matrix cap of the projection and the
    entry cap of the codeword basis, before any state is built.
    """
    spec = description.spec
    q, n = spec.q, spec.n
    m = min(d - 1, n)
    xs, ys = bounded_pair_arrays(q, n, m, cap=cap)
    check_size("subgroup size", spec.size, group_cap)
    maximal = spec.is_maximal()
    if maximal:
        members = description.sorted_members()
        operand = _basis_matrix(description, group_cap)
        suspects = ~_reduced_screen(operand, q, m, (xs != 0) | (ys != 0), tol)
    else:
        operand = dense_projection(description)
        trace = np.trace(operand).real
        suspects = np.ones(len(xs), dtype=bool)
    if suspects.any():
        digits = unpack(np.arange(q**n), q, n)
    roots = root_table(q)
    for x, y in zip(xs[suspects], ys[suspects]):
        targets, exponents = _shift_phase(digits, x, y, q)
        moved = np.zeros_like(operand)
        moved[targets] = roots[exponents][:, None] * operand  # g @ operand
        if maximal:
            found = _gram_witness(operand, moved, members, tol)
        else:
            found = _projection_witness(operand, moved, trace, tol)
        if found is not None:
            return Report(False, witness={"error": {"x": x.tolist(), "y": y.tolist()}, **found})
    counts = {"errors": int(xs.shape[0])}
    if maximal:
        counts["pairs"] = len(members) ** 2
    return Report(True, counts=counts)


def dense_projection(description: FourierDescription) -> np.ndarray:
    """The code projection as a dense matrix (small n only)."""
    spec = description.spec
    q, n, p = spec.q, spec.n, spec.phase_denominator
    dim = q**n
    check_size("dense dimension", dim, DENSE_MATRIX_CAP)
    coeffs = projection_coefficients(description)
    _, la, ma, rho = _spec_tables(spec)  # rows in the order of the coefficients
    roots = root_table(p)
    digits = unpack(np.arange(dim), q, n)
    unit = p // q
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for t_a, x, y, phase in zip(coeffs.values(), la, ma, rho):
        if abs(t_a) < PRUNE_TOL:
            continue
        rows, exponents = _shift_phase(digits, x, y, q)
        out[rows, cols] += t_a * roots[(phase + unit * exponents) % p]
    return out


def orthonormality_check(description: FourierDescription, group_cap: int = GROUP_CAP) -> Report:
    """Gram matrix of the codeword basis must be the identity within BASIS_TOL."""
    members = description.sorted_members()
    basis = _basis_matrix(description, group_cap)
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
