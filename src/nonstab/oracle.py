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

from .fourier_code import FourierDescription, Report, code_dimension, projection_coefficients
from .galois import _characters, _exact_product, _remainder, _weyl_action, pack, places, unpack
from .gottesman import GottesmanSpec, bounded_pair_arrays
from .weyl import DENSE_MATRIX_CAP, AlphabetGroup, WeylElement, check_size, root_table

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

    def __len__(self) -> int:
        return len(self.amps)

    def inner(self, other: "SparseState") -> complex:
        """<self | other>, conjugate-linear in self."""
        if self.group != other.group or self.n != other.n:
            raise ValueError("states live on different word spaces")
        ib = np.searchsorted(other.packed, self.packed)  # sorted unique keys: pairs in order
        ia = np.flatnonzero(other.packed.take(ib, mode="clip") == self.packed) if len(other) else []
        return complex(np.sum(np.conj(self.amps[ia]) * other.amps[ib[ia]]))

    def fidelity(self, other: "SparseState") -> float:
        return abs(self.inner(other))


def apply(g: WeylElement, state: SparseState) -> SparseState:
    """Monomial action of w^phase U_a V_b: shift by a, multiply by <b, x>.

    `_weyl_action` gives the targets and b . x, and <b, x> = w^(2 b . x).
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
    targets, exponents = _weyl_action(state.packed, g.a, g.b, grp.q, state.n)
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
    larger budget is refused under a smaller one."""
    q = spec.q
    a_rows = unpack(np.arange(spec.size), q, spec.r)
    la, ma = (pack(_remainder(_exact_product(a_rows, part.T), q), q) for part in (spec.L, spec.M))
    keys = la, ma, spec.rho_batch(a_rows)
    for arr in keys:
        arr.setflags(write=False)
    return keys


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
    column = _projected_basis(spec, [u])[0][:, 0]
    return SparseState(spec.group, spec.n, *_pruned(np.arange(len(column)), column))


def _basis_matrix(description: FourierDescription) -> tuple[np.ndarray, np.ndarray]:
    """The codewords of `_projected_basis` as a read-only matrix, and their
    least words (maximal specs).

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
def _cached_basis(description: FourierDescription) -> tuple[np.ndarray, np.ndarray]:
    basis, least = _projected_basis(description.spec, description.sorted_members())
    basis.setflags(write=False)
    least.setflags(write=False)
    return basis, least


def _projected_basis(spec: GottesmanSpec, members):
    """The codewords of `members` over a maximal spec, as the columns of a
    matrix in the order given, and the digit rows of the words w of its columns.

    Each column is P_u e_w, normalized, for a member u and the first standard
    basis word w, in lexicographic order, on which the character projection
    P_u is nonzero.  P_u s_a = chi_u(s_a) P_u, so P_u maps the words of a
    coset w + X(S) of the shifts X(S) = {La} to multiples of one vector,
    supported on the coset: w is the least word of the column's coset.
    The shared keys of `_subgroup_keys` and the characters u . a of
    `galois._characters` are read, and the targets and phases of a word are
    computed once for every member still waiting for one.  When the spec
    carries a product-form certificate, the closed form is evaluated as an
    independent second path and every column must agree with it within
    BASIS_TOL.
    """
    check_size("subgroup size", spec.size, "group")
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    la, ma, rho = _subgroup_keys(spec)
    zero, chis = np.zeros(n, dtype=np.int64), _characters(members, q, n)  # r = n digits
    roots = root_table(p)
    dim = q**n
    basis = np.zeros((dim, len(members)), dtype=complex)
    least = np.zeros((len(members), n), dtype=np.int64)
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
                basis[support, col], least[col] = amps, w
            else:
                waiting.append(col)
        pending = waiting
    if pending:
        raise ValueError("projection vanished on every basis word (invalid spec?)")
    if spec.quad_upper is not None:
        _check_closed_form(spec, members, basis)
    return basis, least


def _coset_basis(spec: GottesmanSpec, members) -> np.ndarray:
    """An orthonormal basis of the code space of `members` over a non-maximal
    spec: P_u e_w, normalized, for each member u and each coset w + X(S) on
    which P_u is nonzero (see `_projected_basis`), cosets in order.

    With R the reduced row echelon form of L^T, whose k nonzero rows span
    X(S), subtracting multiples of R's rows can zero a word's digits at the
    pivots of R without touching an earlier digit.  So the least word of
    each coset is its one word with zeros at the pivots, and the words of a
    coset are that word plus the combinations of R's rows, in lexicographic
    order of the coefficients, which are the pivot digits of the shift.

    s_a e_w = w^rho(a) <Ma, w> e_(w + La), so the amplitude of P_u e_w at
    w + x is the sum over the elements with La = x of
    w^rho(a) <Ma, w> conj(chi_u(s_a)) / #S: grouping the elements by shift
    makes these sums, for every member and every least word, one batched
    matrix product.  Columns of different cosets have disjoint supports,
    and columns of different members are orthogonal, since P_u P_v = 0.
    """
    check_size("subgroup size", spec.size, "group")
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    la, ma, rho = _subgroup_keys(spec)
    reduced, pivots = _shift_echelon(spec)
    k = len(pivots)
    free = [i for i in range(n) if i not in pivots]
    least = np.zeros((q ** (n - k), n), dtype=np.int64)
    least[:, free] = unpack(np.arange(q ** (n - k)), q, n - k)
    shifts = _remainder(unpack(np.arange(q**k), q, k) @ reduced, q)
    words = pack(_remainder(least[:, None, :] + shifts, q), q)  # coset by coset
    # shifts sort by key as by their pivot digits (docstring): a row of elements per shift
    by_shift = np.argsort(la, kind="stable").reshape(q**k, -1)
    roots = root_table(p)
    free_digits = _remainder(ma[:, None] // places(q, n)[free], q)  # least words are 0 at pivots
    exponents = _remainder(rho + unit * _exact_product(least[:, free], free_digits.T), p)
    terms = roots[exponents][:, by_shift].transpose(1, 0, 2)  # shift, least word, element
    chi = _characters(members, q, spec.r)
    conj_chi = roots[_remainder(-unit * chi, p)][:, by_shift].transpose(1, 2, 0)
    images = np.matmul(terms, conj_chi) / spec.size  # shift, least word, member
    norms = np.linalg.norm(images, axis=0)
    nonzero = norms > VANISHING  # least word, member
    if not nonzero.any(axis=0).all():
        raise ValueError("projection vanished on every basis word (invalid spec?)")
    member, coset = np.nonzero(nonzero.T)
    basis = np.zeros((q**n, len(member)), dtype=complex)
    basis[words[coset].T, np.arange(len(member))] = images[:, coset, member] / norms[coset, member]
    return basis


@lru_cache(maxsize=1)
def _shift_echelon(spec: GottesmanSpec) -> tuple[np.ndarray, tuple]:
    """(R, pivots): the nonzero rows of the RREF of L^T, which span X(S), and their pivots."""
    reduced, pivots, _ = spec.field.rref(spec.L.T)
    reduced = reduced[: len(pivots)]
    reduced.setflags(write=False)
    return reduced, tuple(pivots)


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
        cols, c_vecs = zip(*columns)
        lins = _remainder(_exact_product(xs, np.column_stack(c_vecs)), spec.q)
        for col, lin in zip(cols, lins.T):
            amps = quad_phase * np.conj(roots[lin]) / math.sqrt(len(xs))
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


def _frame(floats, q, cosets, dropped):
    """(frame, keys) of `_reduced_screen`: `floats` at its columns' coset words, without
    the digits `dropped`, and their packed dropped digits; an axis per kept digit."""
    shifts, pivots, least = cosets
    n, kk, dropped = shifts.shape[1], len(least), list(dropped)
    values = np.arange(q, dtype=np.int64)
    words = np.zeros(1, dtype=np.int64)  # the kept digits, packed
    offsets = np.zeros((1, len(dropped)), dtype=np.int64)  # (w_P R)_D
    kept = [i for i in range(n) if i not in dropped]
    for i in kept:
        words = (words[:, None] + values * q ** (n - 1 - i)).ravel()
        step = shifts[pivots.index(i), dropped] if i in pivots else 0
        offsets = (offsets[:, None, :] + values[:, None] * step).reshape(-1, len(dropped))
    digits = _remainder(offsets[:, None, :] + least[:, dropped], q)
    keys = digits @ q ** (n - 1 - np.array(dropped, dtype=np.int64))
    width = floats.shape[1] // kk
    frame = floats[np.repeat(words[:, None] + keys, width, axis=1), np.arange(width * kk)]
    return frame.reshape((q,) * len(kept) + (-1,)), keys.reshape((q,) * len(kept) + (-1,))


def _reduced_screen(basis, q, m, supports, tol, cosets=None):
    """Mask of the errors that the reduced matrices on m-subsets of digits clear.

    For a set T of m digits, reorder the words so that T's digits come last:
    the basis becomes A_T with q^(n-m) rows and q^m K columns, and
    R_T = A_T^H A_T has entries R_T[(a, u), (b, v)] = sum over the words w
    off T of conj(phi_u(a, w)) phi_v(b, w).  T is clean when every block
    R_T[:, u, :, v] is within eps = tol / (2 q^m) of delta_uv R_T[:, 0, :, 0],
    and an error is cleared when its support, a row of `supports`, lies in
    a clean T.  R_T is one real product Z_T^T Z_T, a symmetric rank-k update
    in BLAS, of a float view Z_T of A_T with `width` floats per column.

    Coset frames.  With `cosets` = (R, P, least), column j is zero off the
    coset least[j] + X(S): R spans X(S) in reduced echelon form with pivot
    digits P (`_shift_echelon`), and least[j] is zero at P.  On the coset the
    free digits are fixed, w_F = least[j]_F + w_P R_F, so A_T leaves out the
    digits D = F - T: the frame is the basis gathered at those coset words,
    and C_T, the frame with T's digits last, has q^|D| times fewer rows.  A
    row of C_T stands for one word per column, whose D digits are
    kappa(a, u) = least[u]_D + a_P R_D, a_P the pivot digits of T, plus a
    part shared by every column; so R_T = [kappa(a, u) = kappa(b, v)]
    C_T^H C_T.  One frame serves every T with the same D.  Each column is
    exactly 0.0 off its coset, so an entry that the mask zeroes sums only
    exact zeros in the dense product, and every other entry sums the same
    nonzero products in another order: the bounds below hold as they stand.

    With sigma = |Im V|_F, a basis with 6 sigma < eps is real but for
    rounding (code15's imaginary parts are below 1e-18), and Z_T = Re A_T, a
    quarter of the flops.  T is then clean at eps - 6 sigma: columns c_i of
    A_T with |c_i| <= 1 and |Im c_i| <= sigma have |c_i^H c_j - Re c_i .
    Re c_j| <= 3 sigma, so each entry of the test moves by at most 6 sigma.
    Otherwise Z_T interleaves Re and Im of each column, and Re R_T, Im R_T
    are read from its 2 x 2 blocks as re.re + im.im and re.im - im.re.

    Why eps is safe: an error E supported on T acts as E_T on T's digits,
    and E_T is monomial, with q^m entries of unit modulus at (a, pi(a)).  So
    <phi_u| E |phi_v> = sum over a of E_T[a, pi(a)] R_T[(a, u), (pi(a), v)],
    and on a clean T each Gram is within q^m eps = tol / 2 of c I, with c
    the same sum over R_T[:, 0, :, 0].  The other tol / 2 covers rounding,
    so a cleared error passes `_gram_witness` at `tol`: an entry of R_T is
    off by at most about q^(n-m) units of 2^-53 times the sum of the moduli
    of its products, at most 1 for unit columns, which under the group cap
    is below 1e-11.  A code that passes has K <= q^(n - 2m), the quantum
    Singleton bound: beyond it nothing is screened, and R_T, with
    q^(2m) K^2 entries, is never larger than the basis.  A 1 x 1 Gram
    always passes.
    """
    n = supports.shape[1]
    kk = basis.shape[1]
    cleared = np.full(len(supports), kk == 1)
    if kk == 1 or 2 * m > n or kk > q ** (n - 2 * m):
        return cleared
    side = q**m
    columns = side * kk
    eps = tol / (2 * side)
    sigma = np.linalg.norm(basis.imag)
    if 6 * sigma < eps:  # a real basis but for rounding: Z_T = Re A_T
        width, eps = 1, eps - 6 * sigma
        floats = np.ascontiguousarray(basis.real)  # a strided view copies slower
    else:
        width, floats = 2, basis.view(np.float64)
    identity = np.eye(kk)[:, None, :]
    free = [] if cosets is None else [i for i in range(n) if i not in cosets[1]]
    by_frame: dict[tuple, list] = {}
    for subset in itertools.combinations(range(n), m):
        by_frame.setdefault(tuple(i for i in free if i not in subset), []).append(subset)
    for dropped, subsets in by_frame.items():
        if dropped:
            tensor, keys = _frame(floats, q, cosets, dropped)
        else:
            tensor, keys = floats.reshape((q,) * n + (width * kk,)), None
        axis = {digit: k for k, digit in enumerate(i for i in range(n) if i not in dropped)}
        for subset in subsets:
            rest = [k for k in range(n) if k not in subset]
            order = [axis[k] for k in rest + list(subset) if k in axis] + [len(axis)]
            z_t = tensor.transpose(order).reshape(-1, width * columns)
            blocks = (z_t.T @ z_t).reshape(columns, width, columns, width)
            real = np.trace(blocks, axis1=1, axis2=3)
            imag = blocks[:, 0, :, -1] - blocks[:, -1, :, 0]  # zero when width is 1
            reduced = real + 1j * imag
            if keys is not None:  # zero where kappa(a, u) != kappa(b, v)
                kappa = keys.transpose(order)[(0,) * (len(order) - m - 1)].ravel()
                reduced *= kappa[:, None] == kappa
            reduced = reduced.reshape(side, kk, side, kk)
            if np.abs(reduced - reduced[:, :1, :, :1] * identity).max() <= eps:
                cleared |= ~supports[:, rest].any(axis=1)
        del tensor, keys  # released before the next frame is gathered
    return cleared


def _weyl_times(x, y, operand, q):
    """U_x V_y @ operand on the dense word space."""
    targets, exponents = _weyl_action(np.arange(len(operand)), x, y, q, len(x))
    moved = np.zeros_like(operand)
    moved[targets] = root_table(q)[_remainder(exponents, q)][:, None] * operand
    return moved


def _scalar_prefix(basis, xs, ys, q, tol) -> int:
    """How many of the errors, in order, have a Gram G = V^H E V within tol
    of c I, c = tr G / K', with K' the number of columns of V."""
    adjoint = basis.conj().T
    identity = np.eye(basis.shape[1])
    for count, (x, y) in enumerate(zip(xs, ys)):
        gram = adjoint @ _weyl_times(x, y, basis, q)
        if np.abs(gram - np.trace(gram) / len(gram) * identity).max() > tol:
            return count
    return len(xs)


def kl_check(description: FourierDescription, d: int) -> Report:
    """Direct check that every error of weight < d is detected.

    For each error E and an orthonormal basis V of the code space, the Gram
    V^H E V must be a constant multiple c I of the identity.  The errors are
    checked in canonical order, a maximal spec by `_maximal_failure` and any
    other by `_nonmaximal_failure`, and the first that fails is the witness.
    Every cap, of the budget or fixed, is checked before any state is built.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    spec = description.spec
    m = min(d - 1, spec.n)
    xs, ys = bounded_pair_arrays(spec.q, spec.n, m)
    check_size("subgroup size", spec.size, "group")
    if spec.is_maximal():
        failure = _maximal_failure(description, xs, ys, m)
        counts = {"errors": len(xs), "pairs": len(description) ** 2}
    else:
        failure = _nonmaximal_failure(description, xs, ys)
        counts = {"errors": len(xs)}
    if failure is None:
        return Report(True, counts=counts)
    x, y, found = failure
    return Report(False, witness={"error": {"x": x.tolist(), "y": y.tolist()}, **found})


def _maximal_failure(description: FourierDescription, xs, ys, m: int):
    """(x, y, witness) of the first error whose Gram on the codewords fails
    `_gram_witness`, or None.  `_reduced_screen` first clears the errors on
    the clean m-subsets of digits, using coset frames beyond DENSE_MATRIX_CAP
    words (below it their bookkeeping costs more than the dense R_T saved)."""
    spec = description.spec
    q, members = spec.q, description.sorted_members()
    basis, least = _basis_matrix(description)
    cosets = (*_shift_echelon(spec), least) if q**spec.n > DENSE_MATRIX_CAP else None
    cleared = _reduced_screen(basis, q, m, (xs != 0) | (ys != 0), KL_TOL, cosets)
    for x, y in zip(xs[~cleared], ys[~cleared]):
        found = _gram_witness(basis, _weyl_times(x, y, basis, q), members, KL_TOL)
        if found is not None:
            return x, y, found
    return None


def _nonmaximal_failure(description: FourierDescription, xs, ys):
    """(x, y, witness) of the first error where P E P = phi(E) P fails on the
    dense projection P within KL_TOL, by `_projection_witness`, or None.

    V is the basis of `_coset_basis`, with K' columns, and P = V V^H.
    `_scalar_prefix` passes the errors while each Gram is within
    KL_TOL / (2 K') of c I, c = tr(V^H E V) / K'.  From the first that is
    not, a failure but for rounding at the bound, V is released and the rest
    are checked on P, so that verdicts and witnesses are bit for bit those
    of that check alone, and V and P are never held at once.

    Why the bound holds: tr(P E P) = tr(V^H E V) and tr P = K', so
    phi(E) = c, and P E P - c P = V X V^H with X = V^H E V - c I.  Its
    entry (i, j) is the sum over k, l of V_ik X_kl conj(V_jl), of modulus
    at most max|X| (sum_k |V_ik|) (sum_l |V_jl|) <= max|X| K' |V_i| |V_j|
    by Cauchy-Schwarz, where the rows V_i of V have norm at most 1, being
    the square roots of the diagonal of P.  A Gram within KL_TOL / K' of
    c I thus keeps P E P within KL_TOL of c P.  The rounding of the two
    paths, of the order of q^n units of 2^-53, is far inside that.
    """
    spec = description.spec
    q = spec.q
    # not cached, so that it can be released before the dense projection is built
    check_size("dense dimension", q**spec.n, DENSE_MATRIX_CAP)
    basis = _coset_basis(spec, description.sorted_members())
    first = _scalar_prefix(basis, xs, ys, q, KL_TOL / (2 * basis.shape[1]))
    if first == len(xs):
        return None
    del basis
    projection = dense_projection(description)
    trace = np.trace(projection).real
    for x, y in zip(xs[first:], ys[first:]):
        found = _projection_witness(projection, _weyl_times(x, y, projection, q), trace, KL_TOL)
        if found is not None:
            return x, y, found
    return None


def dense_projection(description: FourierDescription) -> np.ndarray:
    """The code projection as a dense matrix (small n only)."""
    spec = description.spec
    q, n, p = spec.q, spec.n, spec.phase_denominator
    dim = q**n
    check_size("dense dimension", dim, DENSE_MATRIX_CAP)
    coeffs = list(projection_coefficients(description).values())  # checks the group budget
    la, ma, rho = _subgroup_keys(spec)  # in element index order, as the coefficients
    kept = [i for i, t_a in enumerate(coeffs) if abs(t_a) >= PRUNE_TOL]
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
    basis = _basis_matrix(description)[0]
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
