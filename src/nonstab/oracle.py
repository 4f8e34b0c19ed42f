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
from .galois import linear_solve
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
# Complex values in one chunk of the batched Knill-Laflamme Gram.
GRAM_CHUNK = 2**16


@lru_cache(maxsize=None)
def _powers(q: int, width: int) -> np.ndarray:
    """Place values q^(width-1), ..., q, 1 of a packed word index.

    Packed indices are int64, so a word space of more than 2^63 words is
    refused here rather than left to wrap around.
    """
    if q**width > 2**63:
        raise ValueError(f"packed index overflows int64: {q}^{width} words exceed 2^63")
    powers = q ** np.arange(width - 1, -1, -1, dtype=np.int64)
    powers.setflags(write=False)
    return powers


def _digits(packed: np.ndarray, q: int, width: int) -> np.ndarray:
    """Digit rows of packed word indices."""
    digits = packed[:, None] // _powers(q, width)
    digits %= q
    return digits


def _shift_phase(words: np.ndarray, x: np.ndarray, y: np.ndarray, q: int):
    """U_x V_y on basis words: packed indices of w + x and exponents y . w mod q.

    Rows broadcast, so one word may meet many (x, y) or many words one (x, y).
    """
    targets = ((words + x) % q) @ _powers(q, words.shape[-1])
    return targets, np.einsum("...i,...i->...", words, y) % q


@dataclass(frozen=True, eq=False)
class SparseState:
    """Sparse complex state on words of n digits mod q."""

    group: AlphabetGroup
    n: int
    words: np.ndarray  # (count, n), rows sorted by packed index
    amps: np.ndarray  # complex128

    @classmethod
    def from_pairs(cls, group: AlphabetGroup, n: int, words, amps) -> "SparseState":
        """Canonical state: duplicate words merged, near-zeros pruned, sorted."""
        words = np.array(words, dtype=np.int64).reshape(-1, n) % group.q
        amps = np.asarray(amps, dtype=complex).ravel()
        if words.shape[0] != amps.shape[0]:
            raise ValueError("words and amplitudes differ in length")
        return cls._from_packed(group, n, words @ _powers(group.q, n), amps)

    @classmethod
    def _from_packed(cls, group: AlphabetGroup, n: int, packed, amps) -> "SparseState":
        uniq, inverse = np.unique(packed, return_inverse=True)
        merged = np.zeros(len(uniq), dtype=complex)
        np.add.at(merged, inverse, amps)
        keep = np.abs(merged) > PRUNE_TOL
        out_words = _digits(uniq[keep], group.q, n)
        out_amps = merged[keep]
        out_words.setflags(write=False)
        out_amps.setflags(write=False)
        return cls(group, n, out_words, out_amps)

    @classmethod
    def from_dict(cls, group: AlphabetGroup, n: int, mapping: dict) -> "SparseState":
        words = list(mapping.keys())
        amps = [mapping[w] for w in words]
        return cls.from_pairs(group, n, np.array(words).reshape(-1, n), amps)

    @classmethod
    def basis_word(cls, group: AlphabetGroup, word) -> "SparseState":
        word = group.word(word)
        return cls.from_pairs(group, len(word), [word], [1.0])

    @cached_property
    def packed(self) -> np.ndarray:
        return self.words @ _powers(self.group.q, self.n)

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
        return SparseState.from_pairs(self.group, self.n, self.words, self.amps / nrm)

    def scaled(self, factor: complex) -> "SparseState":
        return SparseState.from_pairs(self.group, self.n, self.words, self.amps * factor)

    def inner(self, other: "SparseState") -> complex:
        """<self | other>, conjugate-linear in self."""
        if self.group != other.group or self.n != other.n:
            raise ValueError("states live on different word spaces")
        common, ia, ib = np.intersect1d(
            self.packed, other.packed, assume_unique=True, return_indices=True
        )
        if not len(common):
            return 0.0 + 0.0j
        return complex(np.sum(np.conj(self.amps[ia]) * other.amps[ib]))

    def fidelity(self, other: "SparseState") -> float:
        return abs(self.inner(other))

    def to_dense(self) -> np.ndarray:
        dim = self.group.q**self.n
        check_size("dense dimension", dim, GROUP_CAP)
        out = np.zeros(dim, dtype=complex)
        out[self.packed] = self.amps
        return out


def apply(g: WeylElement, state: SparseState) -> SparseState:
    """Monomial action of w^phase U_a V_b: shift by a, multiply by <b, x>."""
    if g.group != state.group or g.n != state.n:
        raise ValueError("element and state act on different word spaces")
    grp = state.group
    p = grp.phase_denominator
    targets, exponents = _shift_phase(state.words, np.array(g.a), np.array(g.b), grp.q)
    phases = root_table(p)[(g.phase + 2 * exponents) % p]  # <b, x> = w^(2 b.x)
    return SparseState._from_packed(grp, state.n, targets, state.amps * phases)


# ----------------------------------------------------------------------
# Codewords
# ----------------------------------------------------------------------


def _spec_tables(spec: GottesmanSpec, group_cap: int = GROUP_CAP):
    """(index rows, U-parts, V-parts, phase exponents) for the whole subgroup."""
    check_size("subgroup size", spec.size, group_cap)
    a_rows = _digits(np.arange(spec.q**spec.r), spec.q, spec.r)
    la = (a_rows @ spec.L.T) % spec.q
    ma = (a_rows @ spec.M.T) % spec.q
    rho = spec.rho_batch(a_rows)
    return a_rows, la, ma, rho


def codeword(
    description: FourierDescription,
    u,
    closed_form_tol: float = 1e-10,
    group_cap: int = GROUP_CAP,
) -> SparseState:
    """Unit eigenvector of the subgroup with character index u (maximal specs).

    Built by applying the rank-one character projection to standard basis
    words, in lexicographic order, until a nonzero image appears.  When the
    spec carries a product-form certificate, the closed form is computed as
    an independent second path and the two must agree.  A maximal spec has
    as many elements as the state has amplitudes, so `group_cap` bounds both.
    """
    spec = description.spec
    if tuple(int(v) for v in u) not in description.members:
        raise ValueError("u is not a member of the Fourier description")
    _require_maximal(spec)
    return _project(spec, _spec_tables(spec, group_cap), u, closed_form_tol)


def _codeword_basis(description: FourierDescription, group_cap: int = GROUP_CAP):
    """`codeword(description, u)` for each sorted member u, from one subgroup table.

    A generator, so that a caller which copies each state into a matrix
    never holds them all.
    """
    spec = description.spec
    _require_maximal(spec)
    tables = _spec_tables(spec, group_cap)
    for u in description.sorted_members():
        yield _project(spec, tables, u)


def _require_maximal(spec: GottesmanSpec) -> None:
    if not spec.is_maximal():
        raise ValueError("codeword construction requires a maximal spec")


def _project(spec: GottesmanSpec, tables, u, closed_form_tol: float = 1e-10) -> SparseState:
    """The codeword of member u from the subgroup tables of `_spec_tables`."""
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    a_rows, la, ma, rho = tables
    u_vec = np.array(u, dtype=np.int64)
    chi = (unit * ((a_rows @ u_vec) % q)) % p
    roots = root_table(p)

    state = None
    for w_tuple in itertools.product(range(q), repeat=n):
        targets, exponents = _shift_phase(np.array(w_tuple, dtype=np.int64), la, ma, q)
        dense = np.zeros(q**n, dtype=complex)
        np.add.at(dense, targets, roots[(rho + unit * exponents - chi) % p])
        dense /= spec.size
        norm = np.linalg.norm(dense)
        if norm > 1e-8:
            support = np.nonzero(np.abs(dense) > PRUNE_TOL)[0]
            state = SparseState._from_packed(spec.group, n, support, dense[support] / norm)
            break
    if state is None:
        raise ValueError("projection vanished on every basis word (invalid spec?)")
    if spec.quad_upper is not None:
        try:
            reference = closed_form_codeword(spec, u)
        except ValueError:
            reference = None  # no product-form coordinates (q divides n)
        if reference is not None and abs(state.fidelity(reference) - 1.0) > closed_form_tol:
            raise RuntimeError(
                "projection-built codeword disagrees with the closed form"
            )
    return state


def message_coordinates(spec: GottesmanSpec, u) -> tuple[np.ndarray, int]:
    """Express a character index as product-form coordinates (c, delta).

    Solves u = L^T c + delta * w with c in the sum-zero code, where w is
    determined by the V-part offset of the spec.  Requires the certificate
    and a unique solution (fails when q divides the digit count).
    """
    if spec.quad_upper is None:
        raise ValueError("spec does not carry a product-form certificate")
    q, n = spec.q, spec.n
    field = spec.field
    l7 = (spec.quad_upper + spec.quad_upper.T) % q
    w_vec = ((spec.M - (l7 @ spec.L) % q).T @ np.ones(n, dtype=np.int64)) % q
    system = np.zeros((n + 1, n + 1), dtype=np.int64)
    system[:n, :n] = spec.L.T
    system[:n, n] = w_vec
    system[n, :n] = 1
    rhs = np.concatenate([np.array(u, dtype=np.int64) % q, [0]])
    solution = linear_solve(field, system, rhs)
    if solution is None:
        raise ValueError("character has no product-form coordinates")
    x, kernel = solution
    if kernel:
        raise ValueError(
            "product-form coordinates are not unique (degenerate: q divides n)"
        )
    return x[:n], int(x[n])


def sum_zero_words(n: int, q: int) -> np.ndarray:
    """All words in GF(q)^n with zero digit sum, in lexicographic order."""
    free = _digits(np.arange(q ** (n - 1)), q, n - 1)
    last = (-free.sum(axis=1)) % q
    return np.hstack([free, last[:, None]])


def closed_form_codeword(spec: GottesmanSpec, u) -> SparseState:
    """Codeword of a product-form spec, from its explicit amplitude formula:

        sum over sum-zero x of  w^((x+d)^T Q (x+d)) conj(w)^(x . c) |x + d>

    normalized, with Q the certificate matrix and (c, d = delta * ones)
    the product-form coordinates of u.
    """
    c_vec, delta = message_coordinates(spec, u)
    q, n = spec.q, spec.n
    upper = spec.quad_upper
    xs = sum_zero_words(n, q)
    zs = (xs + delta) % q
    quad = np.einsum("ij,jk,ik->i", zs, upper, zs) % q
    lin = (xs @ c_vec) % q
    roots = root_table(q)
    amps = roots[quad] * np.conj(roots[lin]) / math.sqrt(len(xs))
    return SparseState.from_pairs(spec.group, n, zs, amps)


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


def _gram_screen(basis, digits, xs, ys, q, tol):
    """Mask of the errors whose Gram may not be a multiple of the identity.

    G[u, v] = <phi_u| U_x V_y |phi_v> = sum_w conj(phi_u(w + x)) w^(y.w) phi_v(w),
    so the errors are grouped by shift x: the shifted rows conj(phi_u(w + x))
    are gathered once per x, and one stacked matmul of them, scaled by the
    phases w^(y.w) of each y, with the rows phi_v(w) gives the Grams of a
    batch of y.  Words go in chunks of rows * K^2 <= GRAM_CHUNK, and the
    scaled rows of a batch hold at most GRAM_CHUNK complex values.  The sums
    run in another order than `_gram_witness`, so a caller confirms each
    flagged error there.
    """
    dim, kk = basis.shape
    rows = max(1, GRAM_CHUNK // kk**2)
    y_batch = max(1, GRAM_CHUNK // (rows * kk))
    columns = basis.T.copy()  # the phase scaling runs along the words
    powers = _powers(q, digits.shape[1])
    # y.w sums n terms of at most (q-1)^2, far below 2^53: the float64
    # matmul below gives it exactly, and this table reduces it mod q.
    phases = root_table(q)[np.arange(digits.shape[1] * (q - 1) ** 2 + 1) % q]
    off_diagonal = ~np.eye(kk, dtype=bool)
    flagged = np.zeros(len(xs), dtype=bool)
    if not len(xs):
        return flagged
    keys = xs @ powers
    order = np.argsort(keys, kind="stable")
    with np.errstate(over="raise", invalid="raise"):
        for errors in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            x = xs[errors[0]]
            support = np.flatnonzero(x)
            ys_float = ys[errors].astype(float)
            grams = np.zeros((len(errors), kk, kk), dtype=complex)
            for start in range(0, dim, rows):
                words = digits[start : start + rows]
                stop = start + len(words)
                # only the digits in the support of x change under the shift
                moved = words[:, support]
                targets = np.arange(start, stop) + ((moved + x[support]) % q - moved) @ powers[support]
                shifted = columns.take(targets, axis=1).conj()
                words_float = words.T.astype(float)
                for b in range(0, len(errors), y_batch):
                    exponents = (ys_float[b : b + y_batch] @ words_float).astype(np.intp)
                    scaled = shifted * phases[exponents][:, None, :]
                    grams[b : b + y_batch] += scaled @ basis[start:stop]
            diag = np.diagonal(grams, axis1=1, axis2=2)
            spread = np.abs(diag - diag[:, :1]).max(axis=1)
            off = np.abs(grams[:, off_diagonal]).max(axis=1, initial=0.0)
            flagged[errors] = (spread > tol) | (off > tol)
    return flagged


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
    `tol`.  Maximal specs use the explicit codeword basis: `_gram_screen`
    batches all Grams at `tol / 2`, and only the errors it flags are
    recomputed one at a time, in canonical order, under `tol`.  Non-maximal
    specs check P g P = phi(g) P on the dense projection, error by error.
    `cap` bounds the error enumeration and `group_cap` the subgroup tables;
    both are checked, like the dense-matrix cap of the projection, before
    any state is built.
    """
    spec = description.spec
    q, n = spec.q, spec.n
    xs, ys = bounded_pair_arrays(q, n, min(d - 1, n), cap=cap)
    check_size("subgroup size", spec.size, group_cap)
    maximal = spec.is_maximal()
    if maximal:
        members = description.sorted_members()
        operand = np.zeros((q**n, len(members)), dtype=complex)
        for col, state in enumerate(_codeword_basis(description, group_cap)):
            operand[state.packed, col] = state.amps
    else:
        operand = dense_projection(description)
        trace = np.trace(operand).real
    digits = _digits(np.arange(q**n), q, n)
    roots = root_table(q)
    suspects = zip(xs, ys)
    if maximal:
        flagged = _gram_screen(operand, digits, xs, ys, q, tol / 2)
        suspects = zip(xs[flagged], ys[flagged])
    for x, y in suspects:
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
    a_rows, la, ma, rho = _spec_tables(spec)
    roots = root_table(p)
    digits = _digits(np.arange(dim), q, n)
    unit = p // q
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for idx in range(a_rows.shape[0]):
        t_a = coeffs[tuple(map(int, a_rows[idx]))]
        if abs(t_a) < PRUNE_TOL:
            continue
        rows, exponents = _shift_phase(digits, la[idx], ma[idx], q)
        out[rows, cols] += t_a * roots[(rho[idx] + unit * exponents) % p]
    return out


def orthonormality_check(
    description: FourierDescription, tol: float = 1e-10, group_cap: int = GROUP_CAP
) -> Report:
    """Gram matrix of the codeword basis must be the identity within tol."""
    members = description.sorted_members()
    states = list(_codeword_basis(description, group_cap))
    kk = len(states)
    gram = np.zeros((kk, kk), dtype=complex)
    for i in range(kk):
        for j in range(kk):
            gram[i, j] = states[i].inner(states[j])
    deviation = np.abs(gram - np.eye(kk))
    if deviation.max() > tol:
        i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
        return Report(
            False,
            witness={"u": list(members[i]), "v": list(members[j]),
                     "value": [float(gram[i, j].real), float(gram[i, j].imag)]},
        )
    return Report(True, counts={"codewords": kk})
