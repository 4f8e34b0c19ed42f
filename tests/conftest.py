"""Shared generators for randomized cross-validation sweeps, digit-row
references for the packed-word kernels, and reference versions of library
code that has been replaced or removed, or that only tests read."""

import functools
import itertools

import numpy as np
from hypothesis import settings

from nonstab.circuits import Circuit, Gate
from nonstab.families import maximal_form_spec
from nonstab.galois import PrimeField, pack, unpack
from nonstab.gottesman import GottesmanSpec, synthesize_phase_matrix, validate
from nonstab.oracle import PRUNE_TOL, SparseState, message_coordinates
from nonstab.weyl import DENSE_MATRIX_CAP, check_size, prime_group, root_table

# One profile for every property: the same examples on every run, no
# per-example deadline, and no example database written to the tree.
settings.register_profile("nonstab", derandomize=True, deadline=None, database=None)
settings.load_profile("nonstab")


def random_maximal_spec(rng, n, q=2):
    """A random product-form maximal spec on n digits."""
    upper = np.triu(rng.integers(0, q, size=(n, n)))
    spec = maximal_form_spec(q, n, upper)
    assert validate(spec) == []
    return spec


def random_nonmaximal_spec(rng, n, r, q=2):
    """A random valid spec with r < n: L = [I; 0], M with symmetric top block."""
    assert r < n
    m_mat = rng.integers(0, q, size=(n, r))
    top = m_mat[:r, :]
    m_mat[:r, :] = (top + top.T) % q  # make L^T M symmetric
    l_mat = np.zeros((n, r), dtype=np.int64)
    l_mat[:r, :] = np.eye(r, dtype=np.int64)
    d_mat = synthesize_phase_matrix(q, l_mat, m_mat)
    spec = GottesmanSpec(q=q, L=l_mat, M=m_mat, D=d_mat)
    assert validate(spec) == []
    return spec


def random_stabilizer_spec(rng, n, r, q=2):
    """A random valid spec with r generators on n digits, L of any rank.

    Each generator (x, z) = (L e_i, M e_i) is drawn from the vectors that
    commute with those already drawn, x . z' - z . x' = 0 mod q, and kept
    when it is independent of them.
    """
    field = PrimeField(q)
    rows = np.zeros((0, 2 * n), dtype=np.int64)
    while len(rows) < r:
        twisted = np.hstack([rows[:, n:], -rows[:, :n]]) % q
        free = np.array(linear_solve(field, twisted, np.zeros(len(rows)))[1]
                        if len(rows) else np.eye(2 * n, dtype=np.int64))
        grown = np.vstack([rows, rng.integers(0, q, size=len(free)) @ free % q])
        if len(field.rref(grown)[1]) == len(grown):
            rows = grown
    l_mat, m_mat = rows[:, :n].T.copy(), rows[:, n:].T.copy()
    spec = GottesmanSpec(q=q, L=l_mat, M=m_mat, D=synthesize_phase_matrix(q, l_mat, m_mat))
    assert validate(spec) == []
    return spec


def random_description(rng, spec, max_size=4):
    """A random nonempty Fourier description over `spec`."""
    from nonstab.fourier_code import FourierDescription

    size = int(rng.integers(1, min(max_size, spec.size) + 1))
    members = set()
    while len(members) < size:
        members.add(tuple(int(v) for v in rng.integers(0, spec.q, size=spec.r)))
    return FourierDescription(spec, frozenset(members))


def oversized_nonmaximal_description():
    """A valid q=2, n=13, r=3 code: its dense projection would be 8192 x 8192."""
    from nonstab.fourier_code import FourierDescription

    spec = random_nonmaximal_spec(np.random.default_rng(0), 13, 3)
    return FourierDescription(spec, frozenset({(0, 0, 0)}))


def brute_force_subspace_count(m, q, r):
    """Count r-dimensional subspaces of GF(q)^m by closing every vector set."""
    vectors = list(itertools.product(range(q), repeat=m))
    subspaces = set()
    for basis in itertools.combinations(vectors[1:], r):
        span = set()
        for coeffs in itertools.product(range(q), repeat=r):
            v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % q for i in range(m))
            span.add(v)
        if len(span) == q**r:
            subspaces.add(frozenset(span))
    return len(subspaces)


def brute_force_forbidden(spec, d):
    """Forbidden index set by exhaustive enumeration of all (x, y) pairs.

    Independent of the library's linear solver: subgroup membership is
    decided against an explicit materialization of all q^r elements.
    """
    q, n, r = spec.q, spec.n, spec.r
    image = set()
    for a in itertools.product(range(q), repeat=r):
        element = spec.element(np.array(a, dtype=np.int64))
        image.add((element.a, element.b))
    out = set()
    for x in itertools.product(range(q), repeat=n):
        for y in itertools.product(range(q), repeat=n):
            weight = sum(1 for i in range(n) if x[i] or y[i])
            if not 1 <= weight <= d - 1:
                continue
            if (x, y) in image:
                continue
            u = tuple(
                int(sum(spec.L[i, j] * y[i] - spec.M[i, j] * x[i] for i in range(n)) % q)
                for j in range(r)
            )
            out.add(u)
    return out


def forbidden_members(keys, q, r):
    """The packed keys of `gottesman.forbidden_set` as a set of digit tuples."""
    return frozenset(map(tuple, unpack(keys, q, r).tolist()))


def forbidden_weights(keys, q, r):
    """The set of weights of the members of `gottesman.forbidden_set`."""
    return set(np.count_nonzero(unpack(keys, q, r), axis=1).tolist())


def state_rows(state):
    """The digit rows of a state's support, in packed key order."""
    return unpack(state.packed, state.group.q, state.n)


def amplitude_map(state):
    """A state as a dict from word tuples to Python complex amplitudes."""
    return dict(zip(map(tuple, state_rows(state).tolist()), state.amps.tolist()))


def reference_top_amplitudes(state, top):
    """`cli._top_amplitudes` as the sort that `encode-sim` used: Python tuples
    of words and Python complex amplitudes, by (-abs(amplitude), word)."""
    ranked = sorted(amplitude_map(state).items(), key=lambda kv: (-abs(kv[1]), kv[0]))[:top]
    return [{"word": list(w), "re": a.real, "im": a.imag} for w, a in ranked]


def shift_phase(words, x, y, q):
    """U_x V_y on digit rows w: the packed keys of w + x and the exponents
    y . w mod q, the reference for `galois._weyl_action`.  Rows broadcast,
    so one word may meet many (x, y) or many words one (x, y)."""
    return pack((words + x) % q, q), np.einsum("...i,...i->...", words, y) % q


@functools.lru_cache(maxsize=8)
def word_digits(q, n):
    """Digit rows of all q^n words, built once per (q, n)."""
    return unpack(np.arange(q**n), q, n)


def weyl_times(operand, x, y, q):
    """U_x V_y @ operand, and U_x V_y^dagger @ operand, on the dense word space."""
    targets, exponents = shift_phase(word_digits(q, len(x)), x, y, q)
    phases = root_table(q)[exponents][:, None]
    moved = np.zeros_like(operand)
    moved[targets] = phases * operand
    return moved, np.conj(phases) * operand[targets]


def rho_batch(spec, a_rows):
    """Phase exponents a^T D a mod 2q of the rows of an int64 array."""
    return ((a_rows @ spec.D) * a_rows).sum(axis=1) % spec.phase_denominator


def spec_tables(spec):
    """(index rows a, La, Ma, rho(a)) of the whole subgroup as digit tables,
    the reference for the packed keys of `oracle._subgroup_keys`."""
    a_rows = unpack(np.arange(spec.size), spec.q, spec.r)
    la, ma = (a_rows @ spec.L.T) % spec.q, (a_rows @ spec.M.T) % spec.q
    return a_rows, la, ma, rho_batch(spec, a_rows)


def reference_projection_coefficients(description):
    """`fourier_code.projection_coefficients` with the characters u . a as
    one int64 product of the members with the index rows."""
    spec = description.spec
    q, p = spec.q, spec.phase_denominator
    a_rows = unpack(np.arange(spec.size), q, spec.r)
    exponents = (p // q * ((description.member_array @ a_rows.T) % q)) % p
    roots = np.exp(-2j * np.pi * np.arange(p) / p)  # conj(chi_u)(s_a)
    return roots[exponents].sum(axis=0) / spec.size


def reference_dense_projection(description):
    """`oracle.dense_projection` from `spec_tables` and `shift_phase`: the sum
    over the elements of T_a w^rho(a) U_La V_Ma, on all q^n words."""
    spec = description.spec
    q, n, p = spec.q, spec.n, spec.phase_denominator
    _, la, ma, rho = spec_tables(spec)
    coeffs = reference_projection_coefficients(description)
    roots = root_table(p)
    out = np.zeros((q**n, q**n), dtype=complex)
    cols = np.arange(q**n)
    for t_a, x, y, phase in zip(coeffs, la, ma, rho):
        if abs(t_a) >= PRUNE_TOL:
            rows, exponents = shift_phase(word_digits(q, n), x, y, q)
            out[rows, cols] += t_a * roots[(phase + p // q * exponents) % p]
    return out


def reference_inner(a, b):
    """SparseState.inner as the matched pairs of np.intersect1d."""
    _, ia, ib = np.intersect1d(a.packed, b.packed, assume_unique=True, return_indices=True)
    return complex(np.sum(np.conj(a.amps[ia]) * b.amps[ib]))


def dense_vector(state):
    """The amplitudes of a sparse state on all q^n words."""
    out = np.zeros(state.group.q**state.n, dtype=complex)
    out[state.packed] = state.amps
    return out


def zero_state(circuit):
    """|0 ... 0> on every register of a circuit."""
    return SparseState.basis_word(prime_group(circuit.q), (0,) * circuit.registers)


def uniform_over_sum_zero(n, q):
    """Circuit taking |0^n> to the uniform superposition over the sum-zero code."""
    gates = [Gate("fourier", (i,)) for i in range(n - 1)]
    gates += [Gate("c-u", (i, n - 1)) for i in range(n - 1)]
    if n > 1:
        gates.append(Gate("inverter", (n - 1,)))
    return Circuit(q, n, tuple(gates))


def weight_lex_indices(q, r):
    """All of GF(q)^r ordered by weight, then lexicographically; 0 first."""
    vectors = itertools.product(range(q), repeat=r)
    return sorted(vectors, key=lambda v: (sum(1 for x in v if x), v))


def symmetric_difference_sizes(family):
    """|s1 ^ s2| over the pairs of distinct members of a set family."""
    return {len(s1 ^ s2) for s1, s2 in itertools.combinations(family.members, 2)}


@functools.lru_cache(maxsize=16)
def sum_zero_words(n, q):
    """All words in GF(q)^n with zero digit sum, in lexicographic order (read-only)."""
    free = unpack(np.arange(q ** (n - 1)), q, n - 1)
    last = (-free.sum(axis=1)) % q
    words = np.hstack([free, last[:, None]])
    words.setflags(write=False)
    return words


def closed_form_terms(spec, delta):
    """(sum-zero words x, words z = x + delta, w^(z^T Q z)) of the closed form,
    as digit tables: the reference for the keys and the quadratic table that
    `oracle._check_closed_form` reads."""
    xs = sum_zero_words(spec.n, spec.q)
    zs = (xs + delta) % spec.q
    quad = ((zs @ spec.quad_upper) * zs).sum(axis=1) % spec.q
    return xs, zs, root_table(spec.q)[quad]


def closed_form_codeword(spec, u):
    """Codeword of a product-form spec, from its explicit amplitude formula:

        sum over sum-zero x of  w^((x+d)^T Q (x+d)) conj(w)^(x . c) |x + d>

    normalized, with Q the certificate matrix and (c, d = delta * ones)
    the product-form coordinates of u.
    """
    c_vec, delta = message_coordinates(spec, u)
    xs, zs, quad_phase = closed_form_terms(spec, delta)
    amps = quad_phase * np.conj(root_table(spec.q)[(xs @ c_vec) % spec.q]) / np.sqrt(len(xs))
    return SparseState.from_pairs(spec.group, spec.n, zs, amps)


def linear_solve(field, a, b):
    """(x, kernel) with a @ x = b over GF(p) and a basis of ker(a), one
    vector per free column, or None when the system is inconsistent; read
    off the transform T of `PrimeField.rref`, T @ a = R."""
    a, b = field.reduce(a), field.reduce(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("dimension mismatch between matrix and rhs")
    reduced, pivots, transform = field.rref(a)
    tb = (transform @ b) % field.p
    if np.any(tb[len(pivots):]):
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    x[pivots] = tb[: len(pivots)]
    kernel = []
    for free in (c for c in range(a.shape[1]) if c not in pivots):
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[free] = 1
        v[pivots] = (-reduced[: len(pivots), free]) % field.p
        kernel.append(v)
    return x, kernel


def normalized(state):
    """`state` scaled to unit norm."""
    amps = state.amps / np.linalg.norm(state.amps)
    return SparseState.from_pairs(state.group, state.n, state_rows(state), amps)


def phase_value(exponent, denominator):
    """exp(2 pi i exponent / denominator), read off the cached root table."""
    return complex(root_table(denominator)[exponent % denominator])


def dense_matrix(g):
    """Complex matrix of a `WeylElement` on the q^n-dimensional word space."""
    grp = g.group
    dim = grp.q**g.n
    check_size("dense dimension", dim, DENSE_MATRIX_CAP)
    words = list(itertools.product(range(grp.q), repeat=g.n))  # in lexicographic order
    index = {w: i for i, w in enumerate(words)}
    out = np.zeros((dim, dim), dtype=complex)
    p = grp.phase_denominator
    for col, x in enumerate(words):
        row = index[grp.add(x, g.a)]
        out[row, col] = phase_value(g.phase + grp.bicharacter_exponent(g.b, x), p)
    return out


def weight(a, b):
    """Number of positions where (a_i, b_i) != (0, 0): the weight of U_a V_b."""
    return sum(1 for x, y in zip(a, b) if x or y)


def character_exponent(spec, u, a):
    """Exponent of chi_u(s_a) = w_q^(u . a), in units of 1 / (2q)."""
    u = spec.field.check(np.atleast_1d(np.asarray(u, dtype=np.int64)), "character index")
    a = spec.field.check(np.atleast_1d(np.asarray(a, dtype=np.int64)), "index vector")
    if u.shape != (spec.r,) or a.shape != (spec.r,):
        raise ValueError("character arguments must have length r")
    return (spec.phase_denominator // spec.q) * int((u @ a) % spec.q)
