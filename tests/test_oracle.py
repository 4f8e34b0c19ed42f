import functools
import itertools

import numpy as np
import pytest
from conftest import (
    oversized_nonmaximal_description,
    random_description,
    random_maximal_spec,
    random_nonmaximal_spec,
)

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonstab.families import code_15_8_3, distance2_family, maximal_form_spec
from nonstab.fourier_code import (
    FourierDescription,
    Report,
    code_dimension,
    greedy_construct,
    verify_distance,
)
from nonstab.galois import unpack
from nonstab.gottesman import (
    GottesmanSpec,
    bounded_pair_arrays,
    character_exponent,
    forbidden_set,
    purity_radius,
    synthesize_phase_matrix,
    validate,
)
from nonstab.oracle import (
    PRUNE_TOL,
    SparseState,
    _basis_matrix,
    _gram_witness,
    _reduced_screen,
    _shift_phase,
    apply,
    closed_form_codeword,
    codeword,
    dense_projection,
    kl_check,
    message_coordinates,
    orthonormality_check,
)
from nonstab.weyl import (
    GROUP_CAP,
    WeylElement,
    compose,
    dense_matrix,
    phase_value,
    prime_group,
    root_table,
)

Z2 = prime_group(2)
Z3 = prime_group(3)


def random_state(rng, group, n, support=4):
    words = rng.integers(0, group.size, size=(support, n))
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    return SparseState.from_pairs(group, n, words, amps).normalized()


def test_sparse_state_basics():
    s = SparseState.from_pairs(Z2, 2, [(0, 0), (1, 1)], [0.6, 0.8])
    assert s.norm() == pytest.approx(1.0)
    assert len(s) == 2
    # merging and pruning
    merged = SparseState.from_pairs(Z2, 1, [[0], [0], [1]], [1.0, -1.0, 0.5])
    assert merged.to_dict() == {(1,): 0.5}
    with pytest.raises(ValueError):
        SparseState.from_pairs(Z2, 1, [[0]], [1.0, 2.0])


def test_apply_identity_and_shift():
    s = SparseState.basis_word(Z2, (0,))
    ident = WeylElement.identity(Z2, 1)
    assert apply(ident, s).to_dict() == s.to_dict()
    u1 = WeylElement.shift(Z2, (1,))
    assert apply(u1, s).to_dict() == {(1,): 1.0 + 0j}


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(8)
    for group, n in ((Z2, 3), (Z3, 2)):
        for _ in range(20):
            g = WeylElement(
                group,
                int(rng.integers(0, group.phase_denominator)),
                tuple(rng.integers(0, group.size, n)),
                tuple(rng.integers(0, group.size, n)),
            )
            state = random_state(rng, group, n)
            expected = dense_matrix(g) @ state.to_dense()
            np.testing.assert_allclose(apply(g, state).to_dense(), expected, atol=1e-12)


def test_apply_is_group_action_and_isometry():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        h = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        state = random_state(rng, Z3, 2)
        via_compose = apply(compose(g, h), state)
        via_sequence = apply(g, apply(h, state))
        assert via_compose.norm() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(via_sequence.to_dense(), via_compose.to_dense(), atol=1e-12)


def test_stabilizer_codeword_is_fixed_point():
    spec, _ = distance2_family(5, 2)
    stabilizer = FourierDescription(spec, frozenset({(0,) * 5}))
    phi = codeword(stabilizer, (0,) * 5)
    assert phi.norm() == pytest.approx(1.0, abs=1e-12)
    for i in range(5):
        moved = apply(spec.element(np.eye(5, dtype=int)[i]), phi)
        assert moved.fidelity(phi) == pytest.approx(1.0, abs=1e-10)


def test_codeword_eigenvalue_equations():
    b = code_15_8_3()
    spec = b.spec
    u = b.sorted_members()[3]
    phi = codeword(b, u)
    for i in range(15):
        e = np.eye(15, dtype=int)[i]
        moved = apply(spec.element(e), phi)
        expected = phase_value(character_exponent(spec, u, e), spec.phase_denominator)
        assert phi.inner(moved) == pytest.approx(expected, abs=1e-10)


def test_codeword_closed_form_agreement():
    for spec, b in (distance2_family(5, 2), distance2_family(5, 3)):
        for u in b.sorted_members():
            built = codeword(b, u)  # internally cross-checked already
            reference = closed_form_codeword(spec, u)
            assert built.fidelity(reference) == pytest.approx(1.0, abs=1e-10)


def test_codeword_rejects_nonmember_and_nonmaximal():
    spec, b = distance2_family(5, 2)
    with pytest.raises(ValueError, match="not a member"):
        codeword(b, (1, 1, 1, 1, 1))
    rng = np.random.default_rng(0)
    small = random_nonmaximal_spec(rng, 3, 1)
    with pytest.raises(ValueError, match="maximal"):
        codeword(FourierDescription(small, frozenset({(0,)})), (0,))


def test_message_coordinates_roundtrip():
    spec, b = distance2_family(5, 3)
    for u in b.sorted_members():
        c_vec, delta = message_coordinates(spec, u)
        assert int(c_vec.sum()) % 3 == 0
        recovered = (spec.L.T @ c_vec + delta * 5 * np.ones(5, dtype=np.int64)) % 3
        assert tuple(recovered) == u


def test_message_coordinates_degenerate_case():
    from nonstab.families import maximal_form_spec

    spec = maximal_form_spec(3, 3, np.triu(np.ones((3, 3), dtype=np.int64), 1))
    with pytest.raises(ValueError, match="not unique|no product-form"):
        message_coordinates(spec, (0, 0, 0))


def test_kl_check_distance2():
    _, b = distance2_family(5, 2)
    report = kl_check(b, 2)
    assert report.passed
    assert report.counts == {"errors": 15, "pairs": 36}
    assert kl_check(b, 1).counts == {"errors": 0, "pairs": 36}


def test_kl_check_fails_on_corrupted_description():
    spec, b = distance2_family(5, 2)
    from nonstab.gottesman import forbidden_set

    f2 = sorted(forbidden_set(spec, 2).members)[0]
    base = b.sorted_members()[0]
    bad_member = tuple((np.array(base) + np.array(f2)) % 2)
    corrupted = FourierDescription(spec, b.members | {bad_member})
    assert not verify_distance(corrupted, 2).passed
    report = kl_check(corrupted, 2)
    assert not report.passed
    assert "error" in report.witness


def test_kl_nonmaximal_path():
    rng = np.random.default_rng(99)
    spec = random_nonmaximal_spec(rng, 4, 2)
    description = FourierDescription(spec, frozenset({(0, 0)}))
    assert kl_check(description, 2).passed == verify_distance(description, 2).passed
    projection = dense_projection(description)
    assert np.trace(projection).real == pytest.approx(code_dimension(description), abs=1e-9)


def test_dense_projection_matches_codeword_span():
    _, b = distance2_family(5, 2)
    p = dense_projection(b)
    basis = np.column_stack([codeword(b, u).to_dense() for u in b.sorted_members()])
    np.testing.assert_allclose(p @ basis, basis, atol=1e-10)
    np.testing.assert_allclose(p, basis @ basis.conj().T, atol=1e-10)


def test_orthonormality():
    _, b = distance2_family(5, 2)
    report = orthonormality_check(b)
    assert report.passed and report.counts == {"codewords": 6}
    single = FourierDescription(b.spec, frozenset({(0,) * 5}))
    assert orthonormality_check(single).passed
    assert orthonormality_check(code_15_8_3()).passed


def test_codeword_count_equals_dimension():
    for _, b in (distance2_family(5, 2), distance2_family(5, 3)):
        assert len(b.sorted_members()) == code_dimension(b)


def test_kl_check_gf3():
    _, b = distance2_family(5, 3)
    report = kl_check(b, 2)
    assert report.passed
    assert report.counts == {"errors": 5 * 8, "pairs": 121}


def test_kl_agrees_with_verify_on_random_descriptions():
    rng = np.random.default_rng(55)
    agreements = 0
    for _ in range(8):
        spec = random_maximal_spec(rng, int(rng.integers(4, 7)))
        description = random_description(rng, spec)
        assert kl_check(description, 2).passed == verify_distance(description, 2).passed
        agreements += 1
    assert agreements == 8


def test_kl_check_refuses_oversized_projection_before_allocating():
    import tracemalloc

    description = oversized_nonmaximal_description()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense dimension 8192 exceeds cap 4096"):
            kl_check(description, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kl_check_caps_come_from_its_arguments():
    _, b = distance2_family(5, 2)
    with pytest.raises(ValueError, match="enumeration budget exceeded: need 16 pairs, cap 15"):
        kl_check(b, 2, cap=15)
    with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 16"):
        kl_check(b, 2, group_cap=16)
    with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 16"):
        orthonormality_check(b, group_cap=16)
    assert kl_check(b, 2, cap=16, group_cap=32).passed


def test_packed_index_refuses_int64_overflow():
    assert len(SparseState.basis_word(Z2, (0,) * 63)) == 1
    with pytest.raises(ValueError, match="overflows int64"):
        SparseState.basis_word(Z2, (0,) * 64)


@functools.lru_cache(maxsize=8)
def word_digits(q, n):
    """Digit rows of all q^n words, built once per (q, n)."""
    return unpack(np.arange(q**n), q, n)


def weyl_times(operand, x, y, q):
    """U_x V_y @ operand, and U_x V_y^dagger @ operand, on the dense word space."""
    targets, exponents = _shift_phase(word_digits(q, len(x)), x, y, q)
    phases = root_table(q)[exponents][:, None]
    moved = np.zeros_like(operand)
    moved[targets] = phases * operand
    return moved, np.conj(phases) * operand[targets]


def codeword_matrix(description):
    members = description.sorted_members()
    spec = description.spec
    operand = np.zeros((spec.q**spec.n, len(members)), dtype=complex)
    for col, u in enumerate(members):
        state = codeword(description, u)
        operand[state.packed, col] = state.amps
    return operand


def reference_kl_check(description, d, tol=1e-9):
    """kl_check on a maximal spec as one Gram per error, in canonical order."""
    spec = description.spec
    q, n = spec.q, spec.n
    xs, ys = bounded_pair_arrays(q, n, min(d - 1, n))
    members = description.sorted_members()
    operand = codeword_matrix(description)
    for x, y in zip(xs, ys):
        moved, _ = weyl_times(operand, x, y, q)
        found = _gram_witness(operand, moved, members, tol)
        if found is not None:
            return Report(False, witness={"error": {"x": x.tolist(), "y": y.tolist()}, **found})
    return Report(True, counts={"errors": int(xs.shape[0]), "pairs": len(members) ** 2})


DIGITS_FOR_Q = {2: (4, 7), 3: (3, 5), 5: (3, 4)}
# d = 4 only on the shapes where the per-error reference stays quick
MAX_DIGITS_AT_D4 = {2: 6, 3: 4}


@st.composite
def maximal_descriptions(draw):
    """(description, d): a greedy code where the spec is d-pure, else random,
    and, if drawn, one member added at a forbidden difference."""
    q = draw(st.sampled_from(sorted(DIGITS_FOR_Q)))
    d = draw(st.sampled_from([2, 3, 4] if q in MAX_DIGITS_AT_D4 else [2, 3]))
    low, high = DIGITS_FOR_Q[q]
    n = draw(st.integers(low, MAX_DIGITS_AT_D4[q] if d == 4 else high))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    spec = maximal_form_spec(q, n, np.triu(np.array(entries, dtype=np.int64).reshape(n, n)))
    if purity_radius(spec, d) is None:
        description = greedy_construct(spec, d)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        description = random_description(rng, spec)
    forbidden = sorted(forbidden_set(spec, d).members)
    if forbidden and draw(st.booleans()):
        f = np.array(draw(st.sampled_from(forbidden)))
        base = np.array(draw(st.sampled_from(description.sorted_members())))
        bad_member = tuple(int(v) for v in (base + f) % q)
        description = FourierDescription(spec, description.members | {bad_member})
    return description, d


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(maximal_descriptions())
def test_kl_check_matches_per_error_reference(case):
    description, d = case
    expected = reference_kl_check(description, d)
    got = kl_check(description, d)
    assert (got.passed, got.counts, got.witness) == (
        expected.passed,
        expected.counts,
        expected.witness,
    )


def test_kl_check_gram_memory_is_bounded():
    import tracemalloc

    upper = np.array([[2, 2, 3, 4], [0, 0, 4, 4], [0, 0, 4, 2], [0, 0, 0, 2]])
    description = greedy_construct(maximal_form_spec(5, 4, upper), 2)
    assert len(description.members) == 22
    # at d = 3 the quantum Singleton bound K <= 5^(4 - 4) rules the code out
    for d, passes in ((2, True), (3, False)):
        tracemalloc.start()
        try:
            assert kl_check(description, d).passed == passes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, d


TOL = 1e-9


@st.composite
def perturbed_bases(draw):
    """(basis, q, m, xs, ys, members): a greedy code's basis with one Gram moved.

    Column v gains delta E^dagger phi_u for an error E of weight <= m, so
    <phi_u| E |phi_v> moves by about delta, drawn around TOL, and the
    entries of R_T on the m-subsets T around E's support by about
    delta / q^m.  With u = v the diagonal of that Gram spreads instead.
    """
    q = draw(st.sampled_from(sorted(DIGITS_FOR_Q)))
    n = draw(st.integers(*DIGITS_FOR_Q[q]))
    d = draw(st.sampled_from([2, 3]))
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    spec = maximal_form_spec(q, n, np.triu(np.array(entries, dtype=np.int64).reshape(n, n)))
    assume(purity_radius(spec, d) is None)
    description = greedy_construct(spec, d)
    kk = len(description)
    assume(kk > 1)
    m = d - 1
    xs, ys = bounded_pair_arrays(q, n, m)
    basis = codeword_matrix(description)
    u, v = draw(st.integers(0, kk - 1)), draw(st.integers(0, kk - 1))
    e = draw(st.integers(0, len(xs) - 1))
    delta = TOL * draw(st.floats(0.25, 4.0))
    _, adjoint = weyl_times(basis, xs[e], ys[e], q)
    basis[:, v] += delta * adjoint[:, u]
    return basis, q, m, xs, ys, description.sorted_members()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(perturbed_bases())
def test_reduced_screen_clears_only_passing_errors(case):
    basis, q, m, xs, ys, members = case
    cleared = _reduced_screen(basis, q, m, (xs != 0) | (ys != 0), TOL)
    for x, y in zip(xs[cleared], ys[cleared]):
        moved, _ = weyl_times(basis, x, y, q)
        assert _gram_witness(basis, moved, members, TOL) is None


def subgroup_tables(spec):
    a_rows = unpack(np.arange(spec.q**spec.n), spec.q, spec.n)
    la, ma = (a_rows @ spec.L.T) % spec.q, (a_rows @ spec.M.T) % spec.q
    return a_rows, la, ma, spec.rho_batch(a_rows)


def reference_projection(spec, tables, u):
    """(column, word): the codeword of u built on its own, as a dense column,
    and the index of the basis word whose image under the projection gave it."""
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    a_rows, la, ma, rho = tables
    chi = (unit * ((a_rows @ np.array(u, dtype=np.int64)) % q)) % p
    roots = root_table(p)
    for word, w_tuple in enumerate(itertools.product(range(q), repeat=n)):
        targets, exponents = _shift_phase(np.array(w_tuple, dtype=np.int64), la, ma, q)
        dense = np.zeros(q**n, dtype=complex)
        np.add.at(dense, targets, roots[(rho + unit * exponents - chi) % p])
        dense /= spec.size
        norm = np.linalg.norm(dense)
        if norm > 1e-8:
            support = np.nonzero(np.abs(dense) > PRUNE_TOL)[0]
            state = SparseState._from_packed(spec.group, n, support, dense[support] / norm)
            column = np.zeros(q**n, dtype=complex)
            column[state.packed] = state.amps
            return column, word
    raise AssertionError("projection vanished on every basis word")


def assert_basis_matches_reference(description):
    """The basis and every codeword(u) are bit-equal to the per-member
    reference; returns the basis word each member's codeword came from."""
    members = description.sorted_members()
    tables = subgroup_tables(description.spec)
    columns, words = zip(*(reference_projection(description.spec, tables, u) for u in members))
    expected = np.column_stack(columns)
    _basis_matrix.cache_clear()
    basis = _basis_matrix(description, GROUP_CAP)
    assert np.array_equal(basis.view(np.uint64), expected.view(np.uint64))
    for column, u in zip(columns, members):
        state = codeword(description, u)
        assert np.array_equal(state.packed, np.flatnonzero(column))
        assert np.array_equal(state.amps.view(np.uint64), column[state.packed].view(np.uint64))
    return words


@st.composite
def maximal_member_sets(draw):
    """A description over a drawn maximal spec, with 1 to 6 drawn members.

    The spec is either a product-form one, where L has a kernel of
    dimension 1, or has L = diag(I_k, 0) and M = [[S, 0], [N, I]] with S
    symmetric, where L has a kernel of dimension n - k: then q^(n-k)
    subgroup elements meet on each word, and a member's codeword may lie
    far past word 0.
    """
    q = draw(st.sampled_from(sorted(DIGITS_FOR_Q)))
    n = draw(st.integers(*DIGITS_FOR_Q[q]))
    entries = np.array(
        draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n)), dtype=np.int64
    ).reshape(n, n)
    k = draw(st.integers(0, n))
    if k == n:
        spec = maximal_form_spec(q, n, np.triu(entries))
    else:
        l_mat = np.diag([1] * k + [0] * (n - k)).astype(np.int64)
        m_mat = np.tril(entries, -1)
        m_mat[:k, :k] = (m_mat[:k, :k] + m_mat[:k, :k].T) % q
        m_mat[k:, k:] = np.eye(n - k, dtype=np.int64)
        spec = GottesmanSpec(
            q=q, L=l_mat, M=m_mat, D=synthesize_phase_matrix(q, l_mat, m_mat)
        )
        assert spec.is_maximal() and validate(spec) == []
    indices = draw(st.lists(st.integers(0, q**n - 1), min_size=1, max_size=6, unique=True))
    rows = unpack(indices, q, n)
    return FourierDescription(spec, frozenset(tuple(int(v) for v in row) for row in rows))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(maximal_member_sets())
def test_projected_basis_is_bit_equal_to_the_per_member_projection(description):
    assert_basis_matches_reference(description)


def test_projected_basis_advances_past_vanishing_words():
    # a member's codeword lies on the words whose digits sum to n * delta, so
    # members with n * delta != 0 mod q vanish on word 0 and take a later word
    for description in (distance2_family(5, 3)[1], distance2_family(5, 5)[1]):
        words = assert_basis_matches_reference(description)
        assert min(words) == 0 and max(words) > 0


def test_reduced_screen_clears_every_error_of_a_passing_code():
    # R_T equals delta_uv rho_T up to rounding on every T, so nothing is left to confirm
    for description, d in (
        (distance2_family(5, 3)[1], 2),
        (distance2_family(5, 5)[1], 2),
        (code_15_8_3(), 3),
    ):
        spec = description.spec
        xs, ys = bounded_pair_arrays(spec.q, spec.n, d - 1)
        basis = _basis_matrix(description, GROUP_CAP)
        assert _reduced_screen(basis, spec.q, d - 1, (xs != 0) | (ys != 0), TOL).all()


def test_kl_check_builds_the_word_table_only_for_suspects(monkeypatch):
    from nonstab import oracle

    sizes = []
    unpack_ = oracle.unpack

    def counted(keys, q, width):
        sizes.append(len(keys))
        return unpack_(keys, q, width)

    monkeypatch.setattr(oracle, "unpack", counted)
    # code15 at d = 3: the screen clears all 990 errors, so no table is built
    description = code_15_8_3()
    _basis_matrix(description, GROUP_CAP)
    sizes.clear()
    assert kl_check(description, 3).passed and sizes == []
    # d2 (5, 2) at d = 3: K = 6 exceeds the Singleton bound, so nothing is
    # screened and the 2^5 x 5 table is built once
    _, description = distance2_family(5, 2)
    _basis_matrix(description, GROUP_CAP)
    sizes.clear()
    assert not kl_check(description, 3).passed and sizes == [32]
