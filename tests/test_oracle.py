import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from conftest import (
    amplitude_map,
    character_exponent,
    closed_form_codeword,
    closed_form_terms,
    dense_matrix,
    dense_vector,
    forbidden_members,
    normalized,
    oversized_nonmaximal_description,
    phase_value,
    random_description,
    random_maximal_spec,
    random_nonmaximal_spec,
    random_stabilizer_spec,
    reference_dense_projection,
    reference_projection_coefficients,
    shift_phase,
    spec_tables,
    weyl_times,
)

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from nonstab.families import code_15_8_3, distance2_family, maximal_form_spec
from nonstab.fourier_code import (
    FourierDescription,
    Report,
    code_dimension,
    greedy_construct,
    projection_coefficients,
    verify_distance,
)
from nonstab.galois import _characters, pack, unpack
from nonstab.gottesman import (
    GottesmanSpec,
    bounded_pair_arrays,
    forbidden_set,
    purity_radius,
    synthesize_phase_matrix,
    validate,
)
from nonstab.oracle import (
    BASIS_TOL,
    PRUNE_TOL,
    SparseState,
    _basis_matrix,
    _cached_basis,
    _closed_form_exponents,
    _gram_witness,
    _projected_basis,
    _subgroup_keys,
    apply,
    codeword,
    dense_projection,
    kl_check,
    message_coordinates,
    orthonormality_check,
)
from nonstab.weyl import (
    WeylElement,
    budget,
    compose,
    prime_group,
    root_table,
)

Z2 = prime_group(2)
Z3 = prime_group(3)


def random_state(rng, group, n, support=4):
    words = rng.integers(0, group.q, size=(support, n))
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    return normalized(SparseState.from_pairs(group, n, words, amps))


def test_sparse_state_basics():
    s = SparseState.from_pairs(Z2, 2, [(0, 0), (1, 1)], [0.6, 0.8])
    assert np.linalg.norm(s.amps) == pytest.approx(1.0)
    assert len(s) == 2
    # merging and pruning
    merged = SparseState.from_pairs(Z2, 1, [[0], [0], [1]], [1.0, -1.0, 0.5])
    assert amplitude_map(merged) == {(1,): 0.5}
    with pytest.raises(ValueError):
        SparseState.from_pairs(Z2, 1, [[0]], [1.0, 2.0])


def test_apply_identity_and_shift():
    s = SparseState.basis_word(Z2, (0,))
    ident = WeylElement.identity(Z2, 1)
    assert amplitude_map(apply(ident, s)) == amplitude_map(s)
    u1 = WeylElement(Z2, 0, (1,), (0,))
    assert amplitude_map(apply(u1, s)) == {(1,): 1.0 + 0j}


def test_apply_matches_dense_matrix():
    rng = np.random.default_rng(8)
    for group, n in ((Z2, 3), (Z3, 2)):
        for _ in range(20):
            g = WeylElement(
                group,
                int(rng.integers(0, group.phase_denominator)),
                tuple(rng.integers(0, group.q, n)),
                tuple(rng.integers(0, group.q, n)),
            )
            state = random_state(rng, group, n)
            expected = dense_matrix(g) @ dense_vector(state)
            np.testing.assert_allclose(dense_vector(apply(g, state)), expected, atol=1e-12)


def test_apply_is_group_action_and_isometry():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        h = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        state = random_state(rng, Z3, 2)
        via_compose = apply(compose(g, h), state)
        via_sequence = apply(g, apply(h, state))
        assert np.linalg.norm(via_compose.amps) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            dense_vector(via_sequence), dense_vector(via_compose), atol=1e-12
        )


def test_stabilizer_codeword_is_fixed_point():
    spec, _ = distance2_family(5, 2)
    stabilizer = FourierDescription(spec, frozenset({(0,) * 5}))
    phi = codeword(stabilizer, (0,) * 5)
    assert np.linalg.norm(phi.amps) == pytest.approx(1.0, abs=1e-12)
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

    f2 = sorted(forbidden_members(forbidden_set(spec, 2), spec.q, spec.r))[0]
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
    basis = np.column_stack([dense_vector(codeword(b, u)) for u in b.sorted_members()])
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


def test_kl_check_caps_come_from_the_budget():
    _, b = distance2_family(5, 2)
    with budget(sphere=15):
        with pytest.raises(ValueError, match="enumeration budget exceeded: need 16 pairs, cap 15"):
            kl_check(b, 2)
    with budget(group=16):
        with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 16"):
            kl_check(b, 2)
        with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 16"):
            orthonormality_check(b)
    with budget(sphere=16, group=32):
        assert kl_check(b, 2).passed


def test_a_cached_basis_is_refused_under_a_smaller_group():
    _, b = distance2_family(5, 2)
    _cached_basis.cache_clear()
    basis = _basis_matrix(b)  # built and cached under the default budget
    with budget(group=31):
        with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 31"):
            _basis_matrix(b)
        with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 31"):
            orthonormality_check(b)
    assert _cached_basis.cache_info().currsize == 1
    with budget(group=32):
        assert _basis_matrix(b) is basis


def counted_table_builds(monkeypatch):
    """The specs whose subgroup table is built from here on: the misses of a
    fresh cache in place of `_subgroup_keys`'s."""
    from nonstab import oracle

    builds = []
    build = _subgroup_keys.__wrapped__
    counted = lru_cache(maxsize=1)(lambda spec: builds.append(spec) or build(spec))
    monkeypatch.setattr(oracle, "_subgroup_keys", counted)
    return builds


def test_codewords_of_one_description_build_the_subgroup_table_once(monkeypatch):
    from nonstab import oracle

    description = code_15_8_3()
    builds = counted_table_builds(monkeypatch)
    # and the quadratic table of the closed form once, for both offsets of
    # code15's members
    oracle._closed_form_exponents.cache_clear()
    for u in description.sorted_members():
        codeword(description, u)
    assert builds == [description.spec]
    assert oracle._closed_form_exponents.cache_info().misses == 1


def test_a_failing_nonmaximal_kl_check_builds_the_subgroup_table_once(monkeypatch):
    from nonstab import oracle

    # the coset basis and the dense projection of the first failing error
    # both read the table
    rng = np.random.default_rng(1)
    description = random_description(rng, random_nonmaximal_spec(rng, 8, 3))
    expected = reference_nonmaximal_kl_check(description, 2)
    assert not expected.passed
    projections = []
    dense = oracle.dense_projection
    monkeypatch.setattr(oracle, "dense_projection", lambda b: projections.append(b) or dense(b))
    builds = counted_table_builds(monkeypatch)
    assert outcome(kl_check(description, 2)) == outcome(expected)
    assert projections == [description] and builds == [description.spec]


def test_a_cached_subgroup_table_is_refused_under_a_smaller_group():
    _, b = distance2_family(5, 2)
    u = b.sorted_members()[0]
    _subgroup_keys.cache_clear()
    state = codeword(b, u)  # the table is built and cached under the default budget
    with budget(group=31):
        with pytest.raises(ValueError, match="subgroup size 32 exceeds cap 31"):
            codeword(b, u)
    assert _subgroup_keys.cache_info().currsize == 1
    with budget(group=32):
        again = codeword(b, u)
    assert _subgroup_keys.cache_info().misses == 1
    assert np.array_equal(again.amps.view(np.uint64), state.amps.view(np.uint64))
    # the non-maximal reader: the dense projection
    rng = np.random.default_rng(1)
    description = random_description(rng, random_nonmaximal_spec(rng, 5, 2))
    built = dense_projection(description)
    with budget(group=3), pytest.raises(ValueError, match="subgroup size 4 exceeds cap 3"):
        dense_projection(description)
    assert _subgroup_keys.cache_info().currsize == 1
    with budget(group=4):
        again = dense_projection(description)
    assert _subgroup_keys.cache_info().misses == 2  # one build for each spec
    assert np.array_equal(again.view(np.uint64), built.view(np.uint64))


def test_the_cached_subgroup_table_is_read_only_packed_keys():
    spec = distance2_family(5, 3)[0]
    _, la, ma, rho = spec_tables(spec)
    keys = _subgroup_keys(spec)
    assert _subgroup_keys(spec) is keys
    for cached, expected in zip(keys, (pack(la, 3), pack(ma, 3), rho)):
        assert np.array_equal(cached, expected) and not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 1


def test_packed_index_refuses_int64_overflow():
    assert len(SparseState.basis_word(Z2, (0,) * 63)) == 1
    with pytest.raises(ValueError, match="overflows int64"):
        SparseState.basis_word(Z2, (0,) * 64)


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
    forbidden = sorted(forbidden_members(forbidden_set(spec, d), spec.q, spec.r))
    if forbidden and draw(st.booleans()):
        f = np.array(draw(st.sampled_from(forbidden)))
        base = np.array(draw(st.sampled_from(description.sorted_members())))
        bad_member = tuple(int(v) for v in (base + f) % q)
        description = FourierDescription(spec, description.members | {bad_member})
    return description, d


@settings(max_examples=60)
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


def reference_projection(spec, tables, u):
    """(column, word): the codeword of u built on its own, as a dense column,
    and the index of the basis word whose image under the projection gave it."""
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    a_rows, la, ma, rho = tables
    chi = (unit * ((a_rows @ np.array(u, dtype=np.int64)) % q)) % p
    roots = root_table(p)
    for word, w_tuple in enumerate(itertools.product(range(q), repeat=n)):
        targets, exponents = shift_phase(np.array(w_tuple, dtype=np.int64), la, ma, q)
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
    tables = spec_tables(description.spec)
    columns, words = zip(*(reference_projection(description.spec, tables, u) for u in members))
    expected = np.column_stack(columns)
    _cached_basis.cache_clear()
    basis = _basis_matrix(description)
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


@settings(max_examples=50)
@given(maximal_member_sets())
def test_projected_basis_is_bit_equal_to_the_per_member_projection(description):
    assert_basis_matches_reference(description)


def test_projected_basis_advances_past_vanishing_words():
    # a member's codeword lies on the words whose digits sum to n * delta, so
    # members with n * delta != 0 mod q vanish on word 0 and take a later word
    for description in (distance2_family(5, 3)[1], distance2_family(5, 5)[1]):
        words = assert_basis_matches_reference(description)
        assert min(words) == 0 and max(words) > 0


def per_word_projected_basis(spec, members):
    """The basis of a maximal spec as the word loop built it before the
    characters were one product: a character column per member and per
    word, and remainders taken with %."""
    q, n, p = spec.q, spec.n, spec.phase_denominator
    unit = p // q
    a_rows, la, ma, rho = spec_tables(spec)
    roots = root_table(p)
    dim = q**n
    basis = np.zeros((dim, len(members)), dtype=complex)
    pending = list(range(len(members)))
    for word in range(dim):
        if not pending:
            break
        digits = unpack([word], q, n)[0]
        targets = ((digits + la) % q) @ (q ** np.arange(n - 1, -1, -1))
        phases = rho + unit * ((ma @ digits) % q)
        waiting = []
        for col in pending:
            chi = unit * ((a_rows @ np.array(members[col], dtype=np.int64)) % q)
            image = np.zeros(dim, dtype=complex)
            np.add.at(image, targets, roots[(phases - chi) % p])
            image /= spec.size
            norm = np.linalg.norm(image)
            if norm > 1e-8:
                support = np.nonzero(np.abs(image) > PRUNE_TOL)[0]
                amps = image[support] / norm
                keep = np.abs(amps) > PRUNE_TOL
                basis[support[keep], col] = amps[keep]
            else:
                waiting.append(col)
        pending = waiting
    return basis


def crosscheck_maximal_descriptions():
    """Random and greedy descriptions on the maximal shapes (q, n) that the
    crosscheck benchmark draws, three specs per shape."""
    rng = np.random.default_rng(1)
    for q, n in ((2, 6), (2, 7), (3, 4), (3, 5), (5, 3), (5, 4)):
        for _ in range(3):
            spec = random_maximal_spec(rng, n, q)
            yield random_description(rng, spec)
            if purity_radius(spec, 2) is None:
                yield greedy_construct(spec, 2)


def test_projected_basis_is_bit_equal_to_the_per_word_loop():
    descriptions = [code_15_8_3(), distance2_family(7, 3)[1], *crosscheck_maximal_descriptions()]
    for description in descriptions:
        members = description.sorted_members()
        spec = description.spec
        got = _projected_basis(spec, members, _characters(members, spec.q, spec.n))
        expected = per_word_projected_basis(spec, members)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_kl_check_never_unpacks_the_words(monkeypatch):
    from nonstab import oracle

    sizes = []
    unpack_ = oracle.unpack

    def counted(keys, q, width):
        sizes.append(len(keys))
        return unpack_(keys, q, width)

    monkeypatch.setattr(oracle, "unpack", counted)
    # code15 at d = 3: the weight enumerators pass all 990 errors
    description = code_15_8_3()
    _basis_matrix(description)
    sizes.clear()
    assert kl_check(description, 3).passed and sizes == []
    # d2 (5, 2) at d = 3: K = 6 exceeds the Singleton bound, and the errors
    # of the witness walk are applied to the packed words 0 .. 2^5 - 1
    _, description = distance2_family(5, 2)
    _basis_matrix(description)
    sizes.clear()
    assert not kl_check(description, 3).passed and sizes == []


def reference_nonmaximal_kl_check(description, d, tol=1e-9):
    """kl_check on a non-maximal spec as the dense per-error loop: P E P
    against phi(E) P on the dense projection, one error at a time, in
    canonical order."""
    spec = description.spec
    q, n = spec.q, spec.n
    xs, ys = bounded_pair_arrays(q, n, min(d - 1, n))
    projection = dense_projection(description)
    trace = np.trace(projection).real
    for x, y in zip(xs, ys):
        moved, _ = weyl_times(projection, x, y, q)
        pgp = projection @ moved
        deviation = np.abs(pgp - np.trace(pgp) / trace * projection).max()
        if deviation > tol:
            witness = {"error": {"x": x.tolist(), "y": y.tolist()}, "value": float(deviation)}
            return Report(False, witness=witness)
    return Report(True, counts={"errors": int(xs.shape[0])})


NONMAXIMAL_DIGITS = {2: (3, 7), 3: (2, 4), 5: (2, 3)}


@st.composite
def nonmaximal_descriptions(draw):
    """(description, d) over a random spec with r < n and L of any rank: a
    random description, the single member 0, or the greedy code where the
    spec is d-pure.  Small draws give many digits and r = n - 1, where
    more codes pass."""
    q = draw(st.sampled_from(sorted(NONMAXIMAL_DIGITS)))
    d = draw(st.sampled_from([2, 3]))
    low, high = NONMAXIMAL_DIGITS[q]
    n = high - draw(st.integers(0, high - low))
    r = n - 1 - draw(st.integers(0, n - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_stabilizer_spec(rng, n, r, q)
    kind = draw(st.sampled_from(["random", "zero", "greedy"]))
    if kind == "greedy" and purity_radius(spec, d) is None:
        return greedy_construct(spec, d), d
    if kind == "random":
        return random_description(rng, spec), d
    return FourierDescription(spec, frozenset({(0,) * r})), d


def outcome(report):
    return report.passed, report.counts, report.witness


@settings(max_examples=80)
@given(nonmaximal_descriptions())
def test_nonmaximal_kl_check_matches_the_dense_per_error_loop(case):
    description, d = case
    got = kl_check(description, d)
    event(f"passed={got.passed}")
    assert outcome(got) == outcome(reference_nonmaximal_kl_check(description, d))


@st.composite
def odd_rank_descriptions(draw):
    """A random description over a random spec with r = 1, where the leading
    half of an element index is empty, or r = 3; the dense dimension stays
    at most 625."""
    q, r = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 3]))
    n = r + draw(st.integers(1, 1 if q == 5 else 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_description(rng, random_stabilizer_spec(rng, n, r, q))


@settings(max_examples=80)
@given(st.one_of(
    maximal_member_sets(), nonmaximal_descriptions().map(lambda case: case[0]), odd_rank_descriptions()
))
def test_the_subgroup_table_readers_are_bit_equal_to_the_digit_table_references(description):
    spec, members = description.spec, description.sorted_members()
    q, maximal = spec.q, spec.is_maximal()
    event(f"maximal={maximal} r={spec.r}")
    # the table itself, built from two half tables, and its dtypes
    _, la, ma, rho = spec_tables(spec)
    for got, want in zip(_subgroup_keys(spec), (pack(la, q), pack(ma, q), rho)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    if spec.quad_upper is not None:  # z^T Q z at the words z of every offset
        for delta in range(q):
            _, zs, quad_phase = closed_form_terms(spec, delta)
            got = root_table(q)[_closed_form_exponents(spec)[pack(zs, q)]]
            assert np.array_equal(got.view(np.uint64), quad_phase.view(np.uint64))
    if maximal:
        basis = _projected_basis(spec, members, _characters(members, q, spec.n))
        expected = per_word_projected_basis(spec, members)
        assert np.array_equal(basis.view(np.uint64), expected.view(np.uint64))
    got, want = dense_projection(description), reference_dense_projection(description)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    got, want = projection_coefficients(description), reference_projection_coefficients(description)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    # u . a of every member and element: V_u on the element indices
    a_rows = unpack(np.arange(spec.size), q, spec.r)
    expected = shift_phase(a_rows, 0, description.member_array[:, None, :], q)[1]
    assert np.array_equal(_characters(members, q, spec.r), expected)


def stabilizer_code(q, x_rows, z_rows):
    """The description {0} over the stabilizer group whose generators have
    the given U-parts (x) and V-parts (z), entries taken mod q."""
    l_mat, m_mat = np.array(x_rows).T % q, np.array(z_rows).T % q
    spec = GottesmanSpec(q=q, L=l_mat, M=m_mat, D=synthesize_phase_matrix(q, l_mat, m_mat))
    assert validate(spec) == []
    return FourierDescription(spec, frozenset({(0,) * spec.r}))


def code_4_2_2(q):
    """[[4,2,2]]_q: X X X X and Z Z^-1 Z Z^-1."""
    return stabilizer_code(q, [(1, 1, 1, 1), (0, 0, 0, 0)], [(0, 0, 0, 0), (1, -1, 1, -1)])


def code_5_1_3(q):
    """[[5,1,3]]_q: the cyclic shifts of X Z Z^-1 X^-1 I."""
    shifts = range(4)
    return stabilizer_code(
        q,
        [np.roll((1, 0, 0, -1, 0), k) for k in shifts],
        [np.roll((0, 1, -1, 0, 0), k) for k in shifts],
    )


def code_3_1_2_5():
    """[[3,1,2]]_5: X X X and Z Z Z^-2."""
    return stabilizer_code(5, [(1, 1, 1), (0, 0, 0)], [(0, 0, 0), (1, 1, -2)])


@pytest.mark.parametrize(
    "code, q, d, errors",
    [
        (code_4_2_2, 2, 2, 12),
        (code_4_2_2, 3, 2, 32),
        (code_5_1_3, 2, 2, 15),
        (code_5_1_3, 2, 3, 105),
        (code_5_1_3, 3, 2, 40),
        (code_5_1_3, 3, 3, 680),
    ],
)
def test_stabilizer_codes_pass_on_the_screen_alone(monkeypatch, code, q, d, errors):
    from nonstab import oracle

    description = code(q)
    expected = reference_nonmaximal_kl_check(description, d)
    assert expected.passed and expected.counts == {"errors": errors}
    built = []
    monkeypatch.setattr(oracle, "dense_projection", built.append)
    assert outcome(kl_check(description, d)) == outcome(expected)
    assert built == []  # the weight enumerators pass every error, with no state built


def test_nonmaximal_confirmation_builds_the_projection_once(monkeypatch):
    from nonstab import oracle

    # a passing code builds no projection, and a failing one builds it once
    builds = []
    dense = oracle.dense_projection
    monkeypatch.setattr(oracle, "dense_projection", lambda b: builds.append(b) or dense(b))
    rng = np.random.default_rng(1)
    failing = random_description(rng, random_nonmaximal_spec(rng, 5, 2))
    for description, d in ((code_5_1_3(2), 3), (code_4_2_2(3), 2), (failing, 2)):
        builds.clear()
        expected = reference_nonmaximal_kl_check(description, d)
        assert outcome(kl_check(description, d)) == outcome(expected)
        assert len(builds) == (0 if expected.passed else 1)
    assert not expected.passed


def test_nonmaximal_kl_check_neither_screens_nor_frames(monkeypatch):
    from nonstab import oracle

    # no codeword basis, and one confirmation on the dense projection for a
    # failing code: the first error that the residual flags is the witness
    def refused(*args):
        raise AssertionError("a non-maximal check reached the codeword basis")

    monkeypatch.setattr(oracle, "_basis_matrix", refused)
    monkeypatch.setattr(oracle, "_gram_witness", refused)
    confirmed = []
    witness = oracle._projection_witness
    monkeypatch.setattr(oracle, "_projection_witness", lambda *a: confirmed.append(a) or witness(*a))
    cases = [(code_4_2_2(2), 2, True), (code_5_1_3(2), 3, True), (code_4_2_2(3), 2, True),
             (code_3_1_2_5(), 2, True)]
    rng = np.random.default_rng(1)
    for q in (2, 3, 5):
        cases.append((random_description(rng, random_nonmaximal_spec(rng, 3, 2, q)), 2, False))
    for description, d, passes in cases:
        expected = reference_nonmaximal_kl_check(description, d)
        assert expected.passed == passes
        confirmed.clear()
        assert outcome(kl_check(description, d)) == outcome(expected)
        assert len(confirmed) == (0 if passes else 1)


@settings(max_examples=40)
@given(nonmaximal_descriptions())
def test_code_space_basis_of_a_nonmaximal_spec(case):
    description, _ = case
    # the eigenvectors of eigenvalue 1 of the dense projection span the code
    projection = dense_projection(description)
    np.testing.assert_allclose(projection, projection.conj().T, rtol=0, atol=1e-12)
    values, vectors = np.linalg.eigh(projection)
    basis = vectors[:, values > 0.5]
    assert basis.shape[1] == code_dimension(description)
    assert np.abs(values[values > 0.5] - 1).max() <= BASIS_TOL
    assert np.abs(values[values <= 0.5]).max(initial=0) <= BASIS_TOL
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(len(gram))).max() <= BASIS_TOL
    np.testing.assert_allclose(basis @ basis.conj().T, projection, rtol=0, atol=1e-10)


def test_nonmaximal_kl_check_peak_memory():
    import tracemalloc

    # q = 2, n = 8, r = 3 and a description whose first error fails: the
    # dense projection is built and that error confirmed on it.  The dense
    # per-error loop peaked at 5,272,135 bytes here.
    rng = np.random.default_rng(1)
    description = random_description(rng, random_nonmaximal_spec(rng, 8, 3))
    expected = reference_nonmaximal_kl_check(description, 2)
    assert not expected.passed
    kl_check(description, 2)  # cached tables built outside the trace
    tracemalloc.start()
    try:
        report = kl_check(description, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome(report) == outcome(expected)
    assert peak <= 5_272_135


def test_kl_check_refuses_distance_below_one():
    _, b = distance2_family(5, 2)
    for d in (0, -1):
        with pytest.raises(ValueError, match=r"^d must be >= 1$"):
            kl_check(b, d)


def enumerator_failures(description, d):
    """The weights j < d at which q^n alpha_j != K sum_w alpha_w K_j(w), with
    alpha_w summed in floats from the projection coefficients and the
    elements' weights, and the Krawtchouk values by their definition."""
    spec = description.spec
    q, n, size = spec.q, spec.n, spec.size
    alpha = np.zeros(n + 1)
    coeffs = projection_coefficients(description)
    for a, t_a in zip(unpack(np.arange(size), q, spec.r), coeffs):
        element = spec.element(a)
        alpha[sum(1 for x, y in zip(element.a, element.b) if x or y)] += abs(t_a * size) ** 2
    assert np.abs(alpha - np.rint(alpha)).max() < 1e-6
    alpha = [int(v) for v in np.rint(alpha)]

    def krawtchouk(j, w):
        return sum((-1) ** s * (q * q - 1) ** (j - s) * math.comb(w, s) * math.comb(n - w, j - s)
                   for s in range(j + 1))

    dim = code_dimension(description)
    return [j for j in range(1, min(d - 1, n) + 1)
            if q**n * alpha[j] != dim * sum(a * krawtchouk(j, w) for w, a in enumerate(alpha))]


STABILIZER_CASES = [(code(q), d) for code, q in ((code_4_2_2, 2), (code_4_2_2, 3), (code_5_1_3, 2))
                    for d in (2, 3)] + [(code_5_1_3(2), 4), (code_5_1_3(3), 2), (code_3_1_2_5(), 2),
                                        (code_3_1_2_5(), 3)]


@settings(max_examples=60)
@given(st.one_of(maximal_descriptions(), nonmaximal_descriptions(), st.sampled_from(STABILIZER_CASES)))
def test_kl_check_decides_each_weight_like_the_dense_reference(case):
    description, d = case
    maximal = description.spec.is_maximal()
    expected = (reference_kl_check if maximal else reference_nonmaximal_kl_check)(description, d)
    got = kl_check(description, d)
    event(f"maximal={maximal} passed={got.passed}")
    assert outcome(got) == outcome(expected)
    # the first failing weight is the weight of the witness error
    failures = enumerator_failures(description, d)
    if expected.passed:
        assert failures == []
    else:
        error = expected.witness["error"]
        assert failures[0] == sum(1 for x, y in zip(error["x"], error["y"]) if x or y)


def test_a_passing_maximal_kl_check_builds_no_basis(monkeypatch):
    from nonstab import oracle

    builds, applied = [], []
    projected = oracle._projected_basis
    monkeypatch.setattr(oracle, "_projected_basis", lambda *a: builds.append(a) or projected(*a))
    times = oracle._weyl_times
    monkeypatch.setattr(oracle, "_weyl_times", lambda *a: applied.append(a) or times(*a))
    _, d2 = distance2_family(5, 2)
    for description, d in ((d2, 2), (distance2_family(5, 3)[1], 2), (code_15_8_3(), 3)):
        assert kl_check(description, d).passed
        assert builds == [] and applied == []
    # at d = 3 d2 (5, 2) fails: the basis is built once, for the witness walk
    oracle._cached_basis.cache_clear()
    report = kl_check(d2, 3)
    assert not report.passed and len(builds) == 1 and len(applied) >= 1


def test_a_failing_walk_reads_one_error_sphere(monkeypatch):
    from nonstab import oracle

    # the errors, their shift keys and their subgroup elements come from one
    # `_sphere` pass, up to the weight of the witness
    spheres = []
    sphere = oracle._sphere
    monkeypatch.setattr(oracle, "_sphere", lambda *a: spheres.append(a[1]) or sphere(*a))
    rng = np.random.default_rng(1)
    nonmaximal = random_description(rng, random_nonmaximal_spec(rng, 8, 3))
    for description, d, weight in ((code_15_8_3(), 4, 3), (nonmaximal, 2, 1)):
        spheres.clear()
        report = kl_check(description, d)
        error = report.witness["error"]
        assert not report.passed and spheres == [weight]
        assert sum(1 for x, y in zip(error["x"], error["y"]) if x or y) == weight


def dense_residuals(description, xs, ys):
    """||X - c P||_F^2 of X = P E P, c = tr(X) / K, for each error E = U_x V_y:
    as the Gram V^H E V - c I on the codeword matrix V (maximal specs), or on
    the dense projection (any other spec)."""
    spec = description.spec
    if spec.is_maximal():
        operand = codeword_matrix(description)
        frame, unit = operand.conj().T, np.eye(operand.shape[1])
    else:
        operand = frame = unit = dense_projection(description)
    dim = code_dimension(description)
    residuals = []
    for x, y in zip(xs, ys):
        product = frame @ weyl_times(operand, x, y, spec.q)[0]
        residuals.append(np.sum(np.abs(product - np.trace(product) / dim * unit) ** 2))
    return np.array(residuals)


@settings(max_examples=60)
@given(st.one_of(maximal_descriptions(), nonmaximal_descriptions()))
def test_the_walk_confirms_exactly_the_errors_of_nonzero_residual(case):
    from nonstab import oracle

    # the errors handed to `_weyl_times` are those of weight <= j, in
    # canonical order and up to the witness, whose dense residual is not 0;
    # with every confirmation made to pass, the walk hands over all of them
    description, d = case
    spec = description.spec
    report = kl_check(description, d)
    event(f"maximal={spec.is_maximal()} passed={report.passed}")
    if report.passed:
        j = min(d - 1, spec.n)
    else:
        error = report.witness["error"]
        j = sum(1 for x, y in zip(error["x"], error["y"]) if x or y)
    xs, ys = bounded_pair_arrays(spec.q, spec.n, j)
    residuals = dense_residuals(description, xs, ys)
    assert np.all((residuals < 1e-9) | (residuals > 0.1))  # 0 or bounded away from it
    nonzero = [(x.tolist(), y.tolist()) for x, y, res in zip(xs, ys, residuals) if res > 0.1]
    assert all(np.count_nonzero(np.array(x) | np.array(y)) == j for x, y in nonzero)
    if report.passed:
        assert nonzero == []
        return
    witness = (report.witness["error"]["x"], report.witness["error"]["y"])
    confirmed = []
    times = oracle._weyl_times

    def recorded(x, y, *rest):
        confirmed.append((x.tolist(), y.tolist()))
        return times(x, y, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_weyl_times", recorded)
        assert outcome(kl_check(description, d)) == outcome(report)
        assert confirmed == nonzero[: nonzero.index(witness) + 1]
        confirmed.clear()
        patch.setattr(oracle, "_gram_witness", lambda *a: None)
        patch.setattr(oracle, "_projection_witness", lambda *a: None)
        with pytest.raises(ValueError, match=f"no error of weight {j} fails within KL_TOL"):
            kl_check(description, d)
        assert confirmed == nonzero
