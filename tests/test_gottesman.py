import itertools

import numpy as np
import pytest
from conftest import brute_force_forbidden, random_maximal_spec, random_nonmaximal_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstab.families import distance2_family, laflamme_spec
from nonstab.gottesman import (
    GottesmanSpec,
    character_exponent,
    forbidden_set,
    low_weight_members,
    purity_radius,
    synthesize_phase_matrix,
    validate,
)
from nonstab.weyl import WeylElement, compose, dense_matrix, gamma, phase_value


def weight_one_member_spec():
    """S = {I, U_{e_1}} on two digits: contains a weight-1 element."""
    return GottesmanSpec(q=2, L=[[1], [0]], M=[[0], [0]], D=[[0]])


def test_validate_distance2_spec():
    spec, _ = distance2_family(5, 2)
    assert validate(spec) == []


def test_validate_rejects_missing_quarter_phase():
    # L = M = [1] over GF(2) with trivial phases: (U_1 V_1)^2 = -I, not closed
    spec = GottesmanSpec(q=2, L=[[1]], M=[[1]], D=[[0]])
    violations = validate(spec)
    assert any("cocycle" in v for v in violations)


def test_validate_accepts_quarter_phase():
    # D = [1] gives the subgroup {I, i U_1 V_1}
    spec = GottesmanSpec(q=2, L=[[1]], M=[[1]], D=[[1]])
    assert validate(spec) == []
    s1 = spec.element([1])
    assert s1.phase_factor() == pytest.approx(1j)
    # matrix oracle: (i X Z)^2 = +I
    m = dense_matrix(s1)
    np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)
    assert compose(s1, s1) == WeylElement.identity(spec.group, 1)


def test_synthesize_phase_matrix_requires_symmetry():
    with pytest.raises(ValueError):
        synthesize_phase_matrix(2, [[1, 0], [0, 1]], [[0, 1], [0, 0]])


def test_synthesized_phases_validate_for_random_pairs():
    rng = np.random.default_rng(2)
    for q in (2, 3, 5):
        for _ in range(8):
            n, r = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            l_mat = rng.integers(0, q, size=(n, r))
            sym = rng.integers(0, q, size=(n, n))
            sym = (sym + sym.T) % q
            m_mat = (sym @ l_mat) % q
            d_mat = synthesize_phase_matrix(q, l_mat, m_mat)
            spec = GottesmanSpec(q=q, L=l_mat, M=m_mat, D=d_mat)
            violations = validate(spec)
            # injectivity may legitimately fail for a random L; phases may not
            assert all("cocycle" not in v and "commute" not in v for v in violations)


def test_element_identity_and_unrolled_definition():
    spec = laflamme_spec(15)
    assert spec.element(np.zeros(15, dtype=int)) == WeylElement.identity(spec.group, 15)
    e1 = np.eye(15, dtype=int)[0]
    el = spec.element(e1)
    assert el.a == tuple(spec.L[:, 0])
    assert el.b == tuple(spec.M[:, 0])


def test_element_homomorphism_random():
    rng = np.random.default_rng(9)
    specs = (
        distance2_family(5, 2)[0],
        distance2_family(5, 3)[0],
        laflamme_spec(7),
        laflamme_spec(33),
    )
    for spec in specs:
        for _ in range(25):
            a = rng.integers(0, spec.q, spec.r)
            b = rng.integers(0, spec.q, spec.r)
            assert compose(spec.element(a), spec.element(b)) == spec.element((a + b) % spec.q)


def test_character_examples():
    spec, _ = distance2_family(5, 2)
    zero = np.zeros(5, dtype=int)
    for a in np.eye(5, dtype=int):
        assert character_exponent(spec, zero, a) == 0
    spec2 = laflamme_spec(5)
    u = np.array([1, 1, 0, 0, 0])
    a = np.array([1, 0, 0, 0, 0])
    p = spec2.phase_denominator
    assert character_exponent(spec2, u, a) == p // 2
    assert phase_value(p // 2, p) == pytest.approx(-1)


def test_character_orthogonality():
    for q, r in ((2, 3), (3, 2)):
        spec = GottesmanSpec(
            q=q,
            L=np.vstack([np.eye(r, dtype=int), np.zeros((1, r), dtype=int)]),
            M=np.zeros((r + 1, r), dtype=int),
            D=np.zeros((r, r), dtype=int),
        )
        p = spec.phase_denominator
        for u in itertools.product(range(q), repeat=r):
            total = sum(
                phase_value(character_exponent(spec, u, a), p)
                for a in itertools.product(range(q), repeat=r)
            )
            if any(u):
                assert abs(total) < 1e-12
            else:
                assert total == pytest.approx(q**r)


def test_purity_examples():
    spec, _ = distance2_family(5, 2)
    assert purity_radius(spec, 2) is None  # 2-pure
    assert purity_radius(laflamme_spec(15), 3) is None  # 3-pure
    assert purity_radius(weight_one_member_spec(), 2) == 1


def test_purity_implies_no_low_weight_members():
    for spec in (distance2_family(5, 2)[0], laflamme_spec(7), laflamme_spec(15)):
        cutoff = 3
        if purity_radius(spec, cutoff) is None:
            assert low_weight_members(spec, cutoff - 1) == []


def test_forbidden_set_distance2_size():
    # the n(q^2 - 1) count needs n >= 5; at n = 3 the generating vectors collide
    for n, q in ((5, 2), (7, 2), (5, 3)):
        spec, _ = distance2_family(n, q)
        assert len(forbidden_set(spec, 2)) == n * (q * q - 1)
    spec3, _ = distance2_family(3, 2)
    assert forbidden_set(spec3, 2).members == {
        u for u in itertools.product(range(2), repeat=3) if any(u)
    }


def test_forbidden_set_d1_empty():
    spec, _ = distance2_family(5, 2)
    assert len(forbidden_set(spec, 1)) == 0


def test_forbidden_weights_laflamme15():
    spec = laflamme_spec(15)
    assert forbidden_set(spec, 2).weights() == {1, 2, 3, 12, 13, 14}
    assert forbidden_set(spec, 3).weights() <= set(range(1, 7)) | set(range(9, 15))


def test_forbidden_sumset_relation_laflamme7():
    # one more error position extends the forbidden set by elementwise sums
    spec = laflamme_spec(7)
    f2 = forbidden_set(spec, 2).members | {(0,) * 7}
    f3 = forbidden_set(spec, 3).members
    sums = {
        tuple((np.array(u1) + np.array(u2)) % 2) for u1 in f2 for u2 in f2
    }
    assert {tuple(map(int, u)) for u in sums} - {(0,) * 7} == f3


def test_forbidden_set_matches_bruteforce_fixed_specs():
    for spec, d in (
        (distance2_family(5, 2)[0], 2),
        (distance2_family(7, 2)[0], 2),
        (laflamme_spec(7), 2),
        (laflamme_spec(7), 3),
        (weight_one_member_spec(), 2),
    ):
        assert forbidden_set(spec, d).members == brute_force_forbidden(spec, d)


def test_forbidden_set_matches_bruteforce_random_specs():
    rng = np.random.default_rng(31)
    for _ in range(6):
        spec = random_maximal_spec(rng, int(rng.integers(4, 7)))
        for d in (2, 3):
            assert forbidden_set(spec, d).members == brute_force_forbidden(spec, d)
    for _ in range(6):
        n = int(rng.integers(3, 6))
        spec = random_nonmaximal_spec(rng, n, int(rng.integers(1, n)))
        for d in (2, 3):
            assert forbidden_set(spec, d).members == brute_force_forbidden(spec, d)


def test_low_weight_members_examples():
    spec, _ = distance2_family(5, 2)
    assert low_weight_members(spec, 1) == []  # 2-pure: vacuous
    assert low_weight_members(spec, 0) == []
    ws = weight_one_member_spec()
    members = low_weight_members(ws, 1)
    assert len(members) == 1
    index, element = members[0]
    assert index == (1,)
    assert element.a == (1, 0) and element.b == (0, 0)


def test_enumeration_caps_are_enforced():
    spec = laflamme_spec(15)
    with pytest.raises(ValueError, match="budget"):
        forbidden_set(spec, 3, cap=10)
    with pytest.raises(ValueError, match="budget"):
        purity_radius(spec, 3, cap=10)
    with pytest.raises(ValueError, match="budget"):
        low_weight_members(spec, 2, cap=10)


def test_spec_json_roundtrip():
    spec, _ = distance2_family(5, 2)
    clone = GottesmanSpec.from_json_dict(spec.to_json_dict())
    assert np.array_equal(clone.L, spec.L)
    assert np.array_equal(clone.M, spec.M)
    assert np.array_equal(clone.D, spec.D)
    assert np.array_equal(clone.quad_upper, spec.quad_upper)
    assert clone.to_json_dict() == spec.to_json_dict()


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        GottesmanSpec(q=2, L=[[1], [0]], M=[[1]], D=[[0]])
    with pytest.raises(ValueError):
        GottesmanSpec(q=2, L=[[1]], M=[[1]], D=[[0], [0]])


def reference_validate(spec):
    """Spec invariants checked one at a time: the cocycle on every pair of
    index vectors (basis pairs first, then (e_i, (q-1) e_i), then all pairs
    in lexicographic order) and the commutator phases of group elements."""
    violations = []
    q, r = spec.q, spec.r
    f = spec.field
    g = f.matmul(spec.L.T, spec.M)
    if not np.array_equal(g, g.T):
        violations.append("L^T M is not symmetric")
    if f.rank(np.vstack([spec.L, spec.M])) != r:
        violations.append("a -> (La, Ma) is not injective (scalar elements present)")
    if spec.rho(np.zeros(r, dtype=np.int64)) != 0:
        violations.append("identity element carries a nonzero phase")
    eyes = np.eye(r, dtype=np.int64)
    vectors = np.array(list(itertools.product(range(q), repeat=r)), dtype=np.int64)
    v1 = np.vstack([np.repeat(eyes, r, axis=0), eyes, np.repeat(vectors, len(vectors), axis=0)])
    v2 = np.vstack([np.tile(eyes, (r, 1)), (q - 1) * eyes, np.tile(vectors, (len(vectors), 1))])
    p = spec.phase_denominator

    def rho(v):
        return np.einsum("ki,ij,kj->k", v, spec.D, v) % p

    lhs = (rho((v1 + v2) % q) - rho(v1) - rho(v2)) % p
    rhs = (p // q) * (np.einsum("ki,ij,kj->k", v1, g, v2) % q)
    failing = np.flatnonzero(lhs != rhs)
    if failing.size:
        k = failing[0]
        violations.append(f"phase cocycle fails at v1={v1[k].tolist()}, v2={v2[k].tolist()}")
    for i in range(r):
        for j in range(i + 1, r):
            if gamma(spec.element(eyes[i]), spec.element(eyes[j])) != 0:
                violations.append(f"generators {i} and {j} do not commute")
    return violations


@st.composite
def validation_cases(draw):
    """A valid spec over q in {2, 3, 5} with r <= 3, maximal or not, left
    alone or corrupted: a bumped D entry, D[i, i] raised by q (which every
    basis pair misses for odd q), D[i, j] and D[j, i] moved in opposite
    directions (which keeps the spec valid), an asymmetric L^T M or a
    rank-deficient [L; M]."""
    q = draw(st.sampled_from([2, 3, 5]))
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = random_maximal_spec(rng, n, q) if r == n else random_nonmaximal_spec(rng, n, r, q)
    l_mat, m_mat, d_mat = spec.L.copy(), spec.M.copy(), spec.D.copy()
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
    bump = draw(st.integers(1, 2 * q - 1))
    corruption = draw(
        st.sampled_from(["none", "phase", "odd diagonal", "balanced", "asymmetric", "rank"])
    )
    if corruption == "phase":
        d_mat[i, j] = (d_mat[i, j] + bump) % (2 * q)
    elif corruption == "odd diagonal":
        d_mat[i, i] = (d_mat[i, i] + q) % (2 * q)
    elif corruption == "balanced":
        d_mat[i, j] = (d_mat[i, j] + bump) % (2 * q)
        d_mat[j, i] = (d_mat[j, i] - bump) % (2 * q)
    elif corruption == "asymmetric":
        row = draw(st.integers(0, n - 1))
        m_mat[row, i] = (m_mat[row, i] + draw(st.integers(1, q - 1))) % q
    elif corruption == "rank":
        l_mat[:, j] = l_mat[:, i] if i != j else 0
        m_mat[:, j] = m_mat[:, i] if i != j else 0
    return GottesmanSpec(q=q, L=l_mat, M=m_mat, D=d_mat)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(validation_cases())
def test_validate_matches_the_exhaustive_reference(spec):
    assert validate(spec) == reference_validate(spec)


def test_validate_rejects_an_odd_diagonal_phase():
    # q = 3, L = I, M = 0, D = diag(0, 3): every basis pair passes, (e_1, 2 e_1) fails
    spec = GottesmanSpec(
        q=3, L=np.eye(2, dtype=np.int64), M=np.zeros((2, 2)), D=np.diag([0, 3])
    )
    assert validate(spec) == ["phase cocycle fails at v1=[0, 1], v2=[0, 2]"]
    assert validate(spec) == reference_validate(spec)


def test_validate_reports_every_noncommuting_pair_in_order():
    # L = I, M with M[1, 0] = M[2, 0] = 1: L^T M is asymmetric at (0, 1) and (0, 2)
    m_mat = np.zeros((3, 3), dtype=np.int64)
    m_mat[1, 0] = m_mat[2, 0] = 1
    spec = GottesmanSpec(q=2, L=np.eye(3, dtype=np.int64), M=m_mat, D=np.zeros((3, 3)))
    violations = validate(spec)
    assert violations[0] == "L^T M is not symmetric"
    assert violations[-2:] == [
        "generators 0 and 1 do not commute",
        "generators 0 and 2 do not commute",
    ]
    assert violations == reference_validate(spec)
