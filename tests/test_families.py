import itertools
from fractions import Fraction

import numpy as np
import pytest

from nonstab.families import (
    LAFLAMME_15_8_3_SETS,
    SetFamily,
    alpha_good,
    alpha_good_spec,
    circulant_coupling,
    code_15_8_3,
    distance2_family,
    family_to_b,
    laflamme_spec,
    maximal_form_spec,
    puncture,
    search_alpha_good,
    subspace_family,
    unit_vector,
)
from nonstab.fourier_code import code_dimension, greedy_construct, verify_distance
from nonstab.galois import gaussian_binomial, unpack
from nonstab.gottesman import forbidden_set, purity_radius, validate
from nonstab.oracle import kl_check


def closed_form_forbidden_parts(n, q=2):
    """The four generating subsets of the distance-2 forbidden set, spelled
    out with the formal-index convention (e_0 = e_n, indices mod n)."""
    m = (n - 1) // 2
    e = lambda j: unit_vector(n, j)
    ones = np.ones(n, dtype=np.int64)
    r1, r2, r3, r4 = set(), set(), set(), set()
    for a in range(q):
        for b in range(q):
            if a == 0 and b == 0:
                continue
            r1.add(tuple((a * (e(m) + e(m + 1)) + b * e(0) + (a - b) * ones) % q))
            r2.add(tuple((a * (e(0) + e(1)) + b * e(m + 1)) % q))
            r3.add(tuple((a * (e(0) + e(n - 1)) + b * e(m)) % q))
            for j in range(1, n):
                if j in (m, m + 1):
                    continue
                r4.add(tuple((a * (e(j + m) + e(j + m + 1)) + b * e(j) + a * ones) % q))
    return r1, r2, r3, r4


def test_distance2_family_params():
    for n, q, passes in ((5, 2, True), (7, 2, True), (5, 3, True), (3, 2, False)):
        spec, b = distance2_family(n, q)
        assert validate(spec) == []
        assert code_dimension(b) == 1 + n * (q - 1)
        assert verify_distance(b, 2).passed == passes
    with pytest.raises(ValueError):
        distance2_family(4, 2)


def test_distance2_family_n3_is_impossible():
    # F_2 covers every nonzero index at n = 3, so no multi-dimensional
    # distance-2 code exists on this subgroup (Singleton: K <= 2^(n-2))
    spec, b = distance2_family(3, 2)
    assert forbidden_set(spec, 2).members == {
        u for u in itertools.product(range(2), repeat=3) if any(u)
    }
    assert not verify_distance(b, 2).passed
    assert not kl_check(b, 2).passed  # the state-vector oracle agrees


def test_forbidden_set_matches_closed_form_parts():
    for n in (3, 5, 7):
        spec, _ = distance2_family(n, 2)
        r1, r2, r3, r4 = closed_form_forbidden_parts(n)
        assert forbidden_set(spec, 2).members == r1 | r2 | r3 | r4


def test_difference_set_avoids_forbidden_parts():
    for n in (5, 7):
        spec, b = distance2_family(n, 2)
        diffs = set(map(tuple, unpack(b.difference_keys(), 2, n).tolist())) - {(0,) * n}
        for part in closed_form_forbidden_parts(n):
            assert not (diffs & part)


def test_circulant_coupling_shape():
    s = circulant_coupling(5)
    assert np.array_equal(s, s.T)
    assert not np.any(np.diag(s))
    assert np.all(s.sum(axis=0) == 2)
    # first row has its ones at positions m+1, m+2
    assert list(np.nonzero(s[0])[0]) == [2, 3]
    with pytest.raises(ValueError):
        circulant_coupling(4)


def test_laflamme_spec_basics():
    spec = laflamme_spec(7)
    assert validate(spec) == []
    assert spec.is_maximal()
    assert purity_radius(spec, 3) is None
    f2 = forbidden_set(laflamme_spec(15), 2)
    assert f2.weights() == {1, 2, 3, 12, 13, 14}


def test_code_15_8_3():
    b = code_15_8_3()
    assert code_dimension(b) == 8
    sizes = {
        len(s1 ^ s2) for s1, s2 in itertools.combinations(LAFLAMME_15_8_3_SETS, 2)
    }
    assert sizes == {7, 8}
    assert verify_distance(b, 3).passed


def test_subspace_family_counts():
    family = subspace_family(5, 3, 2)
    assert len(family) == 155 == gaussian_binomial(5, 2, 3)
    assert all(len(s) == 8 for s in family.members)
    assert family.symmetric_difference_sizes() == {8, 12}
    for m in range(1, 6):
        for r in range(m + 1):
            assert len(subspace_family(m, r, 2)) == gaussian_binomial(m, 2, r)
    for m in range(1, 4):
        for r in range(m + 1):
            assert len(subspace_family(m, r, 3)) == gaussian_binomial(m, 3, r)


def test_subspace_family_zero_dim():
    family = subspace_family(3, 0, 2)
    assert len(family) == 1
    assert family.members[0] == frozenset({1})  # label of the zero vector


def test_subspace_members_are_subspaces():
    # closure under addition, spot-checked via labels
    family = subspace_family(4, 2, 2)
    m = 4
    powers = 2 ** np.arange(m - 1, -1, -1)
    for member in family.members[:10]:
        vectors = [np.array([(label - 1) // p % 2 for p in powers]) for label in member]
        for v1, v2 in itertools.product(vectors, repeat=2):
            label = int((v1 + v2) % 2 @ powers) + 1
            assert label in member


def test_family_to_b_33():
    b = family_to_b(subspace_family(5, 3, 2), 33)
    assert code_dimension(b) == 155
    assert verify_distance(b, 3).passed


def test_family_to_b_same_data_path_as_code15():
    direct = family_to_b(SetFamily(15, LAFLAMME_15_8_3_SETS), 15)
    assert direct.members == code_15_8_3().members


def test_family_to_b_rejects_banned_difference():
    bad = SetFamily(15, (frozenset({1, 2}), frozenset({1, 3, 4, 5})))  # symdiff 4
    with pytest.raises(ValueError, match="banned size 4"):
        family_to_b(bad, 15)
    too_big = SetFamily(40, (frozenset({40}),))
    with pytest.raises(ValueError, match="does not embed"):
        family_to_b(too_big, 33)


def test_puncture_155_family():
    family = subspace_family(5, 3, 2)
    punctured = puncture(family, 32)
    assert len(punctured) == 155
    assert punctured.universe == 31
    sizes = punctured.symmetric_difference_sizes()
    assert sizes == {7, 8, 11, 12}
    assert all(7 <= s <= 13 for s in sizes)
    b = family_to_b(punctured, 31)
    assert verify_distance(b, 3).passed


def test_puncture_untouched_coordinate():
    family = SetFamily(4, (frozenset({1}), frozenset({2})))
    out = puncture(family, 4)
    assert out.members == family.members and out.universe == 3


def test_puncture_collapse_error():
    family = SetFamily(2, (frozenset({1}), frozenset({1, 2})))
    with pytest.raises(ValueError, match="collapses"):
        puncture(family, 2)


def test_alpha_good_identity_fixture():
    # identity: any t-column sum has weight t; passes iff t >= alpha n and
    # t <= (1 - alpha) n
    eye = np.eye(12, dtype=np.int64)
    assert alpha_good(eye, Fraction(1, 6)).passed  # t = 2 = alpha n
    report = alpha_good(eye, Fraction(1, 4))  # t = 3 < alpha n = 3? 3 >= 3 ok
    assert report.passed
    report = alpha_good(np.eye(10, dtype=np.int64), Fraction(7, 20))  # t=3 < 3.5
    assert not report.passed and report.failed_condition == 1


def test_alpha_good_all_ones_fails_first_condition():
    ones = np.ones((12, 12), dtype=np.int64)
    report = alpha_good(ones, Fraction(1, 6))  # two equal columns sum to zero
    assert not report.passed
    assert report.failed_condition == 1
    assert len(report.witness) == 2


def test_alpha_good_requires_positive_t():
    with pytest.raises(ValueError):
        alpha_good(np.eye(3, dtype=np.int64), Fraction(1, 6))


def test_alpha_good_search_and_spec():
    found = search_alpha_good(12, Fraction(1, 6), attempts=200, seed=7)
    assert found is not None, "seeded search should find an alpha-good matrix"
    matrix, attempt = found
    assert alpha_good(matrix, Fraction(1, 6)).passed
    spec = alpha_good_spec(matrix)
    assert validate(spec) == []
    assert spec.n == 24 and spec.is_maximal()
    assert purity_radius(spec, 2) is None  # floor(alpha n) = 2


def test_alpha_good_spec_structure():
    spec = alpha_good_spec(np.eye(2, dtype=np.int64))
    assert validate(spec) == []
    upper = spec.quad_upper
    big = np.zeros((4, 4), dtype=np.int64)
    big[:2, 2:] = np.eye(2)
    big[2:, :2] = np.eye(2)
    assert np.array_equal((upper + upper.T) % 2, big)
    assert not np.any(np.tril(upper))  # strictly upper triangular


def test_alpha_good_spec_supports_greedy_bound():
    found = search_alpha_good(6, Fraction(1, 3), attempts=500, seed=3)
    if found is None:
        pytest.skip("no alpha-good seed at n=6 within budget")
    spec = alpha_good_spec(found[0])
    t = 2
    assert purity_radius(spec, t) is None
    result = greedy_construct(spec, t)
    x = len(forbidden_set(spec, t))
    assert len(result) >= spec.size // x
    assert verify_distance(result, t).passed


def test_maximal_form_spec_rejects_bad_upper():
    with pytest.raises(ValueError):
        maximal_form_spec(2, 3, np.ones((3, 3), dtype=np.int64))  # not upper
    with pytest.raises(ValueError):
        maximal_form_spec(2, 3, np.triu(np.full((3, 3), 2, dtype=np.int64)))


def test_set_family_validation():
    with pytest.raises(ValueError):
        SetFamily(3, (frozenset({1}), frozenset({1})))
    with pytest.raises(ValueError):
        SetFamily(3, (frozenset({4}),))
