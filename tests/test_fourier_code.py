import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    forbidden_members,
    random_description,
    random_maximal_spec,
    random_nonmaximal_spec,
    weight,
    weight_lex_indices,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstab.families import code_15_8_3, distance2_family, distance2_spec, laflamme_spec
from nonstab.fourier_code import (
    FourierDescription,
    _weight_lex_keys,
    bounds,
    code_dimension,
    greedy_construct,
    projection_coefficients,
    verify_distance,
)
from nonstab.galois import pack, unpack
from nonstab.gottesman import (
    GottesmanSpec,
    bounded_pair_arrays,
    forbidden_set,
    low_weight_members,
    purity_radius,
)
from nonstab.oracle import dense_projection


def low_weight_spec():
    """S = {I, U_{e_1}} on three digits: impure, with low-weight members."""
    return GottesmanSpec(q=2, L=[[1], [0], [0]], M=[[0], [0], [0]], D=[[0]])


def test_code_dimension_values():
    spec, b = distance2_family(5, 2)
    assert code_dimension(b) == 6
    stabilizer = FourierDescription(spec, frozenset({(0,) * 5}))
    assert code_dimension(stabilizer) == 1
    assert code_dimension(code_15_8_3()) == 8
    impure = FourierDescription(low_weight_spec(), frozenset({(0,)}))
    assert code_dimension(impure) == 4  # 2^3 * 1 / 2


def test_description_validation():
    spec, _ = distance2_family(5, 2)
    with pytest.raises(ValueError):
        FourierDescription(spec, frozenset())
    with pytest.raises(ValueError):
        FourierDescription(spec, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        FourierDescription(spec, frozenset({(0, 0, 0, 0, 2)}))


def test_verify_distance_families():
    _, b5 = distance2_family(5, 2)
    assert verify_distance(b5, 2).passed
    assert verify_distance(code_15_8_3(), 3).passed


def test_verify_distance_fails_on_full_b():
    spec, _ = distance2_family(5, 2)
    full = FourierDescription(spec, frozenset(itertools.product(range(2), repeat=5)))
    report = verify_distance(full, 2)
    assert not report.passed
    assert report.witness["condition"] == 2


def test_verify_distance_condition_one():
    # S = {I, U_1} on one digit: its centralizer is its own closure, so the
    # weight-1 member only constrains characters (condition 1)
    spec = GottesmanSpec(q=2, L=[[1]], M=[[0]], D=[[0]])
    both = FourierDescription(spec, frozenset({(0,), (1,)}))
    report = verify_distance(both, 2)
    # B - B = {(0,), (1,)}: the witness is the lexicographically smallest
    # difference u with u . a != 0 for the weight-1 member a = (1,)
    assert report.to_json_dict() == {
        "pass": False,
        "witness": {"condition": 1, "subgroup_index": [1], "weight": 1, "difference": [1]},
        "counts": {"low_weight_members": 1},
    }
    single = FourierDescription(spec, frozenset({(1,)}))
    assert verify_distance(single, 2).passed


def test_verify_distance_low_weight_centralizer():
    # a weight-1 centralizer element outside the closure fails any B
    spec = low_weight_spec()
    single = FourierDescription(spec, frozenset({(1,)}))
    report = verify_distance(single, 2)
    assert not report.passed
    assert report.witness["condition"] == 2
    assert report.witness["difference"] == [0]


def test_greedy_distance2():
    spec, _ = distance2_family(5, 2)
    result = greedy_construct(spec, 2)
    x = len(forbidden_set(spec, 2))
    assert len(result) >= spec.size // x  # floor(32/15) = 2
    assert verify_distance(result, 2).passed


def test_greedy_d1_returns_everything():
    spec, _ = distance2_family(5, 2)
    result = greedy_construct(spec, 1)
    assert len(result) == spec.size


def test_greedy_laflamme7():
    spec = laflamme_spec(7)
    result = greedy_construct(spec, 3)
    assert len(result) >= 1
    assert verify_distance(result, 3).passed
    assert len(result) >= spec.size // len(forbidden_set(spec, 3))


def test_greedy_requires_purity():
    with pytest.raises(ValueError):
        greedy_construct(low_weight_spec(), 2)


def test_greedy_deterministic():
    spec = laflamme_spec(7)
    assert greedy_construct(spec, 3).members == greedy_construct(spec, 3).members


def test_greedy_bound_on_random_pure_specs():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 8:
        spec = random_maximal_spec(rng, int(rng.integers(4, 7)))
        if purity_radius(spec, 2) is not None:
            continue
        x = len(forbidden_set(spec, 2))
        result = greedy_construct(spec, 2)
        assert len(result) >= spec.size // max(x, 1)
        assert verify_distance(result, 2).passed
        checked += 1


def reference_walk(spec, d):
    """Greedy picks, as sorted keys, by the digit-row walk: u - X formed digitwise."""
    q, r = spec.q, spec.r
    keys = np.arange(q**r)
    weights = sum((keys // q**k % q != 0).astype(np.int64) for k in range(r))
    forbidden = unpack(forbidden_set(spec, d), q, r)
    alive = np.ones(q**r, dtype=bool)
    picked = []
    for u in np.argsort(weights, kind="stable").tolist():
        if alive[u]:
            picked.append(u)
            alive[pack((unpack([u], q, r) - forbidden) % q, q)] = False
    return sorted(picked)


def test_greedy_picks_equal_the_digit_row_walk():
    # laflamme n = 9 .. 19 at d = 3 (2,257 picks at n = 19), and q = 3 specs
    rng = np.random.default_rng(3)
    cases = [(laflamme_spec(n), 3) for n in range(9, 20, 2)]
    cases += [(distance2_spec(5, 3), 3), (distance2_spec(7, 3), 3)]
    cases += [(random_maximal_spec(rng, n, q=3), 2) for n in (4, 5, 6)]
    for spec, d in cases:
        picked = greedy_construct(spec, d)
        assert pack(picked.member_array, spec.q).tolist() == reference_walk(spec, d)


def test_bounds_values():
    lower, upper = bounds(5, 2, 1)
    assert upper == 2
    assert lower == Fraction(32, 106) == Fraction(16, 53)
    lower0, upper0 = bounds(4, 3, 0)
    assert lower0 == upper0 == 81
    lower15, _ = bounds(15, 2, 1)
    assert lower15 == Fraction(2**15, 991)


def test_projection_coefficients_uniform_for_stabilizer():
    spec, _ = distance2_family(5, 2)
    stabilizer = FourierDescription(spec, frozenset({(0,) * 5}))
    coeffs = projection_coefficients(stabilizer)
    assert coeffs.shape == (32,)
    assert all(abs(c - 1 / 32) < 1e-12 for c in coeffs)
    single = FourierDescription(spec, frozenset({(1, 0, 1, 0, 0)}))
    assert all(abs(abs(c) - 1 / 32) < 1e-12 for c in projection_coefficients(single))


def test_projection_operator_is_projection_with_trace_6():
    _, b = distance2_family(5, 2)
    p = dense_projection(b)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
    assert np.trace(p).real == pytest.approx(6, abs=1e-9)
    assert np.trace(p).real == pytest.approx(code_dimension(b), abs=1e-9)


def test_projection_coefficients_convolution_identity():
    # T * T = T and conj(T_a) = T_{-a}, checked by direct convolution
    rng = np.random.default_rng(4)
    spec = random_maximal_spec(rng, 3)
    description = random_description(rng, spec, max_size=3)
    q, r = spec.q, spec.r
    coeffs = dict(zip(itertools.product(range(q), repeat=r), projection_coefficients(description)))
    for a in itertools.product(range(q), repeat=r):
        conv = sum(
            coeffs[b] * coeffs[tuple((np.array(a) - np.array(b)) % q)]
            for b in itertools.product(range(q), repeat=r)
        )
        assert abs(conv - coeffs[a]) < 1e-12
        assert abs(np.conj(coeffs[a]) - coeffs[tuple((-np.array(a)) % q)]) < 1e-12


def test_pure_path_equivalence():
    # for d-pure specs the check reduces to (B - B) avoiding the forbidden set
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = random_maximal_spec(rng, int(rng.integers(4, 8)))
        d = 2
        if purity_radius(spec, d) is not None:
            continue
        description = random_description(rng, spec)
        fd = forbidden_set(spec, d)
        differences = set(map(tuple, unpack(description.difference_keys(), spec.q, spec.r).tolist()))
        pure_path = not (differences & forbidden_members(fd, spec.q, spec.r))
        assert verify_distance(description, d).passed == pure_path


def test_monotonicity_of_verification():
    rng = np.random.default_rng(21)
    for description, d in ((distance2_family(5, 2)[1], 2), (code_15_8_3(), 3)):
        members = description.sorted_members()
        for _ in range(4):
            keep = [m for m in members if rng.random() > 0.4]
            if not keep:
                continue
            smaller = FourierDescription(description.spec, frozenset(keep))
            assert verify_distance(smaller, d).passed


def test_weight_lex_order():
    # greedy's default walk order against the sorted-product definition
    def default_order(q, r):
        return list(map(tuple, unpack(_weight_lex_keys(q, r), q, r).tolist()))

    order = default_order(2, 3)
    assert order[0] == (0, 0, 0)
    weights = [sum(v) for v in order]
    assert weights == sorted(weights)
    assert len(order) == 8
    for q, r in ((2, 5), (3, 3), (5, 2)):
        assert default_order(q, r) == weight_lex_indices(q, r)


def test_description_json_roundtrip():
    _, b = distance2_family(5, 2)
    clone = FourierDescription.from_json_dict(b.to_json_dict())
    assert clone.members == b.members


# ----------------------------------------------------------------------
# Packed keys against tuple-set references
# ----------------------------------------------------------------------

QS = (2, 3, 5)
# digit counts per q that keep q^n small enough for the set references
MAXIMAL_NS = {2: (3, 4, 5, 6), 3: (2, 3, 4), 5: (2, 3)}


def reference_greedy(spec, d, order):
    """The greedy walk on a Python set of tuples."""
    q = spec.q
    forbidden = sorted(forbidden_members(forbidden_set(spec, d), spec.q, spec.r))
    alive = set(order)
    picked = set()
    for u in order:
        if u not in alive:
            continue
        picked.add(u)
        alive.discard(u)
        for x in forbidden:
            alive.discard(tuple((a - b) % q for a, b in zip(u, x)))
    return picked


def reference_verify(description, d):
    """verify_distance on a Python set of difference tuples."""
    spec = description.spec
    q = spec.q
    members = low_weight_members(spec, min(d - 1, spec.n))
    diffs = {
        tuple((a - b) % q for a, b in zip(u, v))
        for u in description.members
        for v in description.members
    }
    counts = {"low_weight_members": len(members)}
    for a, element in members:
        failing = sorted(u for u in diffs if sum(x * y for x, y in zip(u, a)) % q)
        if failing:
            witness = {"condition": 1, "subgroup_index": list(a),
                       "weight": weight(element.a, element.b), "difference": list(failing[0])}
            return {"pass": False, "witness": witness, "counts": counts}
    forbidden = forbidden_set(spec, d)
    counts["forbidden"] = len(forbidden)
    hits = diffs & forbidden_members(forbidden, q, spec.r)
    if hits:
        return {"pass": False, "witness": {"condition": 2, "difference": list(min(hits))},
                "counts": counts}
    counts["differences"] = len(diffs)
    return {"pass": True, "counts": counts}


@st.composite
def specs(draw):
    """A random valid spec over q in {2, 3, 5}, maximal or not."""
    q = draw(st.sampled_from(QS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from(MAXIMAL_NS[q]))
    if n > 2 and draw(st.booleans()):
        return random_nonmaximal_spec(rng, n, draw(st.integers(1, n - 1)), q=q)
    return random_maximal_spec(rng, n, q=q)


@settings(max_examples=60)
@given(specs(), st.integers(1, 3))
def test_purity_radius_is_the_least_weight_of_a_central_pair(spec, cutoff):
    # brute force: the least weight of a nonzero pair with M^T x = L^T y
    xs, ys = bounded_pair_arrays(spec.q, spec.n, min(cutoff - 1, spec.n))
    central = ~((xs @ spec.M - ys @ spec.L) % spec.q).any(axis=1)
    weights = np.count_nonzero(xs[central] | ys[central], axis=1)
    assert purity_radius(spec, cutoff) == (int(weights.min()) if weights.size else None)


@st.composite
def pure_cases(draw):
    """A spec with the distance d at which it is pure, and d = 3 where it is not.

    Random product-form maximal specs are always 2-pure and sometimes 3-pure;
    the distance-2 and Laflamme specs are 3-pure.
    """
    kind = draw(st.sampled_from(["random", "random", "random", "d2", "laflamme"]))
    if kind == "d2":
        spec = distance2_spec(5, draw(st.sampled_from((2, 3))))
    elif kind == "laflamme":
        spec = laflamme_spec(draw(st.sampled_from((5, 7))))
    else:
        q = draw(st.sampled_from(QS))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = random_maximal_spec(rng, draw(st.sampled_from(MAXIMAL_NS[q] + (7,) * (q == 2))), q=q)
    d = 3 if purity_radius(spec, 3) is None else 2
    return spec, d


@settings(max_examples=60)
@given(pure_cases())
def test_greedy_matches_tuple_set_reference(case):
    spec, d = case
    if d == 2:
        with pytest.raises(ValueError, match="not 3-pure"):
            greedy_construct(spec, 3)
    order = weight_lex_indices(spec.q, spec.r)
    assert greedy_construct(spec, d).members == reference_greedy(spec, d, order)


@settings(max_examples=80)
@given(specs(), st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_verify_distance_matches_tuple_set_reference(spec, d, seed, size):
    description = random_description(np.random.default_rng(seed), spec, max_size=size)
    assert verify_distance(description, d).to_json_dict() == reference_verify(description, d)


def test_condition_one_witness_beyond_int64_is_exact():
    # L = I, M = 0 on 64 digits: U_{e_0} is a weight-1 member, and u . e_0
    # differs on B = {0, e_0}; the witness e_0 has the key 2^63
    eye = np.eye(64, dtype=np.int64)
    spec = GottesmanSpec(q=2, L=eye, M=0 * eye, D=0 * eye)
    description = FourierDescription(spec, frozenset({(0,) * 64, tuple(eye[0])}))
    assert description.difference_keys().tolist() == [0, 2**63]
    report = verify_distance(description, 2).to_json_dict()
    assert report["witness"]["condition"] == 1
    assert report["witness"]["difference"] == eye[0].tolist()
    assert report == reference_verify(description, 2)


def test_verify_keys_beyond_int64_stay_exact():
    # 2^65 and 3^41 character indices: the packed keys must not wrap around
    for n, q, want in ((65, 2, {"differences": 2146, "forbidden": 195}),
                       (41, 3, {"differences": 3363, "forbidden": 328})):
        _, description = distance2_family(n, q)
        assert description.difference_keys().dtype == object
        report = verify_distance(description, 2)
        assert report.to_json_dict() == {
            "pass": True, "counts": {"low_weight_members": 0, **want},
        }


def test_verify_distance_enumerates_and_reduces_once(monkeypatch):
    # conditions 1 and 2 read one enumeration of the sphere and one reduction of [L; M]
    from nonstab import gottesman
    from nonstab.galois import PrimeField

    description = code_15_8_3()
    reductions, enumerations = [], []
    rref, pairs = PrimeField.rref, gottesman.bounded_pair_arrays

    def counted_rref(self, a):
        reductions.append(np.asarray(a).shape)
        return rref(self, a)

    def counted_pairs(*args, **kwargs):
        enumerations.append(args)
        return pairs(*args, **kwargs)

    monkeypatch.setattr(PrimeField, "rref", counted_rref)
    monkeypatch.setattr(gottesman, "bounded_pair_arrays", counted_pairs)
    gottesman._image_reduction.cache_clear()  # an earlier test may have reduced this spec
    report = verify_distance(description, 3)
    assert report.passed and report.counts["forbidden"] > 0
    assert reductions == [(30, 15)]
    assert enumerations == [(2, 15, 2)]
