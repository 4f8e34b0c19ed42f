import numpy as np
import pytest

from nonstab.decoder import DecodingError, Syndrome, decode, measure_syndrome, search_error
from nonstab.families import distance2_family, laflamme_spec
from nonstab.fourier_code import FourierDescription, greedy_construct, verify_distance
from nonstab.galois import error_sphere_count
from nonstab.gottesman import character_exponent
from nonstab.oracle import SparseState, apply, codeword
from nonstab.weyl import WeylElement, enumerate_bounded, prime_group


def stabilizer_description(n=7):
    spec = laflamme_spec(n)
    return FourierDescription(spec, frozenset({(0,) * n}))


def test_syndrome_of_uncorrupted_stabilizer_codeword():
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    syndrome = measure_syndrome(phi, b.spec)
    assert syndrome.exponents == (0,) * 7


def test_syndrome_equals_character_without_error():
    spec = laflamme_spec(7)
    b = greedy_construct(spec, 3)
    assert len(b) >= 2
    for u in b.sorted_members():
        phi = codeword(b, u)
        syndrome = measure_syndrome(phi, spec)
        expected = tuple(
            character_exponent(spec, u, np.eye(7, dtype=int)[i]) for i in range(7)
        )
        assert syndrome.exponents == expected


def test_syndrome_of_corrupted_codeword_matches_formula():
    # the eigenvalue of s_i on g|phi_u> is gamma(s_i, g) chi_u(s_i); checked
    # at q = 3 as well, where the commutator sign is visible
    from nonstab.families import distance2_spec
    from nonstab.weyl import gamma

    cases = [
        (laflamme_spec(7), WeylElement(prime_group(2), 0, (1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0))),
        (distance2_spec(5, 3), WeylElement(prime_group(3), 0, (2, 0, 0, 0, 0), (0, 1, 0, 0, 0))),
    ]
    for spec, g in cases:
        n = spec.n
        b = FourierDescription(spec, frozenset({(0,) * n}))
        phi = codeword(b, (0,) * n)
        syndrome = measure_syndrome(apply(g, phi), spec)
        p = spec.phase_denominator
        for i in range(n):
            e_i = np.eye(n, dtype=int)[i]
            expected = (gamma(spec.element(e_i), g)
                        + character_exponent(spec, (0,) * n, e_i)) % p
            assert syndrome.exponents[i] == expected


def test_syndrome_rejects_non_eigenvector():
    spec = laflamme_spec(7)
    junk = SparseState.from_pairs(
        prime_group(2), 7, [[0] * 7, [1] + [0] * 6], [0.8, 0.6]
    )
    with pytest.raises(DecodingError):
        measure_syndrome(junk, spec)


def test_zero_state_is_not_decodable():
    b = stabilizer_description()
    empty = SparseState.from_pairs(prime_group(2), 7, [[0] * 7], [0.0])
    assert len(empty) == 0
    with pytest.raises(DecodingError, match="zero state"):
        measure_syndrome(empty, b.spec)
    with pytest.raises(DecodingError, match="zero state"):
        decode(empty, b, 1)


def test_search_identity_shortcut():
    b = stabilizer_description()
    stats = {}
    g, u = search_error(Syndrome((0,) * 7, 4), b, 1, stats=stats)
    assert g.is_scalar() and g.phase == 0
    assert u == (0,) * 7
    assert stats["candidates"] == 1


def test_search_cost_bound():
    spec = laflamme_spec(7)
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    g = WeylElement(spec.group, 0, (0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0))
    stats = {}
    found, u = search_error(measure_syndrome(apply(g, phi), spec), b, 1, stats=stats)
    assert (found.a, found.b) == (g.a, g.b)
    assert stats["candidates"] <= error_sphere_count(7, 2, 1)


def test_decode_roundtrip_stabilizer_and_greedy():
    spec = laflamme_spec(7)
    descriptions = [stabilizer_description(), greedy_construct(spec, 3)]
    assert verify_distance(descriptions[1], 3).passed
    for b in descriptions:
        for u in b.sorted_members():
            phi = codeword(b, u)
            for x, y in enumerate_bounded(prime_group(2), 7, 1):
                g = WeylElement(spec.group, 0, x, y)
                out = decode(apply(g, phi), b, 1)
                assert out.fidelity(phi) >= 1 - 1e-9


def test_decode_identity_and_phase_only_error():
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    assert decode(phi, b, 1).fidelity(phi) == pytest.approx(1.0, abs=1e-12)
    phased = SparseState(phi.group, phi.n, phi.packed, phi.amps * 1j)
    out = decode(phased, b, 1)
    assert out.fidelity(phi) == pytest.approx(1.0, abs=1e-12)


def test_weight2_error_at_t1_has_no_solution():
    spec = laflamme_spec(7)
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    g = WeylElement(spec.group, 0, (1, 1, 0, 0, 0, 0, 0), (0,) * 7)
    with pytest.raises(DecodingError, match="no error of weight"):
        decode(apply(g, phi), b, 1)


def test_search_rejects_non_subgroup_syndrome():
    b = stabilizer_description()
    with pytest.raises(DecodingError, match="not characters"):
        search_error(Syndrome((1,) + (0,) * 6, 4), b, 1)


def test_syndrome_collisions_are_harmless():
    # equal syndromes from distinct errors differ by a closure element,
    # which acts as a global phase on the code; weight-1 errors never
    # collide on a distance-3 code, so sweep up to weight 2
    spec = laflamme_spec(7)
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    errors = [
        WeylElement(spec.group, 0, x, y) for x, y in enumerate_bounded(prime_group(2), 7, 2)
    ]
    assert len({
        tuple(((np.array(g.a) @ spec.M - np.array(g.b) @ spec.L) % 2).tolist())
        for g in errors
        if g.weight() <= 1
    }) == 21  # weight-1 syndromes are pairwise distinct (uniqueness)
    syndromes = {}
    for g in errors:
        syndrome = tuple(((np.array(g.a) @ spec.M - np.array(g.b) @ spec.L) % 2).tolist())
        syndromes.setdefault(syndrome, []).append(g)
    from nonstab.galois import linear_solve

    collisions = 0
    for group_elements in syndromes.values():
        for i in range(len(group_elements)):
            for j in range(i + 1, len(group_elements)):
                g1, g2 = group_elements[i], group_elements[j]
                diff_x = (np.array(g1.a) - np.array(g2.a)) % 2
                diff_y = (np.array(g1.b) - np.array(g2.b)) % 2
                stacked = np.vstack([spec.L, spec.M])
                rhs = np.concatenate([diff_x, diff_y])
                assert linear_solve(spec.field, stacked, rhs) is not None
                composed = apply(g1, apply(g2, phi))  # g1 g2 phi with g2 = g2^-1 up to phase
                assert composed.fidelity(phi) == pytest.approx(1.0, abs=1e-9)
                collisions += 1
    assert collisions >= 1  # the sweep exercised at least one collision


def test_decode_roundtrip_gf3():
    # odd q exposes sign conventions that GF(2) hides
    from nonstab.families import distance2_spec

    spec = distance2_spec(5, 3)
    b = greedy_construct(spec, 3)
    assert len(b) >= 2 and verify_distance(b, 3).passed
    for u in b.sorted_members():
        phi = codeword(b, u)
        for x, y in enumerate_bounded(prime_group(3), 5, 1):
            g = WeylElement(spec.group, 0, x, y)
            out = decode(apply(g, phi), b, 1)
            assert out.fidelity(phi) >= 1 - 1e-9


def test_decoder_on_distance2_code_detect_only():
    # a distance-2 code corrects t = 0: any weight-1 error must be reported
    spec, b = distance2_family(5, 2)
    phi = codeword(b, b.sorted_members()[0])
    g = WeylElement(spec.group, 0, (1, 0, 0, 0, 0), (0, 0, 0, 0, 0))
    with pytest.raises(DecodingError):
        decode(apply(g, phi), b, 0)
