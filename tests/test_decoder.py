import functools

import numpy as np
import pytest
from conftest import character_exponent, linear_solve, weight
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nonstab.decoder import DecodingError, Syndrome, decode, measure_syndrome, search_error
from nonstab.families import code_15_8_3, distance2_family, laflamme_spec
from nonstab.fourier_code import FourierDescription, greedy_construct, verify_distance
from nonstab.galois import error_sphere_count
from nonstab.gottesman import bounded_pair_arrays
from nonstab.oracle import SparseState, apply, codeword
from nonstab.weyl import WeylElement, prime_group


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


def test_syndrome_rejects_an_inconsistent_eigenvalue():
    # one amplitude of a codeword negated: the support is still mapped onto
    # itself, but the ratio on that word differs from the first word's
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    amps = phi.amps.copy()
    amps[1] = -amps[1]
    with pytest.raises(DecodingError, match="inconsistent eigenvalue"):
        measure_syndrome(SparseState(phi.group, phi.n, phi.packed, amps), b.spec)


def test_syndrome_generators_are_the_spec_elements():
    # measure_syndrome reads s_{e_i} = w^D[i, i] U_{L e_i} V_{M e_i} off the columns
    from nonstab.families import distance2_spec

    for spec in (laflamme_spec(7), distance2_spec(5, 3), distance2_spec(5, 5)):
        for i, e_i in enumerate(np.eye(spec.r, dtype=np.int64)):
            direct = WeylElement(spec.group, int(spec.D[i, i]), spec.L[:, i], spec.M[:, i])
            assert direct == spec.element(e_i)


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
    g, u = search_error(Syndrome((0,) * 7), b, 1, stats=stats)
    assert not any(g.a) and not any(g.b) and g.phase == 0
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
            for x, y in zip(*bounded_pair_arrays(2, 7, 1)):
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
        search_error(Syndrome((1,) + (0,) * 6), b, 1)


def test_syndrome_collisions_are_harmless():
    # equal syndromes from distinct errors differ by a closure element,
    # which acts as a global phase on the code; weight-1 errors never
    # collide on a distance-3 code, so sweep up to weight 2
    spec = laflamme_spec(7)
    b = stabilizer_description()
    phi = codeword(b, (0,) * 7)
    errors = [
        WeylElement(spec.group, 0, x, y) for x, y in zip(*bounded_pair_arrays(2, 7, 2))
    ]
    assert len({
        tuple(((np.array(g.a) @ spec.M - np.array(g.b) @ spec.L) % 2).tolist())
        for g in errors
        if weight(g.a, g.b) <= 1
    }) == 21  # weight-1 syndromes are pairwise distinct (uniqueness)
    syndromes = {}
    for g in errors:
        syndrome = tuple(((np.array(g.a) @ spec.M - np.array(g.b) @ spec.L) % 2).tolist())
        syndromes.setdefault(syndrome, []).append(g)
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
        for x, y in zip(*bounded_pair_arrays(3, 5, 1)):
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


def reference_search_error(syndrome, description, t, stats):
    """The error search as a loop over the candidates in canonical order."""
    spec = description.spec
    q, p = spec.q, spec.phase_denominator
    unit = p // q
    if any(e % unit for e in syndrome.exponents):
        raise DecodingError("syndrome exponents are not characters of the subgroup")
    v = np.array([e // unit for e in syndrome.exponents], dtype=np.int64) % q
    if tuple(map(int, v)) in description.members:
        stats["candidates"] = 1
        return WeylElement.identity(spec.group, spec.n), tuple(map(int, v))
    checked = 1
    xs, ys = bounded_pair_arrays(q, spec.n, min(t, spec.n))
    candidates = (v - (xs @ spec.M - ys @ spec.L)) % q
    for idx in range(xs.shape[0]):
        checked += 1
        u = tuple(map(int, candidates[idx]))
        if u in description.members:
            stats["candidates"] = checked
            return WeylElement(spec.group, 0, tuple(xs[idx]), tuple(ys[idx])), u
    stats["candidates"] = checked
    raise DecodingError(f"no error of weight <= {t} matches the syndrome")


@functools.cache
def search_codes():
    return {"code15": code_15_8_3(), "d2 n=7 q=3": distance2_family(7, 3)[1]}


@st.composite
def search_cases(draw):
    """(syndrome, description, t): the syndrome of a member under an error of
    weight <= 3, of a random character index (which mostly matches nothing),
    or exponents that are not characters."""
    description = search_codes()[draw(st.sampled_from(sorted(search_codes())))]
    spec = description.spec
    q, n, unit = spec.q, spec.n, spec.phase_denominator // spec.q
    kind = draw(st.sampled_from(["error"] * 3 + ["random", "odd"]))
    if kind == "random":
        v = np.array(draw(st.lists(st.integers(0, q - 1), min_size=spec.r, max_size=spec.r)))
    else:
        nonzero = [(a, b) for a in range(q) for b in range(q) if a or b]
        x, y = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        for i in draw(st.sets(st.integers(0, n - 1), max_size=3)):
            x[i], y[i] = draw(st.sampled_from(nonzero))
        u = np.array(draw(st.sampled_from(description.sorted_members())))
        v = (u + x @ spec.M - y @ spec.L) % q
    exponents = [unit * int(e) for e in v]
    if kind == "odd":
        exponents[draw(st.integers(0, spec.r - 1))] += 1
    return Syndrome(tuple(exponents)), description, draw(st.integers(0, 2))


def search_outcome(search, syndrome, description, t):
    stats = {}
    try:
        g, u = search(syndrome, description, t, stats=stats)
    except DecodingError as exc:
        return "DecodingError", str(exc), stats
    return (g.phase, g.a, g.b), u, stats


@settings(max_examples=150)
@given(search_cases())
def test_search_error_matches_the_candidate_loop(case):
    syndrome, description, t = case
    got = search_outcome(search_error, syndrome, description, t)
    event(f"t={t} {'no match' if got[0] == 'DecodingError' else 'found'}")
    assert got == search_outcome(reference_search_error, syndrome, description, t)


def test_one_syndrome_reads_the_chunk_values_of_its_state_once(monkeypatch):
    # the 15 generator applies of one measure_syndrome share the chunk values
    # of the state's keys, which the state reads once
    from nonstab import oracle

    description = code_15_8_3()
    spec = description.spec
    phi = codeword(description, description.sorted_members()[0])
    digit = tuple(int(k == 4) for k in range(spec.n))
    corrupted = apply(WeylElement(spec.group, 0, digit, digit), phi)
    calls = []
    values = oracle._chunk_values

    def counted(*args):
        calls.append(args[1:])
        return values(*args)

    monkeypatch.setattr(oracle, "_chunk_values", counted)
    measure_syndrome(corrupted, spec)
    assert calls == [(spec.q, spec.n)]


def test_one_code15_round_trip_applies_17_elements_and_measures_once(monkeypatch):
    # the call counts that perfbench's codec-code15 workload pins per round trip:
    # the error, one apply per generator in measure_syndrome, and the correction
    from nonstab import circuits, decoder, oracle

    description = code_15_8_3()
    spec = description.spec
    u = description.sorted_members()[0]
    reference = codeword(description, u)
    encoder = circuits.build_encoder(spec)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (oracle, decoder, circuits):  # every namespace that binds them
        for name in ("apply", "measure_syndrome"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    message = circuits.message_state(spec, *oracle.message_coordinates(spec, u))
    data = circuits.encoder_output_data(circuits.simulate(encoder, message), spec.n)
    assert data.fidelity(reference) >= 1 - 1e-9
    digit = tuple(int(k == 4) for k in range(spec.n))
    corrupted = oracle.apply(WeylElement(spec.group, 0, digit, (0,) * spec.n), data)
    assert decoder.decode(corrupted, description, 1).fidelity(reference) >= 1 - 1e-9
    assert calls.count("apply") == 17 and calls.count("measure_syndrome") == 1


def test_a_cached_syndrome_table_is_refused_under_a_smaller_sphere():
    from nonstab.weyl import budget

    description = code_15_8_3()
    spec = description.spec
    phi = codeword(description, description.sorted_members()[0])
    digit = tuple(int(k == 4) for k in range(spec.n))
    syndrome = measure_syndrome(apply(WeylElement(spec.group, 0, digit, digit), phi), spec)
    found = search_error(syndrome, description, 1)  # builds and caches the table of t = 1
    with budget(sphere=45):
        with pytest.raises(ValueError, match="^enumeration budget exceeded: need 46 pairs, cap 45$"):
            search_error(syndrome, description, 1)
    with budget(sphere=46):
        assert search_error(syndrome, description, 1) == found
