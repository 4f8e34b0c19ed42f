"""Acceptance suite: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 2 checks the distance-2 family on its
documented domain (odd n >= 5) and also asserts a rejection: at
(n, q) = (3, 2) the same construction has the stated dimension 4, but a
((3,4,2))_2 code cannot exist (the quantum Singleton bound gives K <= 2, and
the distance-2 forbidden set at n = 3 is all of GF(2)^3 minus zero), so both
verification routes must reject it.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
from conftest import (
    brute_force_forbidden,
    brute_force_subspace_count,
    forbidden_members,
    random_description,
    random_maximal_spec,
    random_nonmaximal_spec,
    state_rows,
    symmetric_difference_sizes,
)

from nonstab.cli import main
from nonstab.decoder import DecodingError, decode
from nonstab.families import (
    LAFLAMME_15_8_3_SETS,
    alpha_good,
    alpha_good_spec,
    code_15_8_3,
    distance2_family,
    family_to_b,
    laflamme_spec,
    puncture,
    search_alpha_good,
    subspace_family,
)
from nonstab.fourier_code import (
    bounds,
    code_dimension,
    greedy_construct,
    verify_distance,
)
from nonstab.galois import gaussian_binomial
from nonstab.gottesman import bounded_pair_arrays, forbidden_set, purity_radius, validate
from nonstab.oracle import apply, codeword, kl_check
from nonstab.weyl import WeylElement


def report(num, name, ok, elapsed, limit=None):
    budget = f", limit {limit:g}s" if limit else ""
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s{budget})")
    return ok


def test_accept_01_code_5_6_2():
    start = time.perf_counter()
    code = main(["family", "--name", "d2", "--n", "5", "--q", "2"])
    assert code == 0
    spec, b = distance2_family(5, 2)
    ok = code_dimension(b) == 6
    ok &= verify_distance(b, 2).passed
    # independent oracle: every weight-1 error annihilates every codeword pair
    states = [codeword(b, u) for u in b.sorted_members()]
    count = 0
    for x, y in zip(*bounded_pair_arrays(2, 5, 1)):
        g = WeylElement(spec.group, 0, x, y)
        for phi_u in states:
            moved = apply(g, phi_u)
            for phi_v in states:
                ok &= abs(phi_v.inner(moved)) <= 1e-9
                count += 1
    ok &= count == 15 * 36
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(1, "((5,6,2))_2 reproduction", ok, elapsed, 1.0)


def test_accept_02_distance2_family():
    start = time.perf_counter()
    print()
    ok = True
    # positive sub-cases: the documented domain, odd n >= 5
    for n, q in ((5, 2), (7, 2), (5, 3)):
        spec, b = distance2_family(n, q)
        dim_ok = code_dimension(b) == 1 + n * (q - 1)
        dist_ok = verify_distance(b, 2).passed
        kl_ok = kl_check(b, 2).passed
        ok &= dim_ok and dist_ok and kl_ok
        print(f"  (n={n}, q={q}): dimension={'ok' if dim_ok else 'BAD'}, "
              f"verify={'pass' if dist_ok else 'fail'}, "
              f"kl={'pass' if kl_ok else 'fail'}")
    # negative sub-case: ((3,4,2))_2 would break the quantum Singleton bound
    # K <= q^(n-2(d-1)) = 2, so both routes must reject the construction
    n, q = 3, 2
    spec, b = distance2_family(n, q)
    dim_ok = code_dimension(b) == 1 + n * (q - 1)
    verify = verify_distance(b, 2)
    rejected = not verify.passed and verify.witness is not None
    kl_rejected = not kl_check(b, 2).passed
    ok &= dim_ok and rejected and kl_rejected
    print(f"  (n={n}, q={q}): dimension={'ok' if dim_ok else 'BAD'}, "
          f"verify={'rejects' if rejected else 'ACCEPTS'} "
          f"(witness {verify.witness}), "
          f"kl={'rejects' if kl_rejected else 'ACCEPTS'}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    assert report(2, "((n,1+n(q-1),2))_q family", ok, elapsed, 10.0)


def test_accept_03_code_15_8_3():
    start = time.perf_counter()
    sizes = {len(a ^ b) for a, b in itertools.combinations(LAFLAMME_15_8_3_SETS, 2)}
    ok = sizes == {7, 8}
    b = code_15_8_3()
    ok &= code_dimension(b) == 8
    ok &= verify_distance(b, 3).passed
    kl = kl_check(b, 3)
    ok &= kl.passed and kl.counts == {"errors": 990, "pairs": 64}
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 600
    assert report(3, "((15,8,3)) reproduction", ok, elapsed, 600)


def test_accept_04_subspace_codes_33_31():
    start = time.perf_counter()
    family = subspace_family(5, 3, 2)
    ok = len(family) == 155 == gaussian_binomial(5, 2, 3)
    b33 = family_to_b(family, 33)
    ok &= verify_distance(b33, 3).passed and code_dimension(b33) == 155
    punctured = puncture(family, 32)
    ok &= len(punctured) == 155
    ok &= all(7 <= s <= 13 for s in symmetric_difference_sizes(punctured))
    b31 = family_to_b(punctured, 31)
    ok &= verify_distance(b31, 3).passed and code_dimension(b31) == 155
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    assert report(4, "((33,155,3)) and ((31,155,3))", ok, elapsed, 60)


def test_accept_05_greedy_bound():
    start = time.perf_counter()
    spec, _ = distance2_family(5, 2)
    x = len(forbidden_set(spec, 2))
    ok = x == 15
    greedy = greedy_construct(spec, 2)
    ok &= len(greedy) >= spec.size // x == 2
    ok &= verify_distance(greedy, 2).passed
    l7 = laflamme_spec(7)
    greedy7 = greedy_construct(l7, 3)
    ok &= len(greedy7) >= 1
    ok &= verify_distance(greedy7, 3).passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    assert report(5, "greedy lower bound", ok, elapsed, 5)


def test_accept_06_encoder():
    from nonstab.circuits import build_encoder, encoder_output_data, message_state, simulate
    from nonstab.oracle import message_coordinates

    start = time.perf_counter()
    spec, b = distance2_family(5, 2)
    circuit = build_encoder(spec)
    ok = True
    for u in b.sorted_members():
        c_vec, delta = message_coordinates(spec, u)
        final = simulate(circuit, message_state(spec, c_vec, delta))
        ok &= not np.any(state_rows(final)[:, 15:])  # ancillas exactly zero
        data = encoder_output_data(final, 5)
        ok &= data.fidelity(codeword(b, u)) >= 1 - 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    assert report(6, "encoder vs closed form", ok, elapsed, 5)


def test_accept_07_decoder_sweep():
    start = time.perf_counter()
    b = code_15_8_3()
    spec = b.spec
    states = {u: codeword(b, u) for u in b.sorted_members()}
    cases = 0
    ok = True
    for phi in states.values():
        for x, y in zip(*bounded_pair_arrays(2, 15, 1)):
            corrupted = apply(WeylElement(spec.group, 0, x, y), phi)
            ok &= decode(corrupted, b, 1).fidelity(phi) >= 1 - 1e-9
            cases += 1
    ok &= cases == 360
    weight2 = WeylElement(
        spec.group, 0, (1, 1) + (0,) * 13, (0,) * 15
    )
    try:
        decode(apply(weight2, next(iter(states.values()))), b, 1)
        ok = False
    except DecodingError:
        pass
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 600
    assert report(7, "decoder 360-case sweep", ok, elapsed, 600)


def test_accept_08_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    specs = 0
    agreements = 0
    while specs < 50:
        if specs % 5 < 3:
            spec = random_maximal_spec(rng, int(rng.integers(5, 8)))
        else:
            n = int(rng.integers(3, 6))
            spec = random_nonmaximal_spec(rng, n, int(rng.integers(1, n)))
        ok &= validate(spec) == []
        for d in (2, 3):
            forbidden = forbidden_members(forbidden_set(spec, d), spec.q, spec.r)
            ok &= forbidden == brute_force_forbidden(spec, d)
        for _ in range(2):
            description = random_description(rng, spec)
            ok &= kl_check(description, 2).passed == verify_distance(description, 2).passed
            agreements += 1
        specs += 1
    ok &= specs >= 50 and agreements >= 100
    elapsed = time.perf_counter() - start
    assert report(8, f"cross-validation on {specs} random specs", ok, elapsed)


def test_accept_09_bounds_sanity():
    start = time.perf_counter()
    _, upper = bounds(5, 2, 1)
    ok = upper == 2
    built = [
        distance2_family(5, 2)[1],
        distance2_family(7, 2)[1],
        distance2_family(5, 3)[1],
        code_15_8_3(),
        family_to_b(subspace_family(5, 3, 2), 33),
    ]
    distances = [2, 2, 2, 3, 3]
    for description, d in zip(built, distances):
        spec = description.spec
        t = (d - 1) // 2
        _, upper_bound = bounds(spec.n, spec.q, t)
        ok &= Fraction(code_dimension(description)) <= upper_bound
    for q in (2, 3):
        for m in range(1, 5):
            if q == 3 and m > 3:
                continue
            for r in range(m + 1):
                ok &= gaussian_binomial(m, q, r) == brute_force_subspace_count(m, q, r)
    elapsed = time.perf_counter() - start
    assert report(9, "dimension bounds sanity", ok, elapsed)


def test_accept_10_alpha_good_machinery():
    start = time.perf_counter()
    alpha = Fraction(1, 6)
    ok = alpha_good(np.eye(12, dtype=np.int64), alpha).passed
    ones_report = alpha_good(np.ones((12, 12), dtype=np.int64), alpha)
    ok &= not ones_report.passed and ones_report.witness["condition"] == 1
    found = search_alpha_good(12, alpha, attempts=200, seed=7)
    ok &= found is not None
    if found is not None:
        matrix, _ = found
        spec = alpha_good_spec(matrix)
        ok &= validate(spec) == []
        t = int(alpha * 12)
        ok &= purity_radius(spec, t) is None  # purity >= floor(alpha n) = 2
    elapsed = time.perf_counter() - start
    assert report(10, "alpha-good machinery", ok, elapsed)
