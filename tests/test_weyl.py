import importlib
import inspect
import itertools
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_matrix, phase_value, weight
from hypothesis import given, settings
from hypothesis import strategies as st

import nonstab
from nonstab.galois import error_sphere_count
from nonstab.gottesman import bounded_pair_arrays

from nonstab.weyl import (
    AlphabetGroup,
    Budget,
    WeylElement,
    budget,
    check_sphere,
    compose,
    gamma,
    inverse,
    prime_group,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

Z2 = prime_group(2)
Z3 = prime_group(3)


def test_group_basics():
    with pytest.raises(ValueError):
        AlphabetGroup((1,))


def test_bicharacter_z2():
    p = Z2.phase_denominator
    assert Z2.bicharacter_exponent((1,), (1,)) == p // 2
    assert phase_value(p // 2, p) == pytest.approx(-1)
    for b in ((0,), (1,)):
        assert Z2.bicharacter_exponent((0,), b) == 0


def test_bicharacter_extends_multiplicatively_over_positions():
    a, b = (1, 0, 1), (1, 1, 1)
    total = Z2.bicharacter_exponent(a, b)
    parts = sum(Z2.bicharacter_exponent((a[i],), (b[i],)) for i in range(3))
    assert total == parts % Z2.phase_denominator


def test_compose_identity_law():
    g = WeylElement(Z2, 1, (1, 0), (0, 1))
    ident = WeylElement.identity(Z2, 2)
    assert compose(ident, g) == g
    assert compose(g, ident) == g


def test_compose_against_matrix_oracle_xz():
    # over Z_2 with n=1: U_1 = X, V_1 = Z
    xz = WeylElement(Z2, 0, (1,), (1,))
    x = WeylElement(Z2, 0, (1,), (0,))
    out = compose(xz, x)
    assert (out.a, out.b) == ((0,), (1,))
    assert phase_value(out.phase, Z2.phase_denominator) == pytest.approx(-1)  # (XZ)X = -Z
    np.testing.assert_allclose(dense_matrix(out), (X @ Z) @ X, atol=1e-12)

    sq = compose(xz, xz)
    assert (sq.a, sq.b) == ((0,), (0,))
    assert phase_value(sq.phase, Z2.phase_denominator) == pytest.approx(-1)  # (XZ)^2 = -I
    np.testing.assert_allclose(dense_matrix(sq), (X @ Z) @ (X @ Z), atol=1e-12)


def test_compose_inverse_gives_identity():
    rng = np.random.default_rng(3)
    for group, n in ((Z2, 3), (Z3, 2)):
        width = n
        for _ in range(25):
            g = WeylElement(
                group,
                int(rng.integers(0, group.phase_denominator)),
                tuple(rng.integers(0, 5, size=width)),
                tuple(rng.integers(0, 5, size=width)),
            )
            assert compose(g, inverse(g)) == WeylElement.identity(group, n)
            assert compose(inverse(g), g) == WeylElement.identity(group, n)


def test_weight():
    assert weight((0, 0, 0), (0, 0, 0)) == 0
    assert weight((1, 0, 1), (0, 0, 1)) == 2


def test_gamma_examples():
    x = WeylElement(Z2, 0, (1,), (0,))
    z = WeylElement(Z2, 0, (0,), (1,))
    assert gamma(x, x) == 0
    assert phase_value(gamma(x, z), Z2.phase_denominator) == pytest.approx(-1)
    # matrix oracle: X Z X^-1 Z^-1 = -I
    comm = X @ Z @ np.linalg.inv(X) @ np.linalg.inv(Z)
    np.testing.assert_allclose(comm, -np.eye(2), atol=1e-12)


def test_gamma_matches_matrix_commutator():
    rng = np.random.default_rng(11)
    for group, n in ((Z2, 2), (Z3, 1)):
        for _ in range(20):
            g = WeylElement(group, 0, tuple(rng.integers(0, group.q, n)), tuple(rng.integers(0, group.q, n)))
            h = WeylElement(group, 0, tuple(rng.integers(0, group.q, n)), tuple(rng.integers(0, group.q, n)))
            mg, mh = dense_matrix(g), dense_matrix(h)
            comm = mg @ mh @ np.linalg.inv(mg) @ np.linalg.inv(mh)
            expected = phase_value(gamma(g, h), group.phase_denominator) * np.eye(len(mg))
            np.testing.assert_allclose(comm, expected, atol=1e-10)


def test_gamma_bimultiplicative_and_conjugate_symmetric():
    rng = np.random.default_rng(5)
    p = Z3.phase_denominator
    for _ in range(50):
        els = [
            WeylElement(Z3, int(rng.integers(0, p)), tuple(rng.integers(0, 3, 3)), tuple(rng.integers(0, 3, 3)))
            for _ in range(3)
        ]
        g1, g2, h = els
        assert gamma(compose(g1, g2), h) == (gamma(g1, h) + gamma(g2, h)) % p
        assert gamma(h, compose(g1, g2)) == (gamma(h, g1) + gamma(h, g2)) % p
        assert gamma(g1, h) == (-gamma(h, g1)) % p


def test_dense_matrix_basics():
    ident = WeylElement.identity(Z2, 1)
    np.testing.assert_allclose(dense_matrix(ident), np.eye(2), atol=1e-12)
    u1 = WeylElement(Z2, 0, (1,), (0,))
    np.testing.assert_allclose(dense_matrix(u1), X, atol=1e-12)
    with pytest.raises(ValueError):
        dense_matrix(WeylElement.identity(Z2, 13))


def test_dense_matrix_unitary_and_trace():
    # Tr U_a V_b = 0 unless (a, b) = (0, 0), where it equals #A^n
    for a in itertools.product(range(2), repeat=2):
        for b in itertools.product(range(2), repeat=2):
            g = WeylElement(Z2, 0, a, b)
            m = dense_matrix(g)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
            tr = np.trace(m)
            if any(a) or any(b):
                assert abs(tr) < 1e-12
            else:
                assert tr == pytest.approx(4)


def test_dense_matrix_homomorphism_exhaustive_z2():
    for n in (1, 2, 3):
        words = list(itertools.product(range(2), repeat=n))
        els = [WeylElement(Z2, 0, a, b) for a in words for b in words]
        mats = [dense_matrix(e) for e in els]
        for g, mg in zip(els, mats):
            for h, mh in zip(els, mats):
                np.testing.assert_allclose(
                    dense_matrix(compose(g, h)), mg @ mh, atol=1e-10
                )


def test_dense_matrix_homomorphism_random_z3():
    rng = np.random.default_rng(17)
    for _ in range(30):
        g = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        h = WeylElement(Z3, int(rng.integers(0, 6)), tuple(rng.integers(0, 3, 2)), tuple(rng.integers(0, 3, 2)))
        np.testing.assert_allclose(
            dense_matrix(compose(g, h)), dense_matrix(g) @ dense_matrix(h), atol=1e-10
        )


def test_weyl_commutation_relation():
    # <a,b> U_a V_b = V_b U_a
    rng = np.random.default_rng(23)
    for group, n in ((Z2, 3), (Z3, 2)):
        for _ in range(20):
            a = tuple(rng.integers(0, group.q, n))
            b = tuple(rng.integers(0, group.q, n))
            ua = WeylElement(group, 0, a, (0,) * n)
            vb = WeylElement(group, 0, (0,) * n, b)
            lhs = compose(vb, ua)
            rhs = compose(ua, vb)
            assert lhs.a == rhs.a and lhs.b == rhs.b
            assert lhs.phase == (rhs.phase + group.bicharacter_exponent(a, b)) % group.phase_denominator


def test_orthogonality_of_distinct_elements():
    # Tr(dense(g)^dagger dense(h)) = 0 for g != h modulo phase
    words = list(itertools.product(range(2), repeat=2))
    for (a1, b1), (a2, b2) in itertools.combinations(
        [(a, b) for a in words for b in words], 2
    ):
        g = WeylElement(Z2, 0, a1, b1)
        h = WeylElement(Z2, 0, a2, b2)
        assert abs(np.trace(dense_matrix(g).conj().T @ dense_matrix(h))) < 1e-12


def pair_rows(q, n, w):
    """The rows of `bounded_pair_arrays` as (a, b) tuples, in its order."""
    xs, ys = bounded_pair_arrays(q, n, w)
    return list(zip(map(tuple, xs.tolist()), map(tuple, ys.tolist())))


def test_bounded_pair_arrays_counts():
    assert len(pair_rows(2, 5, 1)) == 15
    assert pair_rows(2, 4, 0) == []
    assert len(pair_rows(2, 15, 2)) == 990


def test_bounded_pair_arrays_order_and_uniqueness():
    pairs = pair_rows(3, 3, 2)
    assert len(pairs) == len(set(pairs))
    weights = [weight(a, b) for a, b in pairs]
    assert weights == sorted(weights)
    assert pairs == pair_rows(3, 3, 2)
    with budget(sphere=1000), pytest.raises(ValueError):
        bounded_pair_arrays(2, 40, 12)


def reference_bounded_pairs(q, n, w):
    """Pairs with 1 <= wt <= w by weight, support, then digit pairs, from itertools."""
    options = [(x, y) for x in range(q) for y in range(q) if x or y]
    for size in range(1, w + 1):
        for support in itertools.combinations(range(n), size):
            for choice in itertools.product(options, repeat=size):
                a, b = [0] * n, [0] * n
                for pos, (x, y) in zip(support, choice):
                    a[pos], b[pos] = x, y
                yield tuple(a), tuple(b)


@settings(max_examples=80)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 7), st.integers(0, 3), st.booleans())
def test_bounded_enumeration_matches_itertools_reference(q, n, w, refuse):
    w = min(w, n)
    need = error_sphere_count(n, q, w)
    if refuse:
        # one pair short of the sphere: refused before anything is built
        with budget(sphere=need - 1), pytest.raises(ValueError, match="budget"):
            bounded_pair_arrays(q, n, w)
        return
    if need > 50_000:
        return  # the reference is pure Python; the refusal branch still covers this shape
    expected = list(reference_bounded_pairs(q, n, w))
    with budget(sphere=need):
        xs, ys = bounded_pair_arrays(q, n, w)
    assert xs.dtype == ys.dtype == np.int64
    assert xs.shape == ys.shape == (len(expected), n)
    assert list(zip(map(tuple, xs.tolist()), map(tuple, ys.tolist()))) == expected


def test_bounded_enumeration_refuses_a_radius_outside_0_to_n():
    for w in (-1, 4):
        with pytest.raises(ValueError, match="need 0 <= w <= n"):
            bounded_pair_arrays(2, 3, w)


def test_budget_restores_the_previous_budget_after_an_exception():
    assert Budget() == Budget(sphere=10**7, group=2**16)
    with budget(sphere=16) as outer:
        assert outer == Budget(sphere=16)
        with pytest.raises(ValueError, match="need 16 pairs, cap 15"):
            with budget(sphere=15, group=4) as inner:
                assert inner == Budget(sphere=15, group=4)
                check_sphere(5, 2, 1)
        check_sphere(5, 2, 1)  # 16 pairs fit the outer budget again
        with budget(group=4) as inner:
            assert inner == Budget(sphere=16, group=4)  # unnamed fields are kept
    with budget() as current:
        assert current == Budget()


def library_functions():
    """Every function and method defined in a module of nonstab, unwrapped."""
    for info in pkgutil.iter_modules(nonstab.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"nonstab.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
                for attr in ("__func__", "fget", "func"):  # methods and properties
                    member = getattr(member, attr, member)
                member = inspect.unwrap(member)
                if inspect.isfunction(member):
                    yield member


def test_no_signature_takes_a_cap():
    functions = list(library_functions())
    names = {f"{fn.__module__}.{fn.__qualname__}" for fn in functions}
    assert {"nonstab.oracle.kl_check", "nonstab.oracle.SparseState.fidelity",
            "nonstab.oracle._basis_matrix", "nonstab.weyl.check_size"} <= names
    taking_caps = [
        f"{fn.__module__}.{fn.__qualname__}({name})"
        for fn in functions
        for name in inspect.signature(fn).parameters
        if name in ("cap", "group_cap")
    ]
    assert taking_caps == []
    # the default caps are named only where the budget and the CLI flags are defined
    naming_defaults = sorted(
        path.stem
        for path in Path(nonstab.__file__).parent.glob("*.py")
        if any(cap in path.read_text() for cap in ("ENUMERATION_CAP", "GROUP_CAP"))
    )
    assert naming_defaults == ["cli", "weyl"]
