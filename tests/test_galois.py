import itertools

import numpy as np
import pytest
from conftest import brute_force_subspace_count, linear_solve
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstab.galois import (
    CHUNK_VALUES,
    PRODUCT_ROWS,
    PrimeField,
    _chunk_digits,
    _chunk_values,
    _difference_table,
    _digit,
    _exact_product,
    _key_differences,
    _remainder,
    error_sphere_count,
    gaussian_binomial,
    is_prime,
    pack,
    places,
    unique_keys,
    unpack,
)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        PrimeField(4)


def test_is_prime_agrees_with_trial_division_below_10_5():
    numbers = np.arange(10**5)
    composite = numbers < 2
    for divisor in range(2, 317):  # 316^2 < 10^5 < 317^2
        composite |= (numbers % divisor == 0) & (numbers != divisor)
    assert [is_prime(p) for p in range(10**5)] == (~composite).tolist()


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine prime bases
    assert 151 * 751 * 28351 == 3215031751 and not is_prime(3215031751)
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert not is_prime(3825123056546413051)


def test_is_prime_is_fast_on_large_primes_and_refuses_beyond_its_range():
    import time

    elapsed = []
    for _ in range(5):
        start = time.perf_counter()
        assert is_prime(2**61 - 1)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 1e-3
    assert not is_prime(2**61 + 1)  # divisible by 3
    # the Mersenne prime 2^89 - 1 lies beyond the range where the bases decide
    with pytest.raises(ValueError, match=f"^primality of {2**89 - 1} is not decided"):
        PrimeField(2**89 - 1)


def test_linear_solve_identity_case():
    f2 = PrimeField(2)
    sol = linear_solve(f2, np.eye(2, dtype=int), [1, 0])
    assert sol is not None
    x, ker = sol
    assert list(x) == [1, 0]
    assert ker == []


def test_linear_solve_parity_kernel():
    f2 = PrimeField(2)
    sol = linear_solve(f2, [[1, 1]], [0])
    assert sol is not None
    x, ker = sol
    assert list(x) == [0, 0]
    assert len(ker) == 1 and list(ker[0]) == [1, 1]


def test_linear_solve_gf3_kernel_matches_bruteforce():
    f3 = PrimeField(3)
    a = np.array([[1, 2], [2, 1]])
    # brute force over all 9 vectors
    brute = [
        v
        for v in itertools.product(range(3), repeat=2)
        if not np.any((a @ np.array(v)) % 3)
    ]
    assert set(brute) == {(0, 0), (1, 1), (2, 2)}
    sol = linear_solve(f3, a, [0, 0])
    assert sol is not None
    x, ker = sol
    assert not np.any(x)
    assert len(ker) == 1 and list(ker[0]) == [1, 1]


def test_linear_solve_inconsistent_and_mismatch():
    f2 = PrimeField(2)
    assert linear_solve(f2, [[0, 0]], [1]) is None
    with pytest.raises(ValueError):
        linear_solve(f2, [[1, 0]], [1, 1])


def test_solutions_satisfy_system_exactly():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(20):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            a = rng.integers(0, p, size=(rows, cols))
            x0 = rng.integers(0, p, size=cols)
            b = (a @ x0) % p
            sol = linear_solve(field, a, b)
            assert sol is not None
            x, ker = sol
            assert not np.any((a @ x - b) % p)
            for coeffs in itertools.product(range(p), repeat=len(ker)):
                y = x.copy()
                for c, k in zip(coeffs, ker):
                    y = (y + c * k) % p
                assert not np.any((a @ y - b) % p)
            assert len(ker) == cols - len(field.rref(a)[1])


def test_rref_deterministic():
    f2 = PrimeField(2)
    a = [[0, 1, 1], [1, 1, 0], [1, 0, 1]]
    r1 = f2.rref(a)[0]
    r2 = f2.rref(a)[0]
    assert np.array_equal(r1, r2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 2, 3) == 155
    assert gaussian_binomial(6, 3, 0) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 2) == brute_force_subspace_count(4, 2, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 2, 4)


def test_gaussian_binomial_symmetry():
    for q in (2, 3, 5):
        for m in range(7):
            for r in range(m + 1):
                assert gaussian_binomial(m, q, r) == gaussian_binomial(m, q, m - r)


def test_gaussian_binomial_matches_bruteforce_small():
    for q in (2, 3):
        for m in range(1, 5):
            if q == 3 and m > 3:
                continue
            for r in range(m + 1):
                assert gaussian_binomial(m, q, r) == brute_force_subspace_count(m, q, r)


def test_error_sphere_count():
    assert error_sphere_count(9, 3, 0) == 1
    assert error_sphere_count(5, 2, 1) == 16
    assert error_sphere_count(15, 2, 2) == 991
    assert error_sphere_count(15, 2, 2) == 1 + 45 + 945
    with pytest.raises(ValueError):
        error_sphere_count(3, 2, 4)


def test_field_check_rejects_unreduced():
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        f3.check([[0, 5]])
    assert np.array_equal(f3.reduce([[0, 5]]), [[0, 2]])


def reference_rref(field, a):
    """Gauss-Jordan elimination that clears each pivot column one row at a time."""
    p = field.p
    a = field.reduce(a)
    rows, cols = a.shape
    r = a.copy()
    t = np.eye(rows, dtype=np.int64)
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        sub = np.nonzero(r[row:, col])[0]
        if sub.size == 0:
            continue
        piv = row + int(sub[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
            t[[row, piv]] = t[[piv, row]]
        inv = field.inv_scalar(r[row, col])
        r[row] = (r[row] * inv) % p
        t[row] = (t[row] * inv) % p
        for other in range(rows):
            if other != row and r[other, col]:
                f = r[other, col]
                r[other] = (r[other] - f * r[row]) % p
                t[other] = (t[other] - f * t[row]) % p
        pivots.append(col)
        row += 1
    return r, pivots, t


@st.composite
def field_matrices(draw):
    """(field, matrix): random, tall, wide, zero-column or low-rank, over GF(2, 3, 5, 7)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    shape = draw(st.sampled_from(["random", "tall", "wide", "no columns", "low rank"]))
    if shape == "no columns":
        rows, cols = draw(st.integers(0, 6)), 0
    else:
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        if shape == "tall":
            rows = cols + draw(st.integers(1, 8))
        elif shape == "wide":
            cols = rows + draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(0, p, size=(rows, cols))
    if shape == "low rank" and rows and cols:
        rank = draw(st.integers(0, min(rows, cols) - 1))
        matrix = rng.integers(0, p, size=(rows, rank)) @ rng.integers(0, p, size=(rank, cols))
    if draw(st.booleans()):
        matrix = matrix - p * rng.integers(-2, 3, size=matrix.shape)  # unreduced entries
    return PrimeField(p), matrix


@settings(max_examples=200)
@given(field_matrices())
def test_rref_matches_the_row_loop(case):
    field, matrix = case
    r, pivots, t = field.rref(matrix)
    r_ref, pivots_ref, t_ref = reference_rref(field, matrix)
    assert pivots == pivots_ref
    assert r.dtype == t.dtype == np.int64
    assert np.array_equal(r, r_ref) and np.array_equal(t, t_ref)
    assert np.array_equal((t @ field.reduce(matrix)) % field.p, r)


# (q, width) on both sides of q^width = 2^63, where keys turn from int64 to Python ints
CODEC_SHAPES = (
    [(2, w) for w in (1, 2, 7, 62, 63, 64, 65)]
    + [(3, w) for w in (1, 4, 39, 40, 41)]
    + [(5, w) for w in (1, 3, 27, 28)]
)


@st.composite
def digit_rows(draw):
    """(q, width, rows, values): digit rows and the integers they write in base q."""
    q, width = draw(st.sampled_from(CODEC_SHAPES))
    edges = st.sampled_from([0, 1, q - 1, q**width - 1, q ** (width - 1), 2**63 - 1, 2**63])
    value = (st.integers(0, q**width - 1) | edges).filter(lambda v: v < q**width)
    values = draw(st.lists(value, min_size=1, max_size=8))
    if draw(st.booleans()):
        values.append(values[0])  # a repeated row
    rows = [[v // q ** (width - 1 - k) % q for k in range(width)] for v in values]
    return q, width, np.array(rows, dtype=np.int64), values


@settings(max_examples=120)
@given(digit_rows())
def test_packed_digit_codec(case):
    q, width, rows, values = case
    keys = pack(rows, q)
    assert keys.dtype == (object if q**width > 2**63 else np.int64)
    assert [int(k) for k in keys] == values
    digits = unpack(keys, q, width)
    assert digits.dtype == np.int64 and np.array_equal(digits, rows)
    order = sorted(range(len(rows)), key=lambda i: (keys[i], i))
    assert order == sorted(range(len(rows)), key=lambda i: (rows[i].tolist(), i))
    place = places(q, width)
    for k in range(width):
        assert _digit(keys, place[k], q).tolist() == digits[:, k].tolist()
    assert unique_keys(keys).tolist() == sorted(set(keys.tolist()))


def test_place_table_is_shared_and_read_only():
    for q, width in CODEC_SHAPES:
        table = places(q, width)
        assert table is places(q, width) and not table.flags.writeable
        assert table.dtype == (object if q**width > 2**63 else np.int64)


@settings(max_examples=120)
@given(st.sampled_from([2, 3, 5, 7]), st.booleans(),
       st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-20, 20), min_size=1, max_size=40))
def test_remainder_equals_the_modulo_operator(q, double, values):
    # x - (x // q) q is x % q for every sign, since // floors
    modulus = 2 * q if double else q
    x = np.array(values, dtype=np.int64)
    out = _remainder(x, modulus)
    assert out.dtype == np.int64 and out.tolist() == (x % modulus).tolist()
    assert x.tolist() == values  # the input is left alone


@settings(max_examples=60)
@given(st.sampled_from([1, 5, PRODUCT_ROWS, 3 * PRODUCT_ROWS + 3]), st.integers(4, 16),
       st.sampled_from([2, 5, 2**20, 2**28]), st.integers(0, 2**32 - 1))
def test_exact_product_equals_the_int64_product(rows, inner, bound, seed):
    # float64 blocks while the partial sums stay below 2^53, int64 beyond
    rng = np.random.default_rng(seed)
    a = rng.integers(-bound + 1, bound, (rows, inner))
    b = rng.integers(-bound + 1, bound, (inner, 8))
    out = _exact_product(a, b)
    assert out.dtype == np.int64 and np.array_equal(out, a @ b)


def test_the_hypothesis_profile_is_loaded():
    # tests/conftest.py registers one profile for every property
    assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None


def _widths(q):
    """Key widths of 1 digit, exactly one chunk, several chunks and beyond int64."""
    chunk = _chunk_digits(q).shape[1]
    beyond = next(w for w in range(1, 80) if q**w > 2**63)
    return (1, chunk, 2 * chunk + 1, 3 * chunk, beyond, beyond + chunk - 1)


@st.composite
def difference_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 257]))
    width = draw(st.sampled_from(_widths(q)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, q, (draw(st.integers(1, 6)), width))
    b = rng.integers(0, q, (draw(st.integers(1, 6)), width))
    if draw(st.booleans()):  # the extreme digits, where a borrow would show
        a[0], b[-1] = 0, q - 1
    return q, width, a, b


@settings(max_examples=150)
@given(difference_cases())
def test_chunked_key_difference_equals_the_digitwise_difference(case):
    q, width, a, b = case
    ka, kb = _chunk_values(pack(a, q), q, width), _chunk_values(pack(b, q), q, width)
    # every a against every b, as difference_keys does
    out = _key_differences(ka, kb, q, width)
    want = pack((a[:, None, :] - b[None, :, :]) % q, q)
    assert out.dtype == want.dtype == (object if q**width > 2**63 else np.int64)
    assert out.tolist() == want.tolist()
    # one vector against many, as the greedy walk does
    first = [int(c[0]) for c in ka]
    assert _key_differences(first, kb, q, width).tolist() == want[0].tolist()


def test_difference_table_is_small_shared_and_read_only():
    for q in (2, 3, 5, 7, 11, 251):
        table = _difference_table(q)
        digits = _chunk_digits(q)
        assert table is _difference_table(q) and not table.flags.writeable
        assert table.dtype == np.uint8 and table.shape == (len(digits),) * 2
        assert len(digits) <= CHUNK_VALUES < q * len(digits)
        want = pack((digits[:, None, :] - digits[None, :, :]) % q, q)
        assert np.array_equal(table, want)


@settings(max_examples=120)
@given(st.lists(st.integers(0, 40), max_size=60), st.integers(1, 3), st.integers(-3, 2**40))
def test_unique_keys_marks_dense_keys_and_sorts_the_rest(values, columns, extra):
    # dense keys (max < count) are marked, the rest sorted: one answer either way
    rows = len(values) // columns
    keys = np.array(values[: rows * columns] + [extra], dtype=np.int64)
    for shaped in (keys[:-1].reshape(rows, columns), keys):
        got = unique_keys(shaped)
        assert got.dtype == np.int64
        assert got.tolist() == sorted(set(shaped.ravel().tolist()))
    assert unique_keys(keys.astype(object)).tolist() == sorted(set(keys.tolist()))
