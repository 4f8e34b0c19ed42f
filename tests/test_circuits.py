import itertools

import numpy as np
import pytest

from nonstab.circuits import (
    Circuit,
    Gate,
    build_encoder,
    encoder_output_data,
    message_state,
    simulate,
    uniform_over_sum_zero,
    zero_state,
)
from nonstab.families import distance2_family, maximal_form_spec
from nonstab.oracle import (
    SparseState,
    closed_form_codeword,
    codeword,
    message_coordinates,
)
from nonstab.weyl import prime_group


def gate_matrix(q, registers, gates):
    """Dense unitary of a gate list, via simulation on every basis word."""
    circuit = Circuit(q, registers, tuple(gates))
    dim = q**registers
    out = np.zeros((dim, dim), dtype=complex)
    for col, word in enumerate(itertools.product(range(q), repeat=registers)):
        state = SparseState.basis_word(prime_group(q), word)
        out[:, col] = simulate(circuit, state).to_dense()
    return out


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("c-u", (0,))
    with pytest.raises(ValueError):
        Gate("warp", (0,))
    with pytest.raises(ValueError):
        Gate("c-v", (1, 1))
    with pytest.raises(ValueError):
        Circuit(4, 2, (Gate("c-u", (0, 1)),))
    with pytest.raises(ValueError):
        Circuit(2, 1, (Gate("c-u", (0, 1)),))


def test_cu_is_cnot_for_q2():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_allclose(gate_matrix(2, 2, [Gate("c-u", (0, 1))]), cnot, atol=1e-12)


def test_cv_is_cz_for_q2():
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    np.testing.assert_allclose(gate_matrix(2, 2, [Gate("c-v", (0, 1))]), cz, atol=1e-12)


def test_fourier_is_hadamard_for_q2():
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(gate_matrix(2, 1, [Gate("fourier", (0,))]), had, atol=1e-12)


def test_ccu_truth_table():
    for q in (2, 3):
        m = gate_matrix(q, 3, [Gate("cc-u", (0, 1, 2))])
        for a, b, c in itertools.product(range(q), repeat=3):
            col = (a * q + b) * q + c
            row = (a * q + b) * q + (c + a * b) % q
            assert m[row, col] == pytest.approx(1)


def test_ccv_truth_table():
    for q in (2, 3):
        m = gate_matrix(q, 3, [Gate("cc-v", (0, 1, 2))])
        w = np.exp(2j * np.pi / q)
        diag = np.diag(m)
        assert np.allclose(m, np.diag(diag), atol=1e-12)
        for a, b, c in itertools.product(range(q), repeat=3):
            idx = (a * q + b) * q + c
            assert diag[idx] == pytest.approx(w ** ((c + a * b) % q))


def test_inverter():
    m = gate_matrix(3, 1, [Gate("inverter", (0,))])
    expected = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        expected[(-a) % 3, a] = 1
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_prepare_zero_asserts():
    circuit = Circuit(2, 1, (Gate("prepare-zero", (0,)),))
    simulate(circuit, SparseState.basis_word(prime_group(2), (0,)))
    with pytest.raises(ValueError, match="prepare-zero"):
        simulate(circuit, SparseState.basis_word(prime_group(2), (1,)))


def test_componentwise_layers():
    # the per-digit c-u layer realizes |a>|b> -> |a>|a+b> on whole words
    q, n = 3, 2
    gates = [Gate("c-u", (i, n + i)) for i in range(n)]
    circuit = Circuit(q, 2 * n, tuple(gates))
    a, b = (1, 2), (2, 2)
    out = simulate(circuit, SparseState.basis_word(prime_group(q), a + b))
    expected = a + tuple((x + y) % q for x, y in zip(a, b))
    assert out.to_dict() == {expected: 1.0 + 0j}
    # and the c-v layer multiplies by w(a . b)
    gates = [Gate("c-v", (i, n + i)) for i in range(n)]
    out = simulate(Circuit(q, 2 * n, tuple(gates)), SparseState.basis_word(prime_group(q), a + b))
    w = np.exp(2j * np.pi / q)
    assert out.to_dict()[a + b] == pytest.approx(w ** (sum(x * y for x, y in zip(a, b)) % q))


def test_uniform_over_sum_zero():
    circuit = uniform_over_sum_zero(2, 2)
    out = simulate(circuit, zero_state(circuit))
    assert out.to_dict() == pytest.approx({(0, 0): 1 / np.sqrt(2), (1, 1): 1 / np.sqrt(2)})

    trivial = uniform_over_sum_zero(1, 3)
    assert simulate(trivial, zero_state(trivial)).to_dict() == {(0,): 1.0 + 0j}

    c3 = uniform_over_sum_zero(3, 3)
    out3 = simulate(c3, zero_state(c3))
    assert len(out3) == 9  # q^(n-1) words
    amps = np.array(list(out3.to_dict().values()))
    np.testing.assert_allclose(amps, 1 / 3, atol=1e-12)
    for word in out3.to_dict():
        assert sum(word) % 3 == 0


def test_simulation_is_unitary_on_random_circuits():
    rng = np.random.default_rng(6)
    for q in (2, 3):
        group = prime_group(q)
        for _ in range(10):
            registers = int(rng.integers(2, 5))
            gates = []
            for _ in range(12):
                kind = rng.choice(["inverter", "c-u", "c-v", "cc-u", "cc-v", "fourier"])
                arity = {"inverter": 1, "fourier": 1, "c-u": 2, "c-v": 2, "cc-u": 3, "cc-v": 3}[kind]
                if arity > registers:
                    continue
                ops = tuple(rng.choice(registers, size=arity, replace=False))
                gates.append(Gate(kind, ops))
            circuit = Circuit(q, registers, tuple(gates))
            words = rng.integers(0, q, size=(3, registers))
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            state = SparseState.from_pairs(group, registers, words, amps).normalized()
            assert simulate(circuit, state).norm() == pytest.approx(1.0, abs=1e-12)


def test_encoder_distance2_matches_codewords():
    spec, b = distance2_family(5, 2)
    circuit = build_encoder(spec)
    outputs = []
    for u in b.sorted_members():
        c_vec, delta = message_coordinates(spec, u)
        final = simulate(circuit, message_state(spec, c_vec, delta))
        words = final.words
        assert not np.any(words[:, 15:])  # ancilla exactly |0^n>
        data = encoder_output_data(final, 5)
        assert data.fidelity(codeword(b, u)) >= 1 - 1e-10
        outputs.append(data)
    gram = np.array([[x.inner(y) for y in outputs] for x in outputs])
    np.testing.assert_allclose(gram, np.eye(len(outputs)), atol=1e-10)


def test_encoder_gf3_matches_closed_form():
    rng = np.random.default_rng(42)
    spec = maximal_form_spec(3, 4, np.triu(rng.integers(0, 3, size=(4, 4))))
    circuit = build_encoder(spec)
    for u in [(0, 0, 0, 0), (1, 2, 0, 1), (2, 2, 2, 1)]:
        c_vec, delta = message_coordinates(spec, u)
        final = simulate(circuit, message_state(spec, c_vec, delta))
        data = encoder_output_data(final, 4)
        assert data.fidelity(closed_form_codeword(spec, u)) >= 1 - 1e-10


def test_encoder_requires_certificate():
    from nonstab.gottesman import GottesmanSpec

    bare = GottesmanSpec(q=2, L=[[1]], M=[[1]], D=[[1]])
    with pytest.raises(ValueError, match="certificate"):
        build_encoder(bare)


def test_encoder_output_data_rejects_entanglement():
    group = prime_group(2)
    bad = SparseState.from_pairs(
        group, 4, [[0, 0, 0, 0], [1, 0, 1, 0]], [1 / np.sqrt(2)] * 2
    )
    with pytest.raises(ValueError, match="entangled"):
        encoder_output_data(bad, 1)
    bad_d = SparseState.from_pairs(
        group, 4, [[0, 0, 0, 0], [0, 1, 1, 0]], [1 / np.sqrt(2)] * 2
    )
    with pytest.raises(ValueError, match="entangled"):
        encoder_output_data(bad_d, 1)
    nonzero_anc = SparseState.basis_word(group, (0, 0, 0, 1))
    with pytest.raises(ValueError, match="ancilla"):
        encoder_output_data(nonzero_anc, 1)
    with pytest.raises(ValueError, match="zero state"):
        encoder_output_data(SparseState.from_pairs(group, 4, [[0, 0, 0, 0]], [0.0]), 1)
    with pytest.raises(ValueError, match="has 8 registers, not 4"):
        encoder_output_data(nonzero_anc, 2)
