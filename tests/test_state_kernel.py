"""The packed-index state kernel against word-matrix reference versions.

`reference_apply` and `reference_simulate` act on the digit rows of a state
and re-pack after every branching step, as the word-matrix kernel did.  The
packed kernel must give the same packed indices, the same amplitude bits
and the same exceptions.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    closed_form_codeword,
    linear_solve,
    reference_inner,
    shift_phase,
    sum_zero_words,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstab.circuits import (
    GATE_ARITY,
    Circuit,
    Gate,
    build_encoder,
    encoder_output_data,
    message_state,
    simulate,
)
from nonstab.families import code_15_8_3, maximal_form_spec
from nonstab.galois import _chunk_digits, _digit, _weyl_action, places, unpack
from nonstab.oracle import (
    PRUNE_TOL,
    SparseState,
    apply,
    message_coordinates,
)
from nonstab.weyl import WeylElement, prime_group, root_table

QS = (2, 3, 5)
# the most digits drawn for each q: keys then span two chunks of `apply`
# (8 digits of 2, 5 of 3, 3 of 5 in a chunk)
MAX_DIGITS = {2: 12, 3: 8, 5: 6}


def reference_state(q, n, words, amps):
    """(packed, amps) of rows of digits: sorted, duplicates merged, near-zeros pruned."""
    words = np.array(words, dtype=np.int64).reshape(-1, n) % q
    amps = np.asarray(amps, dtype=complex).ravel()
    if words.shape[0] != amps.shape[0]:
        raise ValueError("words and amplitudes differ in length")
    packed = words @ (q ** np.arange(n - 1, -1, -1, dtype=np.int64))
    uniq, inverse = np.unique(packed, return_inverse=True)
    merged = np.zeros(len(uniq), dtype=complex)
    np.add.at(merged, inverse, amps)
    keep = np.abs(merged) > PRUNE_TOL
    return uniq[keep], merged[keep]


def reference_words(q, n, packed):
    return packed[:, None] // (q ** np.arange(n - 1, -1, -1, dtype=np.int64)) % q


def reference_apply(g, state):
    """w^phase U_a V_b on the whole word matrix of the state."""
    if g.group != state.group or g.n != state.n:
        raise ValueError("element and state act on different word spaces")
    q, n, p = state.group.q, state.n, state.group.phase_denominator
    words = reference_words(q, n, state.packed)
    moved = (words + np.array(g.a)) % q
    exponents = np.einsum("...i,...i->...", words, np.array(g.b)) % q
    phases = root_table(p)[(g.phase + 2 * exponents) % p]
    return reference_state(q, n, moved, state.amps * phases)


def reference_simulate(circuit, state):
    """The gates on the word matrix; states re-packed after each Fourier gate."""
    group = prime_group(circuit.q)
    if state.group != group or state.n != circuit.registers:
        raise ValueError("input state does not match the circuit's registers")
    q, n = circuit.q, circuit.registers
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    words = reference_words(q, n, state.packed)
    amps = state.amps.copy()
    for gate in circuit.gates:
        ops = gate.operands
        if gate.kind == "inverter":
            words[:, ops[0]] = (-words[:, ops[0]]) % q
        elif gate.kind == "c-u":
            words[:, ops[1]] = (words[:, ops[1]] + words[:, ops[0]]) % q
        elif gate.kind == "c-v":
            amps = amps * roots[(words[:, ops[0]] * words[:, ops[1]]) % q]
        elif gate.kind == "cc-u":
            words[:, ops[2]] = (words[:, ops[2]] + words[:, ops[0]] * words[:, ops[1]]) % q
        elif gate.kind == "cc-v":
            amps = amps * roots[(words[:, ops[2]] + words[:, ops[0]] * words[:, ops[1]]) % q]
        elif gate.kind == "prepare-zero":
            if np.any(words[:, ops[0]]):
                raise ValueError(f"prepare-zero on register {ops[0]}: digit not |0>")
        elif gate.kind == "fourier":
            count = words.shape[0]
            words = np.repeat(words, q, axis=0)
            digits = np.tile(np.arange(q, dtype=np.int64), count)
            old = words[:, ops[0]].copy()
            words[:, ops[0]] = digits
            amps = np.repeat(amps, q) * roots[(old * digits) % q] / np.sqrt(q)
            packed, amps = reference_state(q, n, words, amps)
            words = reference_words(q, n, packed)
    return reference_state(q, n, words, amps)


def outcome(fn, *args):
    """(packed, amplitude bits) of a result, or the exception's type and message."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, SparseState):
        result = result.packed, result.amps
    packed, amps = result
    return packed.tolist(), amps.view(float).tobytes()


@st.composite
def states(draw, q=None, n=None, rows=st.integers(1, 12), scale=1.0):
    """A state from a number of random rows drawn from `rows`, 1 to 12 by default;
    rows may repeat and amplitudes cancel.  The parts of every amplitude are
    drawn in [-1, 1] and multiplied by `scale`."""
    q = draw(st.sampled_from(QS)) if q is None else q
    n = draw(st.integers(1, MAX_DIGITS[q])) if n is None else n
    rows = draw(rows)
    digit = st.just(0) | st.integers(0, q - 1)  # zero-heavy, so prepare-zero often passes
    words = draw(st.lists(st.lists(digit, min_size=n, max_size=n),
                          min_size=rows, max_size=rows))
    parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]) | st.floats(-1, 1)
    amps = [complex(draw(parts) * scale, draw(parts) * scale) for _ in range(rows)]
    return SparseState.from_pairs(prime_group(q), n, words, amps)


@st.composite
def elements(draw, q, n):
    digits = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    phase = draw(st.integers(0, prime_group(q).phase_denominator - 1))
    return WeylElement(prime_group(q), phase, tuple(draw(digits)), tuple(draw(digits)))


@st.composite
def apply_cases(draw):
    state = draw(states())
    n = state.n if draw(st.integers(0, 9)) else state.n + 1  # sometimes mismatched
    return draw(elements(state.group.q, n)), state


def random_gates(draw, registers, count):
    """`count` random gates; prepare-zero once, every other kind twice in the draw,
    so that most circuits run to the end."""
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= registers]
    kinds += [kind for kind in kinds if kind != "prepare-zero"]
    gates = []
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        ops = draw(st.permutations(range(registers)))[: GATE_ARITY[kind]]
        gates.append(Gate(kind, tuple(ops)))
    return gates


@st.composite
def circuit_cases(draw):
    """A random circuit and input state.  Half the inputs are one word, whose
    registers keep one digit until a Fourier gate, or a write that reads a
    register that varies, reaches them.  Half the circuits hold a Fourier
    gate, a write and the Fourier gate again on one register, at random
    places, so that rows meet in an order that the write changed, and half
    end on a prepare-zero.  A third of the inputs are scaled to a few
    PRUNE_TOL, so that Fourier gates prune rows, at times all of them."""
    q = draw(st.sampled_from(QS))
    registers = draw(st.integers(1, MAX_DIGITS[q]))
    gates = random_gates(draw, registers, draw(st.integers(0, 24)))
    if draw(st.booleans()):
        f = draw(st.integers(0, registers - 1))
        writes = [Gate("inverter", (f,))] + [Gate("c-u", (r, f)) for r in range(registers) if r != f]
        at = 0
        for gate in (Gate("fourier", (f,)), draw(st.sampled_from(writes)), Gate("fourier", (f,))):
            at = draw(st.integers(at, len(gates)))
            gates.insert(at, gate)
            at += 1
    if draw(st.booleans()):
        gates.append(Gate("prepare-zero", (draw(st.integers(0, registers - 1)),)))
    n = registers if draw(st.integers(0, 9)) else registers + 1  # sometimes mismatched
    rows = st.just(1) if draw(st.booleans()) else st.integers(1, 12)
    scale = PRUNE_TOL * draw(st.floats(1, 2)) * np.sqrt(q) ** draw(st.integers(0, 3))
    scale = scale if draw(st.integers(0, 2)) == 0 else 1.0
    return Circuit(q, registers, tuple(gates)), draw(states(q=q, n=n, rows=rows, scale=scale))


@st.composite
def rewrite_cases(draw):
    """Circuits that write a register twice between reads of it, with a Fourier
    gate in the middle, so that a stale or misaligned digit of a register
    changes the result."""
    q = draw(st.sampled_from(QS))
    registers = draw(st.integers(3, MAX_DIGITS[q]))
    target, src, other = draw(st.permutations(range(registers)))[:3]
    writes = st.sampled_from([Gate("inverter", (target,)), Gate("c-u", (src, target)),
                              Gate("cc-u", (src, other, target))])
    reads = st.sampled_from([Gate("c-v", (target, src)), Gate("cc-v", (src, other, target)),
                             Gate("c-u", (target, other))])
    middle = [draw(reads), draw(writes), draw(writes), draw(reads),
              Gate("fourier", (draw(st.sampled_from([target, src, other])),)),
              draw(writes), draw(reads), draw(writes), draw(writes), draw(reads)]
    head = random_gates(draw, registers, draw(st.integers(0, 7)))
    tail = random_gates(draw, registers, draw(st.integers(0, 7)))
    gates = head + middle + tail
    return Circuit(q, registers, tuple(gates)), draw(states(q=q, n=registers))


@settings(max_examples=150)
@given(apply_cases())
def test_apply_matches_word_matrix_reference(case):
    g, state = case
    assert outcome(apply, g, state) == outcome(reference_apply, g, state)


@st.composite
def inner_cases(draw):
    """Two states on one word space: drawn apart, one state twice, one support
    with other amplitudes, disjoint supports, or one of them empty."""
    a = draw(states())
    b = draw(states(q=a.group.q, n=a.n))
    kind = draw(st.sampled_from(["drawn", "identical", "same support", "disjoint", "empty"]))
    if kind == "identical":
        b = a
    elif kind == "same support":
        amps = np.array([complex(*draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1))))
                         for _ in range(len(a))], dtype=complex)
        b = SparseState(a.group, a.n, a.packed, amps)
    elif kind == "disjoint":
        apart = ~np.isin(b.packed, a.packed)
        b = SparseState(a.group, a.n, b.packed[apart], b.amps[apart])
    elif kind == "empty":
        b = SparseState(a.group, a.n, b.packed[:0], b.amps[:0])
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=200)
@given(inner_cases())
def test_inner_matches_the_intersect1d_reference(case):
    a, b = case
    bits = np.array([a.inner(b), reference_inner(a, b)]).view(np.uint64)
    assert bits[:2].tolist() == bits[2:].tolist()


# keys of up to three chunks of `galois._chunk_layout`
WEYL_DIGITS = {2: 17, 3: 11, 5: 7}


@st.composite
def weyl_action_cases(draw):
    """(keys, a, b, q, n): packed words, and an element (a, b) whose digits are
    zero-heavy and that often leaves whole chunks of digits untouched."""
    q = draw(st.sampled_from(QS))
    n = draw(st.integers(1, WEYL_DIGITS[q]))
    keys = np.array(draw(st.lists(st.integers(0, q**n - 1), max_size=20)), dtype=np.int64)
    digit = st.just(0) | st.integers(0, q - 1)
    a, b = (np.array(draw(st.lists(digit, min_size=n, max_size=n)), dtype=np.int64) for _ in "ab")
    width = _chunk_digits(q).shape[1]
    for chunk in draw(st.sets(st.integers(0, 2))):  # counted from the last digit
        quiet = slice(max(0, n - (chunk + 1) * width), max(0, n - chunk * width))
        a[quiet] = b[quiet] = 0
    if draw(st.booleans()):  # as `apply` hands them over
        a, b = tuple(a.tolist()), tuple(b.tolist())
    return keys, a, b, q, n


@settings(max_examples=200)
@given(weyl_action_cases())
def test_weyl_action_matches_the_digit_row_reference(case):
    keys, a, b, q, n = case
    targets, exponents = _weyl_action(keys, a, b, q, n)
    want_targets, want_exponents = shift_phase(unpack(keys, q, n), np.array(a), np.array(b), q)
    assert np.array_equal(targets, want_targets)
    assert np.array_equal(exponents % q, want_exponents)


@settings(max_examples=150)
@given(circuit_cases())
def test_simulate_matches_word_matrix_reference(case):
    circuit, state = case
    assert outcome(simulate, circuit, state) == outcome(reference_simulate, circuit, state)


@pytest.mark.parametrize(
    "q, registers, gates, word, amp",
    [
        # the rows that the two Fourier gates on one-digit registers leave are out of
        # key order, and the last merge sums three of them, which rounds by order
        (3, 4, [("fourier", (2,)), ("fourier", (0,)), ("cc-v", (3, 0, 2)), ("cc-u", (2, 1, 0)),
                ("fourier", (2,))], [1, 1, 2, 0], -0.59914139 + 0.05616772j),
        # the Fourier gate prunes every row; register 1 still holds its digit 1
        (2, 2, [("c-v", (0, 1)), ("fourier", (0,)), ("prepare-zero", (1,))], [0, 1], 1.2e-14),
    ],
    ids=["merge in key order", "prepare-zero on no rows"],
)
def test_simulate_matches_the_reference_where_one_digit_registers_meet_the_merge(
    q, registers, gates, word, amp
):
    circuit = Circuit(q, registers, tuple(Gate(kind, ops) for kind, ops in gates))
    state = SparseState.from_pairs(prime_group(q), registers, [word], [amp])
    assert outcome(simulate, circuit, state) == outcome(reference_simulate, circuit, state)


def test_simulate_phases_a_large_support_from_one_digit_registers_as_the_reference():
    # a phase from two registers that keep one digit, on at least 2^14 rows: numpy
    # multiplies by a temporary of 256 KiB or more in place, and the bits then
    # depend on the shape of the phase index
    for q, registers, spread in ((3, 12, 9), (5, 10, 7)):
        mix = [Gate("c-v", (i, (i + 3) % spread)) for i in range(spread)]
        mix += [Gate("cc-v", (i, (i + 1) % spread, (i + 2) % spread)) for i in range(spread)]
        gates = [Gate("fourier", (i,)) for i in range(spread)] + mix
        gates += [Gate("c-v", (spread, registers - 1)), Gate("cc-v", (registers - 1, spread, 0)),
                  Gate("cc-v", (registers - 1, spread, registers - 2)), Gate("c-u", (1, 0)),
                  Gate("fourier", (2,)), Gate("c-v", (registers - 1, spread))]
        circuit = Circuit(q, registers, tuple(gates))
        word = [0] * spread + [1, 1, 2]
        state = SparseState.from_pairs(prime_group(q), registers, [word], [0.6 + 0.8j])
        assert outcome(simulate, circuit, state) == outcome(reference_simulate, circuit, state)


@settings(max_examples=100)
@given(rewrite_cases())
def test_simulate_keeps_register_digits_fresh(case):
    circuit, state = case
    assert outcome(simulate, circuit, state) == outcome(reference_simulate, circuit, state)


def merged_apply(g, state):
    """`apply` as it was: the digit-wise targets merged by `_canonical`."""
    grp = state.group
    q, p = grp.q, grp.phase_denominator
    place = places(q, state.n)
    targets = state.packed
    exponents = np.zeros(len(state), dtype=np.int64)
    for k, (a_k, b_k) in enumerate(zip(g.a, g.b)):
        if a_k or b_k:
            digit = _digit(state.packed, place[k], q)
            if a_k:
                targets = targets + ((digit + a_k) % q - digit) * place[k]
            if b_k:
                exponents += b_k * digit
    phases = root_table(p)[(g.phase + 2 * exponents) % p]
    return SparseState._from_packed(grp, state.n, targets, state.amps * phases)


@st.composite
def matched_apply_cases(draw):
    """An element and a state on the same words; the amplitudes may carry -0.0 parts."""
    state = draw(states())
    parts = st.sampled_from([0.0, -0.0, 0.5, -1.0]) | st.floats(-1, 1)
    amps = np.array([complex(draw(parts), draw(parts)) for _ in range(len(state))])
    state = SparseState(state.group, state.n, state.packed, amps)
    return draw(elements(state.group.q, state.n)), state


@settings(max_examples=150)
@given(matched_apply_cases())
def test_apply_sort_matches_canonical_merge(case):
    # a Weyl element permutes words, so sorting the targets is the whole merge
    g, state = case
    assert outcome(apply, g, state) == outcome(merged_apply, g, state)



@st.composite
def product_form_cases(draw):
    """A random product-form spec (q does not divide n) and up to 4 of its messages."""
    q = draw(st.sampled_from(QS))
    n = draw(st.sampled_from([m for m in range(2, 6) if m % q and q**m <= 125]))
    upper = np.triu(np.array(draw(st.lists(st.integers(0, q - 1), min_size=n * n,
                                           max_size=n * n))).reshape(n, n))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    members = draw(st.sets(word, min_size=1, max_size=4))
    return maximal_form_spec(q, n, upper), sorted(members)


@settings(max_examples=40)
@given(product_form_cases())
def test_encoder_matches_closed_form(case):
    spec, members = case
    circuit = build_encoder(spec)
    for u in members:
        c_vec, delta = message_coordinates(spec, u)
        out = simulate(circuit, message_state(spec, c_vec, delta))
        data = encoder_output_data(out, spec.n)
        assert data.fidelity(closed_form_codeword(spec, u)) >= 1 - 1e-9


@settings(max_examples=40)
@given(product_form_cases())
def test_message_coordinates_match_a_fresh_solve(case):
    # the system is reduced once per spec; each message only changes the rhs
    spec, members = case
    q, n = spec.q, spec.n
    l7 = (spec.quad_upper + spec.quad_upper.T) % q
    w_vec = ((spec.M - (l7 @ spec.L) % q).T @ np.ones(n, dtype=np.int64)) % q
    system = np.zeros((n + 1, n + 1), dtype=np.int64)
    system[:n, :n], system[:n, n], system[n, :n] = spec.L.T, w_vec, 1
    for u in members:
        x, kernel = linear_solve(spec.field, system, np.array(list(u) + [0]))
        c_vec, delta = message_coordinates(spec, u)
        assert not kernel and c_vec.tolist() == x[:n].tolist() and delta == x[n]


def test_sum_zero_words_is_built_once_and_read_only():
    words = sum_zero_words(4, 3)
    assert sum_zero_words(4, 3) is words and not words.flags.writeable
    assert words.shape == (27, 4) and not (words.sum(axis=1) % 3).any()


def test_one_code15_encode_peaks_below_4_mb():
    # `simulate` keeps the digits of every register it reads, 60 registers on
    # a support of 16,384 words: as int64 they alone took 7.7 MB
    description = code_15_8_3()
    spec = description.spec
    circuit = build_encoder(spec)
    message = message_state(spec, *message_coordinates(spec, description.sorted_members()[0]))
    tracemalloc.start()
    try:
        simulate(circuit, message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_code15_encoder_and_generators_match_word_matrix_reference():
    # the codec round trip's state-vector work at full size: the 60-register
    # encoder, and the 15 generators that measure the syndrome of its output
    description = code_15_8_3()
    spec = description.spec
    circuit = build_encoder(spec)
    eye = np.eye(spec.r, dtype=np.int64)
    for u in description.sorted_members()[::7]:
        message = message_state(spec, *message_coordinates(spec, u))
        assert outcome(simulate, circuit, message) == outcome(reference_simulate, circuit, message)
        data = encoder_output_data(simulate(circuit, message), spec.n)
        digit = tuple(int(k == 4) for k in range(spec.n))
        error = WeylElement(spec.group, 0, digit, digit)
        for state in (data, apply(error, data)):  # clean, and after a weight-1 error
            for i in range(spec.r):
                g = spec.element(eye[i])
                assert outcome(apply, g, state) == outcome(reference_apply, g, state)
