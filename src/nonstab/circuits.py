"""GF(q) gate set, circuit simulation, and the encoder builder.

Gates act on named digit registers of a q-ary word; q is prime.  The set:

    inverter      |a> -> |-a>
    c-u           |a>|b> -> |a>|a+b>
    c-v           |a>|b> -> w(ab) |a>|b>
    cc-u          |a>|b>|c> -> |a>|b>|c+ab>
    cc-v          |a>|b>|c> -> w(c+ab) |a>|b>|c>
    fourier       |a> -> q^(-1/2) sum_x w(ax) |x>
    prepare-zero  asserts the register is |0> on the state's whole support

with w = exp(2*pi*i/q).  Simulation is exact on sparse states; a Fourier
gate is the only branching gate and amplitudes interfering on equal words
are merged after it.

Encoders are built for specs carrying the product-form certificate.  The
register layout is [message c | message d | data | ancilla], n digits
each.  On a basis message |c>|d, d = delta*ones>|0^n>|0^n> the circuit
prepares the uniform superposition over the sum-zero code on the data
register, phases it by conj(w)^(x.c) (the c-v gate applied q-1 times),
shifts by d, accumulates Q(x+d) into the ancilla for the quadratic phase,
and uncomputes the ancilla back to |0^n> exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import _digit, _remainder, is_prime, places
from .gottesman import GottesmanSpec
from .oracle import SparseState, _canonical
from .weyl import prime_group, root_table

GATE_ARITY = {
    "inverter": 1,
    "c-u": 2,
    "c-v": 2,
    "cc-u": 3,
    "cc-v": 3,
    "fourier": 1,
    "prepare-zero": 1,
}


@dataclass(frozen=True)
class Gate:
    kind: str
    operands: tuple

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        operands = tuple(int(v) for v in self.operands)
        if len(operands) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} operands, got {len(operands)}"
            )
        if len(set(operands)) != len(operands):
            raise ValueError("gate operands must be distinct registers")
        object.__setattr__(self, "operands", operands)


@dataclass(frozen=True)
class Circuit:
    q: int
    registers: int
    gates: tuple

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError("the digit alphabet size must be prime")
        gates = tuple(self.gates)
        for gate in gates:
            if any(r < 0 or r >= self.registers for r in gate.operands):
                raise ValueError(f"gate {gate} addresses a register out of range")
        object.__setattr__(self, "gates", gates)


def zero_state(circuit: Circuit) -> SparseState:
    return SparseState.basis_word(prime_group(circuit.q), (0,) * circuit.registers)


def simulate(circuit: Circuit, state: SparseState) -> SparseState:
    """Apply the circuit's gates in order; exact and norm-preserving.

    Gates read their operand digits from the packed word indices and write
    a changed digit back by adding (new - old) times its place value.  The
    digits of every register read so far are kept, entry by entry with the
    support: a gate that writes a register keeps the new digit it computed,
    and a Fourier gate, which changes the support, drops them all.
    """
    group = prime_group(circuit.q)
    if state.group != group or state.n != circuit.registers:
        raise ValueError("input state does not match the circuit's registers")
    q = circuit.q
    roots = root_table(q)
    place = places(q, circuit.registers)
    packed, amps = state.packed, state.amps
    known: dict = {}  # register -> its digit in each entry of `packed`
    for gate in circuit.gates:
        ops = gate.operands
        for r in ops:
            if r not in known:
                known[r] = _digit(packed, place[r], q)
        digits = [known[r] for r in ops]
        if gate.kind == "inverter":
            (old,) = digits
            new = _remainder(-old, q)
        elif gate.kind == "c-u":
            src, old = digits
            new = _remainder(old + src, q)
        elif gate.kind == "c-v":
            amps = amps * roots[_remainder(digits[0] * digits[1], q)]
        elif gate.kind == "cc-u":
            a, b, old = digits
            new = _remainder(old + a * b, q)
        elif gate.kind == "cc-v":
            a, b, c = digits
            amps = amps * roots[_remainder(c + a * b, q)]
        elif gate.kind == "prepare-zero":
            if np.any(digits[0]):
                raise ValueError(f"prepare-zero on register {ops[0]}: digit not |0>")
        elif gate.kind == "fourier":
            old = np.repeat(digits[0], q)
            new = np.tile(np.arange(q, dtype=np.int64), len(packed))
            packed = np.repeat(packed, q) + (new - old) * place[ops[0]]
            amps = np.repeat(amps, q) * roots[_remainder(old * new, q)] / np.sqrt(q)
            packed, amps = _canonical(packed, amps)
            known.clear()
        if gate.kind in ("inverter", "c-u", "cc-u"):  # they write their last operand
            packed = packed + (new - old) * place[ops[-1]]
            known[ops[-1]] = new
    return SparseState._from_packed(group, circuit.registers, packed, amps)


def uniform_over_sum_zero(n: int, q: int) -> Circuit:
    """Circuit taking |0^n> to the uniform superposition over the sum-zero code."""
    if n < 1:
        raise ValueError("need n >= 1")
    gates = [Gate("fourier", (i,)) for i in range(n - 1)]
    gates += [Gate("c-u", (i, n - 1)) for i in range(n - 1)]
    if n > 1:
        gates.append(Gate("inverter", (n - 1,)))
    return Circuit(q, n, tuple(gates))


def _accumulate(matrix: np.ndarray, src: int, dst: int, q: int, negate: bool) -> list:
    """c-u gates realizing dst-register += (matrix or -matrix) @ src-register."""
    gates = []
    n = matrix.shape[0]
    for j in range(n):
        for i in range(n):
            reps = int(matrix[j, i]) % q
            if negate:
                reps = (q - reps) % q
            gates.extend(Gate("c-u", (src + i, dst + j)) for _ in range(reps))
    return gates


def build_encoder(spec: GottesmanSpec) -> Circuit:
    """Encoder circuit for a product-form spec.

    Register layout: [c: 0..n-1 | d: n..2n-1 | data: 2n..3n-1 | anc: 3n..4n-1].
    On input |c>|d>|0^n>|0^n> the output is |c>|d>|codeword>|0^n>.
    """
    if spec.quad_upper is None:
        raise ValueError("encoder requires a product-form spec certificate")
    n, q = spec.n, spec.q
    c0, d0, x0, a0 = 0, n, 2 * n, 3 * n
    gates = [Gate("prepare-zero", (x0 + i,)) for i in range(n)]
    gates += [Gate("prepare-zero", (a0 + i,)) for i in range(n)]
    # uniform superposition over the sum-zero code on the data register
    gates += [Gate("fourier", (x0 + i,)) for i in range(n - 1)]
    gates += [Gate("c-u", (x0 + i, x0 + n - 1)) for i in range(n - 1)]
    gates.append(Gate("inverter", (x0 + n - 1,)))
    # conj(w)^(x . c): the c-v gate applied q-1 times per digit pair
    for i in range(n):
        gates.extend(Gate("c-v", (c0 + i, x0 + i)) for _ in range(q - 1))
    # shift data by d
    gates += [Gate("c-u", (d0 + i, x0 + i)) for i in range(n)]
    # quadratic phase: anc := Q @ data, phase w(data . anc), uncompute anc
    gates += _accumulate(spec.quad_upper, x0, a0, q, negate=False)
    gates += [Gate("c-v", (x0 + i, a0 + i)) for i in range(n)]
    gates += _accumulate(spec.quad_upper, x0, a0, q, negate=True)
    return Circuit(q, 4 * n, tuple(gates))


def message_state(spec: GottesmanSpec, c_vec, delta: int) -> SparseState:
    """The encoder input |c>|delta * ones>|0^n>|0^n> as a basis word."""
    n, q = spec.n, spec.q
    word = np.zeros(4 * n, dtype=np.int64)
    word[:n] = np.asarray(c_vec, dtype=np.int64) % q
    word[n : 2 * n] = delta % q
    return SparseState.basis_word(prime_group(q), word)


def encoder_output_data(state: SparseState, n: int) -> SparseState:
    """Extract the data register from an encoder output.

    Requires a nonzero state whose message registers hold a single basis
    word across the support and whose ancilla register is exactly |0^n>.
    """
    if state.n != 4 * n:
        raise ValueError(f"an encoder output has {4 * n} registers, not {state.n}")
    if not len(state):
        raise ValueError("encoder output is the zero state")
    block = state.group.q**n
    if np.any(state.packed % block):
        raise ValueError("ancilla register is not |0^n>")
    head = state.packed // block**2
    if np.any(head != head[0]):
        raise ValueError("message registers are entangled with the data")
    return SparseState._from_packed(state.group, n, state.packed // block % block, state.amps)
