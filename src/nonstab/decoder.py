"""Syndrome extraction, classical error search, and correction.

A corrupted codeword g|phi_u> is a joint eigenvector of the subgroup
generators s_i with eigenvalues conj(gamma(s_i, g)) chi_u(s_i).  In
simulation those eigenvalues are extracted exactly (amplitude ratios over
the support, snapped to roots of unity), replacing phase estimation.  The
classical search tries g = identity first and then enumerates candidate
errors in canonical weight order; for each candidate the character index
is forced by the syndrome, so a solution is a set-membership hit in B.
Correction applies the inverse of the found error; the result equals the
original codeword up to a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier_code import FourierDescription
from .galois import _remainder, pack
from .gottesman import GottesmanSpec, _sphere
from .oracle import SparseState, apply
from .weyl import WeylElement, check_sphere, inverse, root_table

EIGENVALUE_TOL = 1e-9


class DecodingError(Exception):
    """Raised when a state is not decodable within the requested weight."""


@dataclass(frozen=True)
class Syndrome:
    """One exact eigenvalue exponent per subgroup generator, mod 2q."""

    exponents: tuple


def measure_syndrome(state: SparseState, spec: GottesmanSpec) -> Syndrome:
    """Eigenvalues of the generators s_{e_i} on `state`, as exact exponents.

    The state must be a nonzero common eigenvector of every generator;
    inconsistent amplitude ratios (beyond EIGENVALUE_TOL) signal an error outside the
    correctable set and raise DecodingError, as does the zero state.
    s_{e_i} = w^(D[i, i]) U_{L e_i} V_{M e_i} is read off the spec's
    columns.  The ratio on the first word is the candidate eigenvalue
    lambda, and every amplitude must then satisfy
    |g(w) - lambda phi(w)| <= EIGENVALUE_TOL |phi(w)|, the ratio test
    without a division over the support.
    """
    if not len(state):
        raise DecodingError("the zero state has no syndrome")
    p = spec.phase_denominator
    exponents = []
    bound = EIGENVALUE_TOL * np.abs(state.amps)
    for i in range(spec.r):
        generator = WeylElement(spec.group, int(spec.D[i, i]), spec.L[:, i], spec.M[:, i])
        moved = apply(generator, state)
        if len(moved) != len(state) or np.any(moved.packed != state.packed):
            raise DecodingError(f"state is not an eigenvector of generator {i}")
        ratio = moved.amps[0] / state.amps[0]
        if np.any(np.abs(moved.amps - ratio * state.amps) > bound):
            raise DecodingError(f"inconsistent eigenvalue for generator {i}")
        exponent = int(round(np.angle(ratio) * p / (2 * np.pi))) % p
        if abs(ratio - root_table(p)[exponent]) > EIGENVALUE_TOL:
            raise DecodingError(f"eigenvalue of generator {i} is not a root of unity")
        exponents.append(exponent)
    return Syndrome(tuple(exponents))


def search_error(
    syndrome: Syndrome,
    description: FourierDescription,
    t: int,
    stats: dict | None = None,
) -> tuple[WeylElement, tuple]:
    """Find (g, u) with wt(g) <= t matching the syndrome's group equations.

    The identity is tried first.  The eigenvalue of s_i on g|phi_u> is
    gamma(s_i, g) chi_u(s_i), so with v read off the syndrome an error
    (x, y) forces u = v - (M^T x - L^T y): the first error, in canonical
    weight order, whose shift key is that of v - u for a member u is the
    hit, read from the spec's `_syndrome_table`.  The matching u is unique.
    Raises DecodingError when no candidate of weight <= t solves the
    equations.
    """
    spec = description.spec
    q, p = spec.q, spec.phase_denominator
    unit = p // q
    if any(e % unit for e in syndrome.exponents):
        raise DecodingError("syndrome exponents are not characters of the subgroup")
    v = np.array([e // unit for e in syndrome.exponents], dtype=np.int64) % q
    if tuple(map(int, v)) in description.members:
        if stats is not None:
            stats["candidates"] = 1
        return WeylElement.identity(spec.group, spec.n), tuple(map(int, v))
    check_sphere(spec.n, q, min(t, spec.n))  # also when the table was built under a larger budget
    xs, ys, keys, first = _syndrome_table(spec, t)
    members = description.member_array
    wanted = pack(_remainder(v - members, q), q)  # the shift key that each member needs
    hit = np.isin(wanted, keys)
    pairs = first[np.searchsorted(keys, wanted[hit])]  # the first pair with each key
    if stats is not None:
        stats["candidates"] = 1 + (int(pairs.min()) + 1 if pairs.size else len(xs))
    if not pairs.size:
        raise DecodingError(f"no error of weight <= {t} matches the syndrome")
    idx = pairs.min()
    g = WeylElement(spec.group, 0, tuple(xs[idx]), tuple(ys[idx]))
    return g, tuple(map(int, members[hit][np.argmin(pairs)]))


@lru_cache(maxsize=1)
def _syndrome_table(spec: GottesmanSpec, t: int) -> tuple:
    """(xs, ys, keys, first) for the errors of weight 1 .. t (`gottesman._sphere`):
    the sorted unique shift keys, and the index of the first pair with each."""
    xs, ys, _, _, shift_keys = _sphere(spec, t)
    keys, first = np.unique(shift_keys, return_index=True)
    for arr in (xs, ys, keys, first):
        arr.setflags(write=False)
    return xs, ys, keys, first


def decode(state: SparseState, description: FourierDescription, t: int) -> SparseState:
    """Correct up to t errors: measure, search, and undo the found error."""
    syndrome = measure_syndrome(state, description.spec)
    g, _ = search_error(syndrome, description, t)
    return apply(inverse(g), state)
