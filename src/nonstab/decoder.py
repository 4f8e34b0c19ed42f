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

import numpy as np

from .fourier_code import FourierDescription
from .gottesman import GottesmanSpec, bounded_pair_arrays, syndrome_shifts
from .oracle import SparseState, apply
from .weyl import WeylElement, inverse

EIGENVALUE_TOL = 1e-9


class DecodingError(Exception):
    """Raised when a state is not decodable within the requested weight."""


@dataclass(frozen=True)
class Syndrome:
    """One exact eigenvalue exponent per subgroup generator, mod 2q."""

    exponents: tuple
    denominator: int


def measure_syndrome(state: SparseState, spec: GottesmanSpec) -> Syndrome:
    """Eigenvalues of the generators s_{e_i} on `state`, as exact exponents.

    The state must be a nonzero common eigenvector of every generator;
    inconsistent amplitude ratios (beyond EIGENVALUE_TOL) signal an error outside the
    correctable set and raise DecodingError, as does the zero state.
    """
    if not len(state):
        raise DecodingError("the zero state has no syndrome")
    p = spec.phase_denominator
    exponents = []
    eye = np.eye(spec.r, dtype=np.int64)
    for i in range(spec.r):
        moved = apply(spec.element(eye[i]), state)
        if len(moved) != len(state) or np.any(moved.packed != state.packed):
            raise DecodingError(f"state is not an eigenvector of generator {i}")
        ratios = moved.amps / state.amps
        ratio = ratios[0]
        if np.abs(ratios - ratio).max() > EIGENVALUE_TOL:
            raise DecodingError(f"inconsistent eigenvalue for generator {i}")
        exponent = int(round(np.angle(ratio) * p / (2 * np.pi))) % p
        if abs(ratio - np.exp(2j * np.pi * exponent / p)) > EIGENVALUE_TOL:
            raise DecodingError(f"eigenvalue of generator {i} is not a root of unity")
        exponents.append(exponent)
    return Syndrome(tuple(exponents), p)


def search_error(
    syndrome: Syndrome,
    description: FourierDescription,
    t: int,
    stats: dict | None = None,
) -> tuple[WeylElement, tuple]:
    """Find (g, u) with wt(g) <= t matching the syndrome's group equations.

    The identity is tried first; candidate errors are then enumerated in
    canonical weight order.  The matching character index u is unique, so
    the first hit is returned.  Raises DecodingError when no candidate of
    weight <= t solves the equations.
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
    checked = 1
    xs, ys = bounded_pair_arrays(q, spec.n, min(t, spec.n))
    # the eigenvalue of s_i on g|phi_u> is gamma(s_i, g) chi_u(s_i), so the
    # candidate error (x, y) forces u = v - (M^T x - L^T y)
    candidates = (v - syndrome_shifts(spec, xs, ys)) % q
    for idx in range(xs.shape[0]):
        checked += 1
        u = tuple(map(int, candidates[idx]))
        if u in description.members:
            if stats is not None:
                stats["candidates"] = checked
            g = WeylElement(spec.group, 0, tuple(xs[idx]), tuple(ys[idx]))
            return g, u
    if stats is not None:
        stats["candidates"] = checked
    raise DecodingError(f"no error of weight <= {t} matches the syndrome")


def decode(state: SparseState, description: FourierDescription, t: int) -> SparseState:
    """Correct up to t errors: measure, search, and undo the found error."""
    syndrome = measure_syndrome(state, description.spec)
    g, _ = search_error(syndrome, description, t)
    return apply(inverse(g), state)
