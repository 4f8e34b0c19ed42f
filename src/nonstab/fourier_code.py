"""Fourier descriptions of codes: dimension, distance checks, greedy packing.

A code supported in a Gottesman subgroup S is specified by a subset B of
the character index set GF(q)^r.  Its projection is

    P(B) = (1/#S) sum_{a} sum_{u in B} conj(chi_u)(s_a) s_a,

its dimension is q^n #B / #S, and it has distance d exactly when

  1. every member of S with weight < d takes a constant character value on
     B (vacuous for d-pure subgroups), and
  2. the difference set B - B avoids the forbidden index set of weight-< d
     errors outside the subgroup closure.

Distance convention: `verify_distance(B, d)` checks errors of weight up to
d - 1; `bounds(n, q, t)` takes the error count t (a distance-d code
corrects t = floor((d-1)/2) errors).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .galois import error_sphere_count
from .gottesman import (
    GottesmanSpec,
    forbidden_set,
    low_weight_members,
    purity_radius,
)
from .weyl import ENUMERATION_CAP, GROUP_CAP, check_size


@dataclass(frozen=True, eq=False)
class FourierDescription:
    """A nonempty set of character indices in GF(q)^r defining a code."""

    spec: GottesmanSpec
    members: frozenset

    def __post_init__(self) -> None:
        members = frozenset(tuple(int(v) for v in u) for u in self.members)
        if not members:
            raise ValueError("a Fourier description must be nonempty")
        if any(len(u) != self.spec.r for u in members):
            raise ValueError(f"all members must have length r={self.spec.r}")
        if any(v < 0 or v >= self.spec.q for u in members for v in u):
            raise ValueError("members must be reduced mod q")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members)

    @cached_property
    def member_array(self) -> np.ndarray:
        return np.array(self.sorted_members(), dtype=np.int64)

    def differences(self) -> set:
        """The difference set B - B in GF(q)^r coordinates."""
        q = self.spec.q
        arr = self.member_array
        diffs = (arr[:, None, :] - arr[None, :, :]) % q
        return set(map(tuple, diffs.reshape(-1, arr.shape[1]).tolist()))

    def to_json_dict(self) -> dict:
        return {"spec": self.spec.to_json_dict(), "B": [list(u) for u in self.sorted_members()]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FourierDescription":
        return cls(GottesmanSpec.from_json_dict(doc["spec"]), frozenset(map(tuple, doc["B"])))


def code_dimension(description: FourierDescription) -> int:
    """Exact dimension q^n #B / #S of the code."""
    spec = description.spec
    dim, rem = divmod(spec.q**spec.n * len(description), spec.size)
    assert rem == 0
    return dim


@dataclass(frozen=True)
class Report:
    """Outcome of a check: pass or fail, a witness of failure, work counts."""

    passed: bool
    witness: dict | None = None
    counts: dict | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out: dict = {"pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counts is not None:
            out["counts"] = self.counts
        return out


def verify_distance(
    description: FourierDescription, d: int, cap: int = ENUMERATION_CAP
) -> Report:
    """Algebraic distance check: does the code detect all errors of weight < d?"""
    spec = description.spec
    q = spec.q
    members = low_weight_members(spec, min(d - 1, spec.n), cap=cap)
    diffs = description.differences()
    for a, element in members:
        a_vec = np.array(a, dtype=np.int64)
        for u in diffs:
            if int(np.array(u, dtype=np.int64) @ a_vec) % q:
                return Report(
                    False,
                    witness={
                        "condition": 1,
                        "subgroup_index": list(a),
                        "weight": element.weight(),
                        "difference": list(u),
                    },
                    counts={"low_weight_members": len(members)},
                )
    forbidden = forbidden_set(spec, d, cap=cap)
    hits = diffs & forbidden.members
    if hits:
        witness_u = min(hits)
        return Report(
            False,
            witness={"condition": 2, "difference": list(witness_u)},
            counts={"low_weight_members": len(members), "forbidden": len(forbidden)},
        )
    return Report(
        True,
        counts={
            "low_weight_members": len(members),
            "forbidden": len(forbidden),
            "differences": len(diffs),
        },
    )


def weight_lex_indices(q: int, r: int) -> list:
    """All of GF(q)^r ordered by weight, then lexicographically; 0 first."""
    vectors = list(itertools.product(range(q), repeat=r))
    return sorted(vectors, key=lambda v: (sum(1 for x in v if x), v))


def greedy_construct(
    spec: GottesmanSpec,
    d: int,
    order=None,
    cap: int = ENUMERATION_CAP,
) -> FourierDescription:
    """Greedy packing of character indices whose differences avoid the
    forbidden set.  Requires a d-pure spec; deterministic given `order`
    (default: weight-lex with 0 first).  Picks at least floor(#S / #X)
    members when the forbidden set X is nonempty.
    """
    if purity_radius(spec, d, cap=cap) is not None:
        raise ValueError(f"spec is not {d}-pure; greedy construction needs purity")
    forbidden = forbidden_set(spec, d, cap=cap)
    if order is None:
        order = weight_lex_indices(spec.q, spec.r)
    q = spec.q
    alive = set(order)
    if len(alive) != spec.size:
        raise ValueError("order must enumerate all of GF(q)^r")
    picked = []
    for u in order:
        if u not in alive:
            continue
        picked.append(u)
        alive.discard(u)
        for x in forbidden.members:
            alive.discard(tuple((a - b) % q for a, b in zip(u, x)))
    return FourierDescription(spec, frozenset(picked))


def bounds(n: int, q: int, t: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on the dimension of a t-error correcting code
    supported in a (2t+1)-pure subgroup, as exact fractions:
    q^n / N(n, q, 2t)  and  q^n / N(n, q, t).
    """
    if t < 0 or t > n:
        raise ValueError("need 0 <= t <= n")
    total = Fraction(q) ** n
    upper = total / error_sphere_count(n, q, t)
    lower = total / error_sphere_count(n, q, min(2 * t, n))
    return lower, upper


def projection_coefficients(description: FourierDescription) -> dict:
    """Coefficient map a -> T_{s_a} of the code projection in the group algebra."""
    spec = description.spec
    check_size("subgroup size", spec.size, GROUP_CAP)
    q, r, p = spec.q, spec.r, spec.phase_denominator
    unit = p // q
    a_rows = np.array(list(itertools.product(range(q), repeat=r)), dtype=np.int64)
    b_rows = description.member_array
    exponents = (unit * ((b_rows @ a_rows.T) % q)) % p
    roots = np.exp(-2j * np.pi * np.arange(p) / p)  # conj(chi_u)(s_a)
    coeffs = roots[exponents].sum(axis=0) / spec.size
    return {tuple(map(int, row)): complex(c) for row, c in zip(a_rows, coeffs)}
