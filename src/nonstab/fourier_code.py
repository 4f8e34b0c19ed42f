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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .galois import _digit, _remainder, error_sphere_count, pack, places, unique_keys, unpack
from .gottesman import (
    GottesmanSpec,
    _forbidden_keys,
    _split_sphere,
    json_matrix,
    syndrome_shifts,
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

    def difference_keys(self) -> np.ndarray:
        """The difference set B - B as sorted unique packed keys (see `galois.pack`).

        Keys are accumulated one digit at a time over the K x K pairs, so no
        K^2 x r array of digits is ever built; each digit's K x K differences
        use the smallest integer type that holds -q, which is several times
        faster than int64.
        """
        q, r = self.spec.q, self.spec.r
        place = places(q, r)
        keys = np.zeros((len(self), len(self)), dtype=place.dtype)
        for column, value in zip(self.member_array.T.astype(np.min_scalar_type(-q)), place):
            keys += np.multiply((column[:, None] - column[None, :]) % q, value, dtype=place.dtype)
        return unique_keys(keys)

    def to_json_dict(self) -> dict:
        return {"spec": self.spec.to_json_dict(), "B": [list(u) for u in self.sorted_members()]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FourierDescription":
        spec = GottesmanSpec.from_json_dict(doc["spec"])
        rows = doc["B"]
        if rows:  # an empty B is refused by the constructor
            json_matrix(rows, "B", spec.q, (len(rows), spec.r))
        return cls(spec, frozenset(map(tuple, rows)))


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
    """Algebraic distance check: does the code detect all errors of weight < d?

    Condition 1 holds for a low-weight member s_a exactly when u . a is
    constant over u in B, which one product of B with the members decides;
    its witness is the lexicographically smallest difference u with
    u . a != 0, for the first failing member in canonical order.  Condition
    2 intersects the sorted difference keys with the forbidden keys; its
    witness is the smallest common index.  The error sphere is enumerated
    and [L; M] a = [x; y] solved once, and both conditions read from that
    one solve.
    """
    spec = description.spec
    q, r = spec.q, spec.r
    if d < 1:
        raise ValueError("d must be >= 1")
    xs, ys, in_image, solutions = _split_sphere(spec, min(d - 1, spec.n), cap)
    members = solutions[in_image]
    diffs = description.difference_keys()
    if len(members):
        values = (description.member_array @ members.T) % q
        failing = np.flatnonzero(np.any(values != values[0], axis=0))
        if failing.size:
            a = members[failing[0]].tolist()
            pair = np.flatnonzero(in_image)[failing[0]]
            # u . a over the difference keys, one digit of a at a time
            place = places(q, r)
            dots = sum(_digit(diffs, place[k], q) * a_k for k, a_k in enumerate(a) if a_k)
            first = np.flatnonzero(dots % q)[0]
            return Report(
                False,
                witness={
                    "condition": 1,
                    "subgroup_index": a,
                    "weight": int(np.count_nonzero(xs[pair] | ys[pair])),
                    "difference": unpack(diffs[first : first + 1], q, r)[0].tolist(),
                },
                counts={"low_weight_members": len(members)},
            )
    forbidden = _forbidden_keys(spec, syndrome_shifts(spec, xs, ys), in_image)
    hits = np.intersect1d(diffs, forbidden, assume_unique=True)
    if hits.size:
        return Report(
            False,
            witness={"condition": 2, "difference": unpack(hits[:1], q, r)[0].tolist()},
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


def _weight_lex_keys(q: int, r: int) -> np.ndarray:
    """Packed keys of all of GF(q)^r by weight, then lexicographically.

    The weights of the keys 0 .. q^r - 1 are accumulated one digit at a time,
    least significant digit innermost, and a stable argsort by weight keeps
    key order, which is lexicographic order, within each weight.
    """
    weights = np.zeros(1, dtype=np.int64)
    nonzero = np.arange(q) != 0
    for _ in range(r):
        weights = (weights[:, None] + nonzero).ravel()
    return np.argsort(weights, kind="stable")


def weight_lex_indices(q: int, r: int) -> list:
    """All of GF(q)^r ordered by weight, then lexicographically; 0 first."""
    return list(map(tuple, unpack(_weight_lex_keys(q, r), q, r).tolist()))


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

    One enumeration of the error sphere gives both: the spec is d-pure
    when no pair has a zero syndrome shift, and X is the set of shifts of
    the pairs outside the image.  The walk runs on packed keys over a
    boolean alive-array of all q^r indices in walk order, which `cap`
    bounds before anything is built: each pick u clears the keys of u - X
    for the whole forbidden array X at once, and `argmax` over the rest of
    the array finds the next alive key.
    """
    q, r = spec.q, spec.r
    check_size("character space", spec.size, cap)
    if d < 1:
        raise ValueError("d must be >= 1")
    xs, ys, in_image, _ = _split_sphere(spec, min(d - 1, spec.n), cap)
    shifts = syndrome_shifts(spec, xs, ys)
    if not shifts.any(axis=1).all():
        raise ValueError(f"spec is not {d}-pure; greedy construction needs purity")
    forbidden_rows = unpack(_forbidden_keys(spec, shifts, in_image), q, r)
    if order is None:
        keys = _weight_lex_keys(q, r)
    else:
        rows = np.array(order, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != r or np.any((rows < 0) | (rows >= q)):
            raise ValueError("order must enumerate all of GF(q)^r")
        keys = pack(rows, q)
        if len(unique_keys(keys)) != spec.size:
            raise ValueError("order must enumerate all of GF(q)^r")
    position = np.empty(spec.size, dtype=np.int64)  # of each key in the walk
    position[keys] = np.arange(spec.size)
    alive = np.ones(spec.size, dtype=bool)
    picked = []
    at = 0
    while True:
        u = int(keys[at])
        picked.append(u)
        alive[at] = False
        alive[position[pack(_remainder(unpack([u], q, r) - forbidden_rows, q), q)]] = False
        at += int(np.argmax(alive[at:]))  # a dead position only when none is left
        if not alive[at]:
            break
    rows = unpack(np.array(picked, dtype=np.int64), q, r)
    return FourierDescription(spec, frozenset(map(tuple, rows.tolist())))


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
    a_rows = unpack(np.arange(spec.size), q, r)
    b_rows = description.member_array
    exponents = (unit * ((b_rows @ a_rows.T) % q)) % p
    roots = np.exp(-2j * np.pi * np.arange(p) / p)  # conj(chi_u)(s_a)
    coeffs = roots[exponents].sum(axis=0) / spec.size
    return {tuple(map(int, row)): complex(c) for row, c in zip(a_rows, coeffs)}
