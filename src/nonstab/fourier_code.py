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
from functools import cached_property, lru_cache

import numpy as np

from .galois import (
    _characters,
    _chunk_layout,
    _chunk_values,
    _key_differences,
    error_sphere_count,
    pack,
    unique_keys,
    unpack,
)
from .gottesman import GottesmanSpec, _forbidden_keys, _sphere, json_matrix
from .weyl import check_size, root_table


@dataclass(frozen=True, eq=False)
class FourierDescription:
    """A nonempty set of character indices in GF(q)^r defining a code."""

    spec: GottesmanSpec
    members: frozenset

    def __post_init__(self) -> None:
        """One array conversion of the members, one shape check, one range check."""
        members = list(self.members)
        if not members:
            raise ValueError("a Fourier description must be nonempty")
        try:
            rows = np.array(members)
        except ValueError:  # ragged members
            rows = None
        if rows is None or rows.ndim != 2 or rows.shape[1] != self.spec.r:
            raise ValueError(f"all members must have length r={self.spec.r}")
        if rows.size and (rows.min() < 0 or rows.max() >= self.spec.q):
            raise ValueError("members must be reduced mod q")
        rows = rows.astype(np.int64)
        object.__setattr__(self, "members", frozenset(map(tuple, rows.tolist())))

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> list:
        return sorted(self.members)

    @cached_property
    def member_array(self) -> np.ndarray:
        return np.array(self.sorted_members(), dtype=np.int64)

    def difference_keys(self) -> np.ndarray:
        """The difference set B - B as sorted unique packed keys (see `galois.pack`).

        The K x K keys are accumulated in place one chunk of digits at a
        time (`galois._key_differences`), so no K^2 x r array of digits is
        ever built: 3 passes instead of 17 at r = 17, q = 2.
        """
        q, r = self.spec.q, self.spec.r
        chunks = _chunk_values(pack(self.member_array, q), q, r)
        return unique_keys(_key_differences(chunks, chunks, q, r))

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


def verify_distance(description: FourierDescription, d: int) -> Report:
    """Algebraic distance check: does the code detect all errors of weight < d?

    Condition 1 holds for a low-weight member s_a exactly when u . a is
    constant over u in B, which one product of B with the members decides;
    its witness is the lexicographically smallest difference u with
    u . a != 0, for the first failing member in canonical order.  Condition
    2 intersects the sorted difference keys with the forbidden keys; its
    witness is the smallest common index.  The error sphere is enumerated
    and [L; M] a = [x; y] solved once, and both conditions read from that
    one solve.  B - B takes K^2 pairs, which the budget's `sphere` bounds as
    it bounds the sphere, before anything is built.
    """
    spec = description.spec
    q, r = spec.q, spec.r
    if d < 1:
        raise ValueError("d must be >= 1")
    check_size("difference pairs", len(description) ** 2, "sphere")
    xs, ys, in_image, members, shift_keys = _sphere(spec, d - 1)
    if len(members):
        values = (description.member_array @ members.T) % q
        failing = np.flatnonzero(np.any(values != values[0], axis=0))
        if failing.size:
            pair = np.flatnonzero(in_image)[failing[0]]
            # (u - v) . a = u . a - v . a: the differences whose values differ
            value = values[:, failing[0]]
            chunks = _chunk_values(pack(description.member_array, q), q, r)
            keys = _key_differences(chunks, chunks, q, r)[value[:, None] != value]
            return Report(
                False,
                witness={
                    "condition": 1,
                    "subgroup_index": members[failing[0]].tolist(),
                    "weight": int(np.count_nonzero(xs[pair] | ys[pair])),
                    "difference": unpack(keys[[keys.argmin()]], q, r)[0].tolist(),
                },
                counts={"low_weight_members": len(members)},
            )
    forbidden = _forbidden_keys(shift_keys, in_image)
    diffs = description.difference_keys()
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


def greedy_construct(spec: GottesmanSpec, d: int) -> FourierDescription:
    """Greedy packing of character indices whose differences avoid the
    forbidden set, walked in weight-lex order with 0 first.  Requires a
    d-pure spec; deterministic.  Picks at least floor(#S / #X) members when
    the forbidden set X is nonempty.

    One enumeration of the error sphere gives both: the spec is d-pure
    when no pair has a zero syndrome shift, and X is the set of shifts of
    the pairs outside the image.  The walk runs on packed keys over a
    boolean alive-array of all q^r indices in walk order, which the budget's
    `sphere` bounds before anything is built: each pick u clears the keys of
    u - X for the whole forbidden array X at once, and `argmax` over the
    rest of the array finds the next alive key.  The chunk values of X are read
    once, so u - X costs one table row lookup per chunk of digits
    (`galois._key_differences`).
    """
    q, r = spec.q, spec.r
    check_size("character space", spec.size, "sphere")
    if d < 1:
        raise ValueError("d must be >= 1")
    _, _, in_image, _, shift_keys = _sphere(spec, d - 1)
    if not shift_keys.all():
        raise ValueError(f"spec is not {d}-pure; greedy construction needs purity")
    forbidden = _chunk_values(_forbidden_keys(shift_keys, in_image), q, r)
    layout = _chunk_layout(q, r)
    keys = _weight_lex_keys(q, r)
    position = np.empty(spec.size, dtype=np.int64)  # of each key in the walk
    position[keys] = np.arange(spec.size)
    alive = np.ones(spec.size, dtype=bool)
    picked = []
    at = 0
    while True:
        u = int(keys[at])
        picked.append(u)
        alive[at] = False
        u_chunks = [u // place % size for place, size, _ in layout]
        alive[position[_key_differences(u_chunks, forbidden, q, r)]] = False
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


@lru_cache(maxsize=1)
def _member_characters(description: FourierDescription) -> np.ndarray:
    """`galois._characters` of the sorted members, read-only, kept for the
    readers of one description to share (`oracle.kl_check`, its codeword
    basis, `projection_coefficients`), which check the `group` budget first."""
    chars = _characters(description.member_array, description.spec.q, description.spec.r)
    chars.setflags(write=False)
    return chars


def projection_coefficients(description: FourierDescription) -> np.ndarray:
    """The coefficients T_{s_a} of the code projection in the group algebra: a
    complex array whose entry k is T_{s_a} for the a of packed key k (`galois.pack`)."""
    spec = description.spec
    check_size("subgroup size", spec.size, "group")
    p = spec.phase_denominator
    exponents = (p // spec.q * _member_characters(description)) % p
    return np.conj(root_table(p))[exponents].sum(axis=0) / spec.size  # conj(chi_u)(s_a)
