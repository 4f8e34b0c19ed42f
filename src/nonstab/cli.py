"""Command-line front end.

Commands (JSON on stdout unless noted; deterministic output given flags):

    family      emit a named construction as a code bundle
    verify      algebraic distance check of a bundle
    oracle      state-vector Knill-Laflamme and orthonormality check
    greedy      greedy Fourier description on a bundle's subgroup
    encode-sim  simulate the encoder for one message
    decode-sim  corrupt a codeword, decode it, report fidelity
    table       CSV of built-in code parameters and dimension bounds

Exit status: 0 on success/pass, 1 on verification failure (with a
machine-readable witness), 2 on usage errors or exceeded budgets.
A code bundle is {"spec", "B", "params", "provenance"}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import families
from .circuits import build_encoder, encoder_output_data, message_state, simulate
from .decoder import DecodingError, measure_syndrome, search_error
from .fourier_code import (
    FourierDescription,
    bounds,
    code_dimension,
    greedy_construct,
    verify_distance,
)
from .gottesman import GottesmanSpec, validate
from .oracle import apply, codeword, kl_check, message_coordinates, orthonormality_check
from .weyl import ENUMERATION_CAP, GROUP_CAP, WeylElement, check_sphere, inverse


@dataclass(frozen=True)
class CodeBundle:
    description: FourierDescription
    claimed_distance: int
    provenance: str

    @property
    def spec(self) -> GottesmanSpec:
        return self.description.spec

    def params(self) -> dict:
        return {
            "n": self.spec.n,
            "q": self.spec.q,
            "K": code_dimension(self.description),
            "d": self.claimed_distance,
        }

    def to_json_dict(self) -> dict:
        doc = self.description.to_json_dict()
        doc["params"] = self.params()
        doc["provenance"] = self.provenance
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CodeBundle":
        description = FourierDescription.from_json_dict(doc)
        params = doc.get("params", {})
        bundle = cls(
            description,
            int(params.get("d", 1)),
            str(doc.get("provenance", "")),
        )
        if "K" in params and int(params["K"]) != code_dimension(description):
            raise ValueError(
                f"claimed dimension {params['K']} != actual {code_dimension(description)}"
            )
        return bundle


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _read_bundle(path: str | None, check_distance: bool = False) -> CodeBundle:
    text = sys.stdin.read() if path in (None, "-") else open(path).read()
    bundle = CodeBundle.from_json_dict(json.loads(text))
    if check_distance:
        report = verify_distance(bundle.description, bundle.claimed_distance)
        if not report.passed:
            raise ValueError(
                f"bundle's claimed distance {bundle.claimed_distance} fails "
                f"re-verification: {report.witness}"
            )
    return bundle


def _parse_vector(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",")) if text else ()


def make_family(name: str, args) -> CodeBundle:
    if name == "d2":
        if args.n < 5 or args.n % 2 == 0:
            # at n = 3, K = 1 + 3(q-1) would break the quantum Singleton bound
            raise SystemExit2(
                f"family d2 is documented for odd n >= 5 only, got n={args.n}"
            )
        spec, description = families.distance2_family(args.n, args.q)
        return CodeBundle(description, 2, f"d2 n={args.n} q={args.q}")
    if name == "laflamme":
        spec = families.laflamme_spec(args.n)
        zero = (0,) * spec.r
        return CodeBundle(
            FourierDescription(spec, frozenset({zero})), 3, f"laflamme n={args.n}"
        )
    if name == "code15":
        return CodeBundle(families.code_15_8_3(), 3, "code15")
    if name in ("subspace33", "subspace31"):
        family = families.subspace_family(5, 3, 2)
        if name == "subspace31":
            family = families.puncture(family, 32)
            return CodeBundle(families.family_to_b(family, 31), 3, "subspace31")
        return CodeBundle(families.family_to_b(family, 33), 3, "subspace33")
    if name == "alpha-good":
        if args.seed is None:
            raise SystemExit2("--seed is required for the randomized alpha-good search")
        found = families.search_alpha_good(args.n, Fraction(args.alpha), args.attempts, args.seed)
        if found is None:
            raise NotFound(
                f"no alpha-good matrix found in {args.attempts} attempts (seed {args.seed})"
            )
        matrix, attempt = found
        spec = families.alpha_good_spec(matrix)
        t = int(Fraction(args.alpha) * args.n)
        zero = (0,) * spec.r
        bundle = CodeBundle(
            FourierDescription(spec, frozenset({zero})),
            t,
            f"alpha-good n={args.n} alpha={args.alpha} seed={args.seed} attempt={attempt}",
        )
        return bundle
    raise SystemExit2(f"unknown family name {name!r}")


class SystemExit2(Exception):
    """Usage error; mapped to exit status 2."""


class NotFound(Exception):
    """Randomized search exhausted its attempts; mapped to exit status 1."""


def cmd_family(args) -> int:
    bundle = make_family(args.name, args)
    violations = validate(bundle.spec)
    if violations:
        _emit({"pass": False, "violations": violations})
        return 1
    _emit(bundle.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    bundle = _read_bundle(args.infile)
    d = args.d if args.d is not None else bundle.claimed_distance
    check_sphere(bundle.spec.n, bundle.spec.q, min(d - 1, bundle.spec.n), args.max_sphere)
    violations = validate(bundle.spec)
    if violations:
        _emit({"pass": False, "violations": violations})
        return 1
    report = verify_distance(bundle.description, d, cap=args.max_sphere)
    doc = report.to_json_dict()
    doc["params"] = dict(bundle.params(), d=d)
    _emit(doc)
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    bundle = _read_bundle(args.infile)
    d = args.d if args.d is not None else bundle.claimed_distance
    kl = kl_check(bundle.description, d, cap=args.max_sphere, group_cap=args.max_group)
    doc = {"kl": kl.to_json_dict(), "params": dict(bundle.params(), d=d)}
    passed = kl.passed
    if bundle.spec.is_maximal():
        ortho = orthonormality_check(bundle.description, group_cap=args.max_group)
        doc["orthonormality"] = ortho.to_json_dict()
        passed = passed and ortho.passed
    _emit(doc)
    return 0 if passed else 1


def cmd_greedy(args) -> int:
    bundle = _read_bundle(args.infile)
    description = greedy_construct(bundle.spec, args.d, cap=args.max_sphere)
    report = verify_distance(description, args.d, cap=args.max_sphere)
    if not report.passed:
        _emit({"pass": False, "witness": report.witness})
        return 1
    out = CodeBundle(description, args.d, f"greedy d={args.d} over {bundle.provenance}")
    _emit(out.to_json_dict())
    return 0


def cmd_encode_sim(args) -> int:
    if args.top < 0:
        raise SystemExit2(f"--top must be >= 0, got {args.top}")
    bundle = _read_bundle(args.infile, check_distance=True)
    u = _parse_vector(args.message)
    if u not in bundle.description.members:
        raise SystemExit2(f"message {u} is not a member of the bundle's B")
    c_vec, delta = message_coordinates(bundle.spec, u)
    circuit = build_encoder(bundle.spec)
    out = simulate(circuit, message_state(bundle.spec, c_vec, delta))
    data = encoder_output_data(out, bundle.spec.n)
    reference = codeword(bundle.description, u)
    amplitudes = sorted(
        data.items(), key=lambda kv: (-abs(kv[1]), kv[0])
    )[: args.top]
    _emit(
        {
            "message": list(u),
            "fidelity": data.fidelity(reference),
            "support": len(data),
            "top_amplitudes": [
                {"word": list(w), "re": a.real, "im": a.imag} for w, a in amplitudes
            ],
        }
    )
    return 0


def cmd_decode_sim(args) -> int:
    bundle = _read_bundle(args.infile, check_distance=True)
    u = _parse_vector(args.u)
    x = _parse_vector(args.error_x) or (0,) * bundle.spec.n
    y = _parse_vector(args.error_y) or (0,) * bundle.spec.n
    phi = codeword(bundle.description, u)
    g = WeylElement(bundle.spec.group, 0, x, y)
    corrupted = apply(g, phi)
    try:
        syndrome = measure_syndrome(corrupted, bundle.spec)
        stats: dict = {}
        found, recovered_u = search_error(syndrome, bundle.description, args.t, stats=stats)
        decoded = apply(inverse(found), corrupted)
    except DecodingError as exc:
        _emit({"pass": False, "error": str(exc)})
        return 1
    fidelity = decoded.fidelity(phi)
    _emit(
        {
            "pass": bool(fidelity >= 1 - 1e-9),
            "recovered_u": list(recovered_u),
            "applied_correction": {"x": list(found.a), "y": list(found.b)},
            "fidelity": fidelity,
            "candidates_checked": stats.get("candidates", 0),
        }
    )
    return 0 if fidelity >= 1 - 1e-9 else 1


TABLE_ROWS = (
    ("d2", {"n": 5, "q": 2}),
    ("d2", {"n": 7, "q": 2}),
    ("d2", {"n": 5, "q": 3}),
    ("laflamme", {"n": 7}),
    ("code15", {}),
    ("subspace33", {}),
    ("subspace31", {}),
)


def cmd_table(args) -> int:
    sys.stdout.write("n,q,K,d,lower_bound,upper_bound,source\n")
    for name, kw in TABLE_ROWS:
        ns = argparse.Namespace(n=kw.get("n", 0), q=kw.get("q", 2), seed=None,
                                alpha="1/6", attempts=0)
        bundle = make_family(name, ns)
        p = bundle.params()
        t = (p["d"] - 1) // 2
        lower, upper = bounds(p["n"], p["q"], t)
        sys.stdout.write(
            f"{p['n']},{p['q']},{p['K']},{p['d']},{lower},{upper},{bundle.provenance}\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonstab",
        description="Construct, verify, encode and decode nonstabilizer codes.",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="parallelism bound (results are independent of it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="emit a named construction")
    p.add_argument("--name", required=True,
                   choices=["d2", "laflamme", "code15", "subspace33", "subspace31", "alpha-good"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", default="1/6", help="fraction, e.g. 1/6")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=200)
    p.set_defaults(func=cmd_family)

    for name, func, extra in (
        ("verify", cmd_verify, "algebraic distance check"),
        ("oracle", cmd_oracle, "state-vector Knill-Laflamme check"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--in", dest="infile", default=None, help="bundle file (default stdin)")
        p.add_argument("--d", type=int, default=None, help="distance (default: bundle's claim)")
        p.add_argument("--max-sphere", type=int, default=ENUMERATION_CAP)
        if name == "oracle":
            p.add_argument("--max-group", type=int, default=GROUP_CAP)
        p.set_defaults(func=func)

    p = sub.add_parser("greedy", help="greedy packing over a bundle's subgroup")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-sphere", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("encode-sim", help="simulate the encoder for one message")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--message", required=True, help="comma-separated member of B")
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=cmd_encode_sim)

    p = sub.add_parser("decode-sim", help="corrupt, decode, and report fidelity")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--u", required=True, help="comma-separated member of B")
    p.add_argument("--error-x", default="", help="comma-separated shift word")
    p.add_argument("--error-y", default="", help="comma-separated phase word")
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=cmd_decode_sim)

    p = sub.add_parser("table", help="CSV of built-in code parameters and bounds")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NotFound as exc:
        _emit({"pass": False, "error": str(exc)})
        return 1
    except (ValueError, DecodingError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
