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
machine-readable witness), 2 on usage errors, exceeded budgets or a
floating-point overflow or invalid operation.
A code bundle is {"spec", "B", "params", "provenance"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
from .galois import unpack
from .gottesman import GottesmanSpec, json_integer, validate
from .oracle import apply, codeword, kl_check, message_coordinates, orthonormality_check
from .weyl import ENUMERATION_CAP, GROUP_CAP, WeylElement, budget, check_size, check_sphere, inverse


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
        """A bundle from JSON; a malformed field raises a one-line ValueError."""
        description = FourierDescription.from_json_dict(doc)
        params = doc.get("params", {})
        bundle = cls(
            description,
            json_integer(params.get("d", 1), "params d"),
            str(doc.get("provenance", "")),
        )
        for key, value in (("n", bundle.spec.n), ("q", bundle.spec.q)):
            if key in params and json_integer(params[key], f"params {key}") != value:
                raise ValueError(f"params {key}={params[key]} does not match the spec's {value}")
        if "K" in params and json_integer(params["K"], "params K") != code_dimension(description):
            raise ValueError(
                f"claimed dimension {params['K']} != actual {code_dimension(description)}"
            )
        return bundle


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _read_bundle(path: str | None, check_distance: bool = False) -> CodeBundle:
    try:
        text = sys.stdin.read() if path in (None, "-") else open(path).read()
    except OSError as exc:
        raise ValueError(f"cannot read bundle {path}: {exc.strerror}") from None
    try:
        bundle = CodeBundle.from_json_dict(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"bundle is missing the field {exc}") from None
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed bundle: {exc}") from None
    if check_distance:
        _check_spec(bundle)
        report = verify_distance(bundle.description, bundle.claimed_distance)
        if not report.passed:
            raise ValueError(
                f"bundle's claimed distance {bundle.claimed_distance} fails "
                f"re-verification: {report.witness}"
            )
    return bundle


def _parse_vector(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",")) if text else ()


def _at_least(name: str, value: int, low: int = 0) -> int:
    if value < low:
        raise SystemExit2(f"{name} must be >= {low}, got {value}")
    return value


def make_family(name: str, args) -> CodeBundle:
    if name == "d2":
        if args.n < 5 or args.n % 2 == 0:
            # at n = 3, K = 1 + 3(q-1) would break the quantum Singleton bound
            raise SystemExit2(
                f"family d2 is documented for odd n >= 5 only, got n={args.n}"
            )
        # refused before it is built: n x n matrices, and K^2 differences of B
        check_size("cocycle pairs", args.n**2, "group")
        check_size("difference pairs", (1 + args.n * (args.q - 1)) ** 2, "sphere")
        spec, description = families.distance2_family(args.n, args.q)
        return CodeBundle(description, 2, f"d2 n={args.n} q={args.q}")
    if name == "laflamme":
        check_size("cocycle pairs", args.n**2, "group")
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
        _at_least("--attempts", args.attempts)
        if args.seed is None:
            raise SystemExit2("--seed is required for the randomized alpha-good search")
        try:
            alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            raise SystemExit2(f"--alpha must be a fraction such as 1/6, got {args.alpha}") from None
        check_size("cocycle pairs", (2 * args.n) ** 2, "group")  # the spec has 2n digits
        found = families.search_alpha_good(args.n, alpha, args.attempts, args.seed)
        if found is None:
            raise NotFound(
                f"no alpha-good matrix found in {args.attempts} attempts (seed {args.seed})"
            )
        matrix, attempt = found
        spec = families.alpha_good_spec(matrix)
        zero = (0,) * spec.r
        return CodeBundle(
            FourierDescription(spec, frozenset({zero})),
            int(alpha * args.n),
            f"alpha-good n={args.n} alpha={args.alpha} seed={args.seed} attempt={attempt}",
        )
    raise SystemExit2(f"unknown family name {name!r}")


class SystemExit2(Exception):
    """Usage error; mapped to exit status 2."""


class NotFound(Exception):
    """Randomized search exhausted its attempts; mapped to exit status 1."""


class InvalidSpec(Exception):
    """The spec breaks its invariants; the violations are reported with exit status 1."""


def _check_spec(bundle: CodeBundle) -> None:
    """Raise InvalidSpec with the violations of the bundle's spec, if any."""
    violations = validate(bundle.spec)
    if violations:
        raise InvalidSpec(violations)


def cmd_family(args) -> int:
    bundle = make_family(args.name, args)
    _check_spec(bundle)
    _emit(bundle.to_json_dict())
    return 0


def _checked_bundle(args) -> tuple[CodeBundle, int]:
    """The bundle and the distance to check; an oversized sphere is refused before validation."""
    bundle = _read_bundle(args.infile)
    d = _at_least("d", args.d if args.d is not None else bundle.claimed_distance, 1)
    check_sphere(bundle.spec.n, bundle.spec.q, min(d - 1, bundle.spec.n))
    _check_spec(bundle)
    return bundle, d


def cmd_verify(args) -> int:
    bundle, d = _checked_bundle(args)
    report = verify_distance(bundle.description, d)
    doc = report.to_json_dict()
    doc["params"] = dict(bundle.params(), d=d)
    _emit(doc)
    return 0 if report.passed else 1


def cmd_oracle(args) -> int:
    bundle, d = _checked_bundle(args)
    kl = kl_check(bundle.description, d)
    doc = {"kl": kl.to_json_dict(), "params": dict(bundle.params(), d=d)}
    passed = kl.passed
    if bundle.spec.is_maximal():
        ortho = orthonormality_check(bundle.description)
        doc["orthonormality"] = ortho.to_json_dict()
        passed = passed and ortho.passed
    _emit(doc)
    return 0 if passed else 1


def cmd_greedy(args) -> int:
    bundle = _read_bundle(args.infile)
    _at_least("d", args.d, 1)
    _check_spec(bundle)
    description = greedy_construct(bundle.spec, args.d)
    report = verify_distance(description, args.d)
    if not report.passed:
        _emit({"pass": False, "witness": report.witness})
        return 1
    out = CodeBundle(description, args.d, f"greedy d={args.d} over {bundle.provenance}")
    _emit(out.to_json_dict())
    return 0


def _top_amplitudes(state, top: int) -> list[dict]:
    """The `top` largest amplitudes and their words, ties in word order.  np.hypot
    is bit-equal to abs of a Python complex; np.abs is not on every CPU."""
    amps = state.amps
    order = np.lexsort((state.packed, -np.hypot(amps.real, amps.imag)))[:top]
    words = unpack(state.packed[order], state.group.q, state.n).tolist()
    return [{"word": w, "re": a.real, "im": a.imag} for w, a in zip(words, amps[order].tolist())]


def cmd_encode_sim(args) -> int:
    _at_least("--top", args.top)
    bundle = _read_bundle(args.infile, check_distance=True)
    u = _parse_vector(args.message)
    if u not in bundle.description.members:
        raise SystemExit2(f"message {u} is not a member of the bundle's B")
    c_vec, delta = message_coordinates(bundle.spec, u)
    circuit = build_encoder(bundle.spec)
    out = simulate(circuit, message_state(bundle.spec, c_vec, delta))
    data = encoder_output_data(out, bundle.spec.n)
    reference = codeword(bundle.description, u)
    _emit(
        {
            "message": list(u),
            "fidelity": data.fidelity(reference),
            "support": len(data),
            "top_amplitudes": _top_amplitudes(data, args.top),
        }
    )
    return 0


def cmd_decode_sim(args) -> int:
    _at_least("--t", args.t)
    bundle = _read_bundle(args.infile, check_distance=True)
    u = _parse_vector(args.u)
    q, n = bundle.spec.q, bundle.spec.n
    x, y = (_parse_vector(args.error_x) or (0,) * n), (_parse_vector(args.error_y) or (0,) * n)
    for flag, text, word in (("--error-x", args.error_x, x), ("--error-y", args.error_y, y)):
        if len(word) != n:
            raise SystemExit2(f"{flag} must have {n} digits, got {text}")
        if any(not 0 <= v < q for v in word):  # refused, as the bundle loader refuses them
            raise SystemExit2(f"{flag} digits must lie in [0, {q}), got {text}")
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
        bundle = make_family(name, argparse.Namespace(n=kw.get("n", 0), q=kw.get("q", 2)))
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="emit a named construction")
    p.add_argument("--name", required=True,
                   choices=["d2", "laflamme", "code15", "subspace33", "subspace31", "alpha-good"])
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--alpha", default="1/6", help="fraction, e.g. 1/6")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--attempts", type=int, default=200)

    for name, extra in (
        ("verify", "algebraic distance check"),
        ("oracle", "state-vector Knill-Laflamme check"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--in", dest="infile", default=None, help="bundle file (default stdin)")
        p.add_argument("--d", type=int, default=None, help="distance (default: bundle's claim)")
        p.add_argument("--max-sphere", type=int, default=ENUMERATION_CAP)
        if name == "oracle":
            p.add_argument("--max-group", type=int, default=GROUP_CAP)

    p = sub.add_parser("greedy", help="greedy packing over a bundle's subgroup")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-sphere", type=int, default=ENUMERATION_CAP)

    p = sub.add_parser("encode-sim", help="simulate the encoder for one message")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--message", required=True, help="comma-separated member of B")
    p.add_argument("--top", type=int, default=8)

    p = sub.add_parser("decode-sim", help="corrupt, decode, and report fidelity")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--u", required=True, help="comma-separated member of B")
    p.add_argument("--error-x", default="", help="comma-separated shift word")
    p.add_argument("--error-y", default="", help="comma-separated phase word")
    p.add_argument("--t", type=int, default=1)

    sub.add_parser("table", help="CSV of built-in code parameters and bounds")
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on every call, so that a rebound cmd_* function is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        caps = {k: _at_least(f"--max-{k}", getattr(args, f"max_{k}"))
                for k in ("sphere", "group") if hasattr(args, f"max_{k}")}
        with budget(**caps), np.errstate(over="raise", invalid="raise"):  # before anything runs
            return command(args)
    except SystemExit2 as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NotFound as exc:
        _emit({"pass": False, "error": str(exc)})
        return 1
    except InvalidSpec as exc:
        _emit({"pass": False, "violations": exc.args[0]})
        return 1
    except (ValueError, DecodingError, json.JSONDecodeError, FloatingPointError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
