"""The benchmark's four workloads over the paper's codes.

A workload builds its inputs from the seed (`build`, the timed set-up) and
then hands out passes of operations (`pass_ops`); the runner times whole
passes in one closed loop with one caller.  An operation returns None when
its output checks out and a one-line reason when it does not.

nonstab is driven only through the public functions of its modules and
through `cli.main` called in-process.  Every library call goes through a
module attribute (`oracle.apply`, never a local binding), so that the
tracer in `tracing.py` sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from nonstab import circuits, cli, decoder, families, fourier_code, gottesman, oracle, weyl

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
FIDELITY_FLOOR = 1 - 1e-9


def run_cli(argv: list, stdin: str = "") -> tuple[int, str, str]:
    """`nonstab <argv>` in-process: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def bundle_text(name: str, **params) -> str:
    """The bundle that `nonstab family --name <name> ...` prints."""
    argv = ["family", "--name", name]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    status, out, err = run_cli(argv)
    if status != 0:
        raise RuntimeError(f"nonstab {' '.join(argv)} exited {status}: {err.strip()}")
    return out


def _label(name: str, params: dict) -> str:
    return " ".join([name] + [f"{k}={v}" for k, v in params.items()])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def golden_op(golden: dict, label: str, argv: list, stdin: str):
    """A CLI operation whose exit status and stdout bytes must match golden.json."""

    def op():
        status, out, _ = run_cli(argv, stdin)
        want = golden[label]
        if status != want["exit"]:
            return f"exit {status}, golden {want['exit']}"
        if out != want["stdout"]:
            return f"stdout differs from golden ({len(out)} vs {len(want['stdout'])} bytes)"
        return None

    return op


class OracleCode15:
    """`nonstab oracle` on ((15,8,3)): 8 codewords on 2^15 amplitudes, 990 errors."""

    name = "oracle-code15"
    per_op_calls = {"oracle.kl_check.calls": 1, "oracle.kl_check.errors": 990, "cli.main.calls": 1}

    def build(self, seed: int) -> dict:
        return {"code15": bundle_text("code15")}

    def pass_ops(self, inputs: dict, golden: dict, seed: int, index: int) -> list:
        label = "oracle code15"
        return [(label, golden_op(golden, label, ["oracle"], inputs["code15"]))]


class Construct:
    """In-process `verify`, `greedy` and `table` on the paper's codes.

    `verify d2 n=13 q=2` is there for the statistics: without it, half of
    the 18 calls are the cheaper d2 verifies and the median latency falls
    in the gap between them and the rest, where it is the mean of the
    slowest d2 call and the fastest other call in the run.
    """

    name = "construct"
    VERIFY = (
        ("subspace33", {}),
        ("subspace31", {}),
        ("code15", {}),
        ("laflamme", {"n": 15}),
        ("laflamme", {"n": 17}),
    ) + tuple(
        ("d2", {"n": n, "q": q})
        for q, ns in ((2, (5, 7, 9, 11, 13)), (3, (5, 7, 11)), (5, (5, 7)))
        for n in ns
    )
    GREEDY = (("laflamme", {"n": 15}), ("laflamme", {"n": 17}), ("d2", {"n": 7, "q": 3}))
    per_op_calls = {"cli.main.calls": 1}

    def build(self, seed: int) -> dict:
        return {
            _label(name, params): bundle_text(name, **params)
            for name, params in self.VERIFY + self.GREEDY
        }

    def pass_ops(self, inputs: dict, golden: dict, seed: int, index: int) -> list:
        """Every CLI call once, in an order drawn from the seed and the pass index."""
        ops = [
            (f"verify {_label(name, p)}", ["verify"], inputs[_label(name, p)])
            for name, p in self.VERIFY
        ]
        ops += [
            (f"greedy --d 3 {_label(name, p)}", ["greedy", "--d", "3"], inputs[_label(name, p)])
            for name, p in self.GREEDY
        ]
        ops.append(("table", ["table"], ""))
        order = np.random.default_rng([seed, index]).permutation(len(ops))
        return [
            (ops[i][0], golden_op(golden, *ops[i])) for i in order
        ]


class CodecCode15:
    """Seeded encode / corrupt / decode round trips on ((15,8,3))."""

    name = "codec-code15"
    ROUND_TRIPS_PER_PASS = 8
    # 1 error + 15 generators in measure_syndrome + 1 correction
    per_op_calls = {"oracle.apply.calls": 17, "decoder.measure_syndrome.calls": 1}

    def build(self, seed: int) -> dict:
        description = families.code_15_8_3()
        spec = description.spec
        members = description.sorted_members()
        xs, ys = gottesman.bounded_pair_arrays(spec.q, spec.n, 1)
        zero = (0,) * spec.n
        errors = [(zero, zero)] + [(tuple(x), tuple(y)) for x, y in zip(xs.tolist(), ys.tolist())]
        _, probe_description = families.distance2_family(7, 5)
        return {
            "description": description,
            "members": members,
            "references": {u: oracle.codeword(description, u) for u in members},
            "encoder": circuits.build_encoder(spec),
            "errors": errors,
            "probe_bundle": bundle_text("d2", n=7, q=5),
            "probe_members": probe_description.sorted_members(),
        }

    def pass_ops(self, inputs: dict, golden: dict, seed: int, index: int) -> list:
        rng = np.random.default_rng([seed, index])
        members, errors = inputs["members"], inputs["errors"]
        ops = []
        for _ in range(self.ROUND_TRIPS_PER_PASS):
            u = members[int(rng.integers(len(members)))]
            x, y = errors[int(rng.integers(len(errors)))]
            ops.append((f"round trip u={u} x={x} y={y}", self._round_trip(inputs, u, x, y)))
        return ops

    @staticmethod
    def _round_trip(inputs: dict, u: tuple, x: tuple, y: tuple):
        description = inputs["description"]
        spec = description.spec
        reference = inputs["references"][u]

        def op():
            c_vec, delta = oracle.message_coordinates(spec, u)
            out = circuits.simulate(inputs["encoder"], circuits.message_state(spec, c_vec, delta))
            data = circuits.encoder_output_data(out, spec.n)
            fidelity = data.fidelity(reference)
            if fidelity < FIDELITY_FLOOR:
                return f"encoded fidelity {fidelity!r}"
            corrupted = oracle.apply(weyl.WeylElement(spec.group, 0, x, y), data)
            fidelity = decoder.decode(corrupted, description, 1).fidelity(reference)
            if fidelity < FIDELITY_FLOOR:
                return f"decoded fidelity {fidelity!r}"
            return None

        return op

    def probe(self, inputs: dict, seed: int) -> dict:
        """`encode-sim` on d2 n=7 q=5, which has 28 base-5 registers.

        5^28 > 2^63 overflows the int64 packed index, and the spec's 5^7
        elements exceed the 2^16 cap of codeword construction.  At the time of
        writing every message exits 2.  The result is reported, not timed,
        and is wrong only when the command claims a bad encoding.
        """
        members = inputs["probe_members"]
        u = members[int(np.random.default_rng(seed).integers(len(members)))]
        message = ",".join(map(str, u))
        status, out, err = run_cli(["encode-sim", "--message", message], inputs["probe_bundle"])
        result = {"op": f"encode-sim d2 n=7 q=5 --message {message}", "exit": status,
                  "stderr": err.strip(), "failed": status != 0}
        if status == 0:
            result["wrong"] = json.loads(out)["fidelity"] < FIDELITY_FLOOR
        else:
            result["wrong"] = status != 2
        return result


class Crosscheck:
    """Random valid specs through both verification routes, which must agree."""

    name = "crosscheck"
    # (q, n, r): r None is a maximal spec.  The shapes are fixed and the
    # matrices and descriptions random, so every seed draws the same mix of
    # costs; dense dimensions stay at or below 625 so that no single
    # operation dominates a pass.
    SHAPES = (
        (2, 6, None), (2, 7, None), (3, 4, None), (3, 5, None), (5, 3, None), (5, 4, None),
        (2, 6, 2), (2, 8, 3), (3, 4, 2), (3, 5, 2), (5, 3, 1),
    )
    SPECS_PER_SHAPE = 20
    per_op_calls = {
        "oracle.kl_check.calls": 1,
        "fourier_code.verify_distance.calls": 1,
        "gottesman.validate.calls": 1,
    }

    @staticmethod
    def _random_spec(rng, q: int, n: int, r: int | None):
        if r is None:
            return families.maximal_form_spec(q, n, np.triu(rng.integers(0, q, size=(n, n))))
        m_mat = rng.integers(0, q, size=(n, r))
        m_mat[:r, :] = (m_mat[:r, :] + m_mat[:r, :].T) % q  # L^T M symmetric
        l_mat = np.zeros((n, r), dtype=np.int64)
        l_mat[:r, :] = np.eye(r, dtype=np.int64)
        d_mat = gottesman.synthesize_phase_matrix(q, l_mat, m_mat)
        return gottesman.GottesmanSpec(q=q, L=l_mat, M=m_mat, D=d_mat)

    def build(self, seed: int) -> dict:
        """Per spec: a random description, then the greedy one where 2-pure."""
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(self.SPECS_PER_SHAPE):
            for q, n, r in self.SHAPES:
                spec = self._random_spec(rng, q, n, r)
                size = int(rng.integers(1, min(4, spec.size) + 1))
                members = set()
                while len(members) < size:
                    members.add(tuple(int(v) for v in rng.integers(0, q, size=spec.r)))
                label = f"q={q} n={n} r={spec.r}"
                cases.append((f"random {label}", fourier_code.FourierDescription(spec, frozenset(members)), False))
                if gottesman.purity_radius(spec, 2) is None:
                    cases.append((f"greedy {label}", fourier_code.greedy_construct(spec, 2), True))
        return {"cases": cases}

    def pass_ops(self, inputs: dict, golden: dict, seed: int, index: int) -> list:
        """Every case once, so that each run measures the same mix."""
        return [(label, self._agree(description, must_pass)) for label, description, must_pass in inputs["cases"]]

    @staticmethod
    def _agree(description, must_pass: bool):
        def op():
            violations = gottesman.validate(description.spec)
            if violations:
                return f"invalid spec: {violations[0]}"
            algebraic = fourier_code.verify_distance(description, 2).passed
            state_vector = oracle.kl_check(description, 2).passed
            if algebraic != state_vector:
                return f"verify_distance {algebraic} but kl_check {state_vector}"
            if must_pass and not algebraic:
                return "greedy description fails distance 2"
            return None

        return op


WORKLOADS = {w.name: w for w in (OracleCode15(), CodecCode15(), Construct(), Crosscheck())}
