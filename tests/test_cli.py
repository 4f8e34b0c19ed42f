import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import reference_top_amplitudes
from hypothesis import given, settings
from hypothesis import strategies as st

from nonstab.cli import CodeBundle, _top_amplitudes, main
from nonstab.families import distance2_family
from nonstab.oracle import SparseState
from nonstab.weyl import prime_group


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def family_bundle(capsys, tmp_path, *argv):
    code, out = run(capsys, "family", *argv)
    assert code == 0
    path = tmp_path / "bundle.json"
    path.write_text(out)
    return path, json.loads(out)


def test_family_then_verify_distance2(capsys, tmp_path):
    path, doc = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    assert doc["params"] == {"n": 5, "q": 2, "K": 6, "d": 2}
    code, out = run(capsys, "verify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["params"]["K"] == 6


def test_family_verify_subspace33(capsys, tmp_path):
    path, doc = family_bundle(capsys, tmp_path, "--name", "subspace33")
    assert doc["params"] == {"n": 33, "q": 2, "K": 155, "d": 3}
    code, out = run(capsys, "verify", "--in", str(path), "--d", "3")
    assert code == 0 and json.loads(out)["pass"]


def test_verify_mutated_bundle_fails_with_witness(capsys, tmp_path):
    path, doc = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    doc["B"].append([1, 1, 1, 1, 1])
    doc["params"]["K"] += 1
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--in", str(mutated))
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert "witness" in report


def test_bundle_dimension_claim_checked_on_load(capsys, tmp_path):
    path, doc = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    doc["params"]["K"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 2


def test_oracle_command(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    code, out = run(capsys, "oracle", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["kl"]["pass"] and report["orthonormality"]["pass"]
    assert report["kl"]["counts"] == {"errors": 15, "pairs": 36}


def test_greedy_command(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "7")
    code, out = run(capsys, "greedy", "--in", str(path), "--d", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["K"] >= 1
    greedy_path = tmp_path / "greedy.json"
    greedy_path.write_text(out)
    code, out = run(capsys, "verify", "--in", str(greedy_path), "--d", "3")
    assert code == 0 and json.loads(out)["pass"]


def test_greedy_refuses_a_character_space_beyond_max_sphere(capsys, tmp_path):
    # subspace33 has 2^33 character indices; greedy walks all of them, so the
    # budget is checked before anything is built
    path, _ = family_bundle(capsys, tmp_path, "--name", "subspace33")
    code = main(["greedy", "--in", str(path), "--d", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: character space 8589934592 exceeds cap 10000000\n"
    path, _ = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "7")
    code = main(["greedy", "--in", str(path), "--d", "3", "--max-sphere", "127"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "error: character space 128 exceeds cap 127\n"


def test_verify_refuses_a_difference_set_beyond_max_sphere(capsys, tmp_path):
    # subspace33 has K = 155, so B - B takes 155^2 = 24,025 pairs; its d = 3
    # sphere (4,852 pairs) fits the cap, the difference pairs do not
    path, _ = family_bundle(capsys, tmp_path, "--name", "subspace33")
    code = main(["verify", "--in", str(path), "--max-sphere", "24024"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: difference pairs 24025 exceeds cap 24024\n"
    code, out = run(capsys, "verify", "--in", str(path), "--max-sphere", "24025")
    assert code == 0 and json.loads(out)["pass"]


def test_encode_sim_command(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    code, out = run(capsys, "encode-sim", "--in", str(path), "--message", "0,0,0,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["fidelity"] >= 1 - 1e-10
    assert report["support"] == 16


def test_encode_sim_refuses_negative_top(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    for top in ("-1", "-16"):
        code = main(["encode-sim", "--in", str(path), "--message", "0,0,0,0,1", "--top", top])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --top must be >= 0, got {top}\n"
    code, out = run(capsys, "encode-sim", "--in", str(path), "--message", "0,0,0,0,1", "--top", "0")
    assert code == 0 and json.loads(out)["top_amplitudes"] == []


@pytest.mark.parametrize("q, n", [(2, 9), (3, 6), (5, 4)])
def test_encode_sim_ranks_near_ties_as_the_sorted_reference(q, n):
    # each random amplitude a comes with partners of equal or adjacent
    # magnitude: |a| on the real axis, a with its parts swapped, and the next
    # float above |a|; a magnitude one bit off (np.abs on some CPUs) reorders them
    rng = np.random.default_rng(q)
    base = rng.normal(size=40) + 1j * rng.normal(size=40)
    magnitude = np.hypot(base.real, base.imag)
    amps = np.concatenate([base, magnitude + 0j, base.imag + 1j * base.real,
                           np.nextafter(magnitude, np.inf) + 0j])
    keys = np.sort(rng.choice(q**n, size=len(amps), replace=False))
    state = SparseState(prime_group(q), n, keys, rng.permutation(amps))
    for top in (len(state), 7):
        want = reference_top_amplitudes(state, top)
        assert json.dumps(_top_amplitudes(state, top)) == json.dumps(want)


def test_encode_sim_gf3(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "3")
    code, out = run(capsys, "encode-sim", "--in", str(path), "--message", "0,0,0,0,2")
    assert code == 0
    assert json.loads(out)["fidelity"] >= 1 - 1e-10


def test_decode_sim_command(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "7")
    code, out = run(
        capsys, "decode-sim", "--in", str(path), "--u", "0,0,0,0,0,0,0",
        "--error-x", "0,1,0,0,0,0,0", "--error-y", "0,1,0,0,0,0,0", "--t", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] and report["fidelity"] >= 1 - 1e-9
    assert report["applied_correction"]["x"] == [0, 1, 0, 0, 0, 0, 0]
    # weight-2 error at t = 1 reports failure
    code, out = run(
        capsys, "decode-sim", "--in", str(path), "--u", "0,0,0,0,0,0,0",
        "--error-x", "1,1,0,0,0,0,0", "--t", "1",
    )
    assert code == 1
    assert not json.loads(out)["pass"]


def test_alpha_good_family(capsys, tmp_path):
    code, out = run(capsys, "family", "--name", "alpha-good", "--n", "12",
                    "--alpha", "1/6", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["n"] == 24
    code, _ = run(capsys, "family", "--name", "alpha-good", "--n", "12")
    assert code == 2  # --seed is required


def test_alpha_good_refuses_negative_attempts(capsys):
    for attempts in ("-1", "-3"):
        code = main(["family", "--name", "alpha-good", "--n", "12", "--seed", "7",
                     "--attempts", attempts])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --attempts must be >= 0, got {attempts}\n"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("d2", "--n", "1000001", "--q", "2"), "cocycle pairs 1000002000001 exceeds cap 65536"),
        (("laflamme", "--n", "1000001"), "cocycle pairs 1000002000001 exceeds cap 65536"),
        (("alpha-good", "--n", "1000000", "--seed", "1"),
         "cocycle pairs 4000000000000 exceeds cap 65536"),
        (("d2", "--n", "7", "--q", "1000003"),
         "difference pairs 49000210000225 exceeds cap 10000000"),
        (("d2", "--n", "257", "--q", "2"), "cocycle pairs 66049 exceeds cap 65536"),
    ],
)
def test_family_refuses_an_oversized_construction_before_building_it(capsys, argv, refusal):
    # n x n couplings, 7 million members of B, or more cocycle pairs than the group budget
    import tracemalloc

    tracemalloc.start()
    try:
        code = main(["family", "--name", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {refusal}\n")
    assert peak < 2**20


@pytest.mark.parametrize("alpha", ["0/0", "1/0"])
def test_alpha_good_refuses_a_malformed_alpha(capsys, alpha):
    code = main(["family", "--name", "alpha-good", "--n", "12", "--seed", "7",
                 "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --alpha must be a fraction such as 1/6, got {alpha}\n"


@pytest.mark.parametrize(
    "argv, flag, value",
    [(["verify"], "--max-sphere", "-5"), (["greedy", "--d", "3"], "--max-sphere", "-1"),
     (["oracle"], "--max-sphere", "-2"), (["oracle"], "--max-group", "-1")],
)
def test_negative_budget_flags_exit_2_before_anything_runs(capsys, tmp_path, argv, flag, value):
    # the bundle does not exist: the flag is refused before it is read
    code = main([*argv, "--in", str(tmp_path / "missing.json"), flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} must be >= 0, got {value}\n"


def test_decode_sim_refuses_error_digits_outside_0_to_q(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "3")
    for flag, word in (("--error-x", "5,0,0,0,0"), ("--error-y", "0,-1,0,0,0"),
                       ("--error-x", "0,0,0,0,3")):
        code = main(["decode-sim", "--in", str(path), "--u", "0,0,0,0,0", flag, word])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {flag} digits must lie in [0, 3), got {word}\n"
    # the digit q - 1 is in range: the run decodes (a distance-2 code at t = 1
    # need not succeed) instead of being refused
    code = main(["decode-sim", "--in", str(path), "--u", "0,0,0,0,0",
                 "--error-x", "2,0,0,0,0", "--error-y", "0,2,0,0,0"])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == "" and "pass" in json.loads(captured.out)


def test_decode_sim_refuses_a_negative_t_before_reading_the_bundle(capsys, tmp_path):
    # refused with and without an error, and on a bundle that does not exist
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    for bundle, error in ((path, []), (path, ["--error-x", "1,0,0,0,0"]),
                          (tmp_path / "missing.json", [])):
        code = main(["decode-sim", "--in", str(bundle), "--u", "0,0,0,0,0", "--t", "-1", *error])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --t must be >= 0, got -1\n"


def test_decode_sim_refuses_an_error_word_of_the_wrong_length(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "3")
    for flag, word in (("--error-x", "1,0"), ("--error-y", "0,0,0,0,0,1"), ("--error-x", "0")):
        code = main(["decode-sim", "--in", str(path), "--u", "0,0,0,0,0", flag, word])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {flag} must have 5 digits, got {word}\n"


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["oracle"], ["greedy", "--d", "3"], ["encode-sim", "--message", "0"],
     ["decode-sim", "--u", "0"]],
)
def test_unreadable_bundle_exits_2(capsys, tmp_path, argv):
    for path, reason in ((tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        code = main([*argv, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cannot read bundle {path}: {reason}\n"


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "table"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "usage: nonstab" in captured.err and "Traceback" not in captured.err


def test_table_command(capsys):
    code, out = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,q,K,d,lower_bound,upper_bound,source"
    assert any(line.startswith("15,2,8,3,") for line in lines)
    assert any(line.startswith("33,2,155,3,") for line in lines)
    assert not any(line.startswith("3,2,") for line in lines)  # no unverifiable rows


def test_every_family_output_passes_its_own_verify(capsys, tmp_path):
    cases = [
        ("d2", "--n", "5", "--q", "2"),
        ("d2", "--n", "7", "--q", "2"),
        ("d2", "--n", "5", "--q", "3"),
        ("laflamme", "--n", "7"),
        ("code15",),
        ("subspace33",),
        ("subspace31",),
        ("alpha-good", "--n", "12", "--seed", "7"),
    ]
    for name, *flags in cases:
        path, _ = family_bundle(capsys, tmp_path, "--name", name, *flags)
        code, out = run(capsys, "verify", "--in", str(path))
        assert code == 0 and json.loads(out)["pass"], f"family {name} failed"


def test_d2_family_refuses_n3(capsys, tmp_path):
    # ((3, 1+3(q-1), 2))_q would break the quantum Singleton bound K <= q
    for q in ("2", "3"):
        code = main(["family", "--name", "d2", "--n", "3", "--q", q])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "n >= 5" in captured.err
    # the ((3,1,3)) stabilizer code on the same subgroup is still emitted
    path, _ = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "3")
    for command in ("verify", "oracle"):
        code, out = run(capsys, command, "--in", str(path))
        assert code == 0, f"{command} rejected laflamme n=3"


def test_output_is_byte_stable(capsys):
    _, first = run(capsys, "family", "--name", "code15")
    _, second = run(capsys, "family", "--name", "code15")
    assert first == second
    _, t1 = run(capsys, "table")
    _, t2 = run(capsys, "table")
    assert t1 == t2


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    path, _ = family_bundle(capsys, tmp_path, "--name", "code15")
    code, _ = run(capsys, "verify", "--in", str(path), "--max-sphere", "10")
    assert code == 2  # budget exceeded reports the cap
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, _ = run(capsys, "verify", "--in", str(garbage))
    assert code == 2


def test_oracle_refuses_oversized_state_space(capsys, tmp_path):
    # the 2^33-dimensional oracle run must degrade predictably, not hang
    path, _ = family_bundle(capsys, tmp_path, "--name", "subspace33")
    code, _ = run(capsys, "oracle", "--in", str(path))
    assert code == 2


def test_stdin_bundle(capsys, tmp_path, monkeypatch):
    import io

    _, doc = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out = run(capsys, "verify")
    assert code == 0 and json.loads(out)["pass"]


def test_oracle_refuses_oversized_projection(capsys, tmp_path):
    from conftest import oversized_nonmaximal_description

    from nonstab.cli import CodeBundle

    path = tmp_path / "n13.json"
    bundle = CodeBundle(oversized_nonmaximal_description(), 2, "random n=13 r=3")
    path.write_text(json.dumps(bundle.to_json_dict()))
    code = main(["oracle", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: dense dimension 8192 exceeds cap 4096\n"


def test_max_group_is_an_oracle_flag_only(capsys, tmp_path):
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(path), "--max-group", "16"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --max-group 16" in captured.err
    assert "Traceback" not in captured.err
    code = main(["oracle", "--in", str(path), "--max-group", "16"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: subgroup size 32 exceeds cap 16\n"
    code, out = run(capsys, "oracle", "--in", str(path), "--max-group", "32")
    assert code == 0 and json.loads(out)["kl"]["pass"]


def test_encode_sim_refuses_int64_overflow(capsys, tmp_path):
    # 4 registers of 7 base-5 digits: 5^28 > 2^63 words
    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "7", "--q", "5")
    code = main(["encode-sim", "--in", str(path), "--message", "0,0,0,0,0,0,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "overflows int64" in captured.err and len(captured.err.splitlines()) == 1


def corrupted_code15(capsys, tmp_path, corrupt):
    _, doc = family_bundle(capsys, tmp_path, "--name", "code15")
    corrupt(doc["spec"])
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    return path


def test_oracle_validates_the_spec_first(capsys, tmp_path):
    def break_phase(spec):
        spec["D"][0][0] ^= 1
        del spec["quad_upper"]  # else the closed form catches it first

    path = corrupted_code15(capsys, tmp_path, break_phase)
    for command in ("verify", "oracle"):
        code, out = run(capsys, command, "--in", str(path))
        assert code == 1, command
        report = json.loads(out)
        assert report["pass"] is False
        assert report["violations"][0].startswith("phase cocycle fails"), command


def break_symmetry(spec):
    spec["M"][0][1] ^= 1  # L^T M is no longer symmetric


def break_cocycle(spec):
    spec["D"][0][0] += 1


@pytest.mark.parametrize("corrupt", [break_symmetry, break_cocycle])
def test_every_command_that_reads_a_bundle_validates_its_spec(capsys, tmp_path, corrupt):
    _, doc = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "7")
    corrupt(doc["spec"])
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(doc))
    code, expected = run(capsys, "verify", "--in", str(path))
    assert code == 1 and json.loads(expected)["violations"]
    zero = ",".join(["0"] * 7)
    for argv in (["greedy", "--d", "3"], ["encode-sim", "--message", zero], ["decode-sim", "--u", zero]):
        code = main([*argv, "--in", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, expected, ""), argv


def test_bad_product_form_certificate_exits_2(capsys, tmp_path):
    def break_certificate(spec):
        spec["quad_upper"][0][1] ^= 1

    path = corrupted_code15(capsys, tmp_path, break_certificate)
    code = main(["oracle", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: projection-built codeword disagrees with the closed form\n"


def test_distance_below_1_exits_2(capsys, tmp_path):
    path, doc = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    doc["params"]["d"] = 0
    claims_0 = tmp_path / "claims_0.json"
    claims_0.write_text(json.dumps(doc))
    cases = [([command, "--in", str(path), "--d", d], d)
             for command in ("verify", "oracle", "greedy") for d in ("0", "-1")]
    cases += [([command, "--in", str(claims_0)], "0") for command in ("verify", "oracle")]
    for argv, d in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: d must be >= 1, got {d}\n", argv


def test_oracle_projects_the_basis_once(capsys, tmp_path, monkeypatch):
    from nonstab import oracle

    calls = []
    projected_basis = oracle._projected_basis

    def counted(spec, members, *args, **kwargs):
        calls.append(len(members))
        return projected_basis(spec, members, *args, **kwargs)

    path, _ = family_bundle(capsys, tmp_path, "--name", "code15")
    monkeypatch.setattr(oracle, "_projected_basis", counted)
    oracle._cached_basis.cache_clear()
    code, out = run(capsys, "oracle", "--in", str(path))
    assert code == 0 and json.loads(out)["orthonormality"]["pass"]
    assert calls == [8]


def test_oracle_forms_the_member_characters_once(capsys, tmp_path, monkeypatch):
    # the enumerator of kl_check and the codeword basis read the same u . a
    from nonstab import fourier_code, galois, oracle

    calls = []

    def counted(members, q, width):
        calls.append(len(members))
        return galois._characters(members, q, width)

    path, _ = family_bundle(capsys, tmp_path, "--name", "code15")
    for module in (fourier_code, oracle):
        monkeypatch.setattr(module, "_characters", counted)
    code, out = run(capsys, "oracle", "--in", str(path))
    assert code == 0 and json.loads(out)["orthonormality"]["pass"]
    assert calls == [8]


def test_oracle_refuses_an_oversized_codeword_basis(capsys, tmp_path):
    from nonstab.families import code_15_8_3
    from nonstab.fourier_code import greedy_construct

    description = greedy_construct(code_15_8_3().spec, 2)
    assert len(description) == 4187
    path = tmp_path / "greedy_d2.json"
    path.write_text(json.dumps(CodeBundle(description, 2, "greedy d=2").to_json_dict()))
    code = main(["oracle", "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    # 2^15 amplitudes for each of 4,187 codewords, against 2^24
    assert captured.err == "error: codeword basis entries 137199616 exceeds cap 16777216\n"


def test_oracle_leaves_numpy_random_unimported(capsys, tmp_path):
    import nonstab

    path, _ = family_bundle(capsys, tmp_path, "--name", "code15")
    script = (
        "import sys\n"
        "from nonstab.cli import main\n"
        f"code = main(['oracle', '--in', {str(path)!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(nonstab.__file__))
    path_entries = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "0 False"


def _set(path, value):
    def corrupt(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set(["spec", "L", 0, 0], 7), "spec L must hold a matrix of integers in [0, 2)"),
        (_set(["spec", "L", 0, 0], 1.5), "spec L must hold a matrix of integers in [0, 2)"),
        (_set(["B", 0, 0], False), "B must hold 8 rows of 15 integers in [0, 2)"),
        (_set(["spec", "n"], 99), "spec n=99 does not match L, which is 15 x 15"),
        (_set(["spec", "D", 0, 0], 10**30), "spec D must hold 15 rows of 15 integers in [0, 4)"),
        (_set(["params", "d"], 1.5), "params d must be an integer, got 1.5"),
        (_set(["spec", "q"], 3215031751), "modulus 3215031751 is not prime"),
        (_set(["spec", "q"], 2**89 - 1),
         f"primality of {2**89 - 1} is not decided at or beyond 3317044064679887385961981"),
    ],
    ids=["L entry 7 at q=2", "L entry 1.5", "boolean B digit", "spec n 99", "D entry 10^30",
         "params d 1.5", "spec q a strong pseudoprime", "spec q 2^89 - 1"],
)
def test_malformed_bundle_exits_2_at_load(capsys, tmp_path, corrupt, message):
    _, doc = family_bundle(capsys, tmp_path, "--name", "code15")
    corrupt(doc)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify"], ["oracle"], ["greedy", "--d", "3"]):
        code = main([*argv, "--in", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import argparse

    main(["table"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--d", "x"])
        assert exc.value.code == 2
        assert "argument --d: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["table"]) == 0
    assert built == []


def test_verify_on_a_large_prime_builds_no_chunk_digit_table(capsys, tmp_path, monkeypatch):
    # q = 10^9 + 7 puts one digit in a chunk; the chunk width is read without
    # the digit rows of every chunk value, which would be 10^9 rows here
    from nonstab import galois

    digits = galois._chunk_digits

    def refused(q):
        if q > galois.CHUNK_VALUES:
            pytest.fail(f"the digit rows of {q} chunk values were built")
        return digits(q)

    monkeypatch.setattr(galois, "_chunk_digits", refused)
    galois._chunk_layout.cache_clear()
    doc = {"spec": {"q": 10**9 + 7, "L": [[1]], "M": [[0]], "D": [[0]]}, "B": [[0]]}
    path = tmp_path / "large_q.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", "--in", str(path), "--d", "1")
    assert code == 0 and json.loads(out)["pass"]


def test_decode_sim_refuses_an_oversized_codeword_before_any_allocation(capsys, tmp_path, monkeypatch):
    # subspace33 has 2^33 subgroup elements: the characters of its codeword over
    # all 2^33 words would take 64 GiB, so the group budget refuses it first
    from nonstab import galois, oracle

    def refused(*args):
        pytest.fail("the characters of every word were built")

    path, doc = family_bundle(capsys, tmp_path, "--name", "subspace33")
    for module in (galois, oracle):
        monkeypatch.setattr(module, "_characters", refused)
    u = ",".join(map(str, doc["B"][0]))
    code = main(["decode-sim", "--in", str(path), "--u", u, "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: subgroup size 8589934592 exceeds cap 65536\n"


def test_codeword_on_a_large_prime_is_refused_before_any_allocation(monkeypatch):
    # q = 10^9 + 7, n = 1: the characters of the 10^9 + 7 words would take 7.45 GiB
    from nonstab import galois, oracle
    from nonstab.fourier_code import FourierDescription

    def refused(*args):
        pytest.fail("the characters of every word were built")

    for module in (galois, oracle):
        monkeypatch.setattr(module, "_characters", refused)
    doc = {"spec": {"q": 10**9 + 7, "L": [[1]], "M": [[0]], "D": [[0]]}, "B": [[0]]}
    description = FourierDescription.from_json_dict(doc)
    with pytest.raises(ValueError, match="^subgroup size 1000000007 exceeds cap 65536$"):
        oracle.codeword(description, (0,))


def test_greedy_enumerates_the_error_sphere_twice(capsys, tmp_path, monkeypatch):
    # greedy_construct reads purity and the forbidden set from one enumeration,
    # and the verify_distance of its result makes the other
    from nonstab import gottesman

    calls = []
    pairs = gottesman.bounded_pair_arrays

    def counted(*args, **kwargs):
        calls.append(args)
        return pairs(*args, **kwargs)

    path, _ = family_bundle(capsys, tmp_path, "--name", "laflamme", "--n", "15")
    monkeypatch.setattr(gottesman, "bounded_pair_arrays", counted)
    code, out = run(capsys, "greedy", "--in", str(path), "--d", "3")
    assert code == 0 and json.loads(out)["params"]["K"] > 1
    assert calls == [(2, 15, 2), (2, 15, 2)]


def test_cli_output_matches_the_golden_bytes():
    # every operation recorded in perfbench/golden.json, replayed in process as
    # the benchmark replays it: exit status and stdout bytes must be equal
    import importlib.util
    from pathlib import Path

    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    golden = workloads.load_golden()
    ops = []
    for workload in (workloads.OracleCode15(), workloads.Construct()):
        ops += workload.pass_ops(workload.build(1), golden, 1, 0)
    assert sorted(label for label, _ in ops) == sorted(golden)
    assert {label: op() for label, op in ops} == dict.fromkeys(golden)


def replay_pins(capsys, tmp_path, name):
    """Replay every case of a pin file in tests/: exit status and stdout bytes
    must be equal.  A bundle is the argv of `family` or a bundle document."""
    from pathlib import Path

    pins = json.loads((Path(__file__).resolve().parent / name).read_text())
    paths = {}
    for label, bundle in pins["bundles"].items():
        paths[label] = tmp_path / f"{len(paths)}.json"
        text = json.dumps(bundle) if isinstance(bundle, dict) else run(capsys, "family", *bundle)[1]
        paths[label].write_text(text)
    for case in pins["cases"]:
        got = run(capsys, *case["argv"], "--in", str(paths[case["bundle"]]))
        assert got == (case["exit"], case["stdout"]), (case["bundle"], case["argv"])


def test_encode_and_decode_sim_match_the_pinned_bytes(capsys, tmp_path):
    # tests/sim_golden.json holds the exit status and stdout of encode-sim and
    # decode-sim on code15 and d2 n=7 q=3, captured in process before the
    # chunked Weyl action: two messages each, errors of weight 0 and 1 and one
    # weight-2 error that code15 cannot correct.  Nothing rewrites the file.
    replay_pins(capsys, tmp_path, "sim_golden.json")


def test_failing_oracle_runs_match_the_pinned_bytes(capsys, tmp_path):
    # tests/oracle_golden.json holds the exit status and stdout of failing
    # `oracle` runs, witness floats included, captured in process before the
    # screen learned to drop the imaginary part of a real basis: code15 at
    # d = 4 and 5, d2 n=5 q=2 at d = 3 (K above the Singleton bound, nothing
    # screened), d2 n=7 q=3 at d = 3, and two random non-maximal bundles
    # (seeds 1 and 2 of `random_nonmaximal_spec` and `random_description`).
    # Nothing rewrites the file.
    replay_pins(capsys, tmp_path, "oracle_golden.json")


def test_decode_sim_searches_match_the_pinned_bytes(capsys, tmp_path):
    # tests/decode_golden.json holds the exit status and stdout of decode-sim
    # runs captured in process before the error search read the error
    # sphere's shift keys: code15 at --t 2 with errors of weight 0, 1 and 2,
    # --t 0 with and without a weight-1 error (no candidate matches), and
    # d2 n=7 q=3 with weight-2 errors at --t 0, 1 and 2.  Nothing rewrites
    # the file.
    replay_pins(capsys, tmp_path, "decode_golden.json")


# The CLI fuzz: drawn integer flags and digit vectors on the d2 (5, 2) bundle.
# Digit vectors are members of its B half of the time, so that runs get past
# the membership checks, and each optional flag is left out as often as not.
D2_MEMBERS = [",".join(map(str, u)) for u in distance2_family(5, 2)[1].sorted_members()]
COUNT_FLAGS = ("--t", "--top", "--max-sphere", "--max-group")
VECTOR = st.sampled_from(D2_MEMBERS) | st.lists(st.integers(-2, 3), max_size=6).map(
    lambda digits: ",".join(map(str, digits))
)
DISTANCE, CAP = st.integers(-2, 7), st.integers(-3, 2**16)
FUZZ_FLAGS = {  # command: (required flags, optional flags)
    "verify": ({}, {"--d": DISTANCE, "--max-sphere": CAP}),
    "oracle": ({}, {"--d": DISTANCE, "--max-sphere": CAP, "--max-group": CAP}),
    "greedy": ({"--d": DISTANCE}, {"--max-sphere": CAP}),
    "encode-sim": ({"--message": VECTOR}, {"--top": st.integers(-3, 40)}),
    "decode-sim": ({"--u": VECTOR}, {"--error-x": VECTOR, "--error-y": VECTOR,
                                     "--t": st.integers(-3, 7)}),
}


@pytest.fixture(scope="module")
def d2_bundle(tmp_path_factory):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["family", "--name", "d2", "--n", "5", "--q", "2"]) == 0
    path = tmp_path_factory.mktemp("fuzz") / "d2.json"
    path.write_text(out.getvalue())
    return path


@pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
def test_fuzzed_flags_exit_0_1_or_2_with_one_line_on_refusal(d2_bundle, command):
    required, optional = FUZZ_FLAGS[command]

    @settings(max_examples=50)
    @given(st.fixed_dictionaries(required, optional=optional))
    def run_fuzzed(flags):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, f"--in={d2_bundle}", *(f"{k}={v}" for k, v in flags.items())])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines(keepends=True)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n")
        else:
            assert lines == [] and out.getvalue().endswith("\n")
        if any(flags.get(flag, 0) < 0 for flag in COUNT_FLAGS) or flags.get("--d", 1) < 1:
            assert code == 2, flags

    run_fuzzed()


def test_a_floating_point_error_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    import numpy as np

    from nonstab import cli

    path, _ = family_bundle(capsys, tmp_path, "--name", "d2", "--n", "5", "--q", "2")
    before = np.geterr()
    for operation in ("over", "invalid"):
        def failing(description, d, operation=operation):
            big = np.float64(1e308)
            return big * 10 if operation == "over" else np.sqrt(-big)

        monkeypatch.setattr(cli, "verify_distance", failing)
        code = main(["verify", "--in", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert ("overflow" if operation == "over" else "invalid value") in captured.err
    assert np.geterr() == before  # restored on the way out


# The bundle fuzz: one drawn mutation of the d2 (5, 2) or the code15 bundle,
# run through every command that reads a bundle.  An entry becomes a digit in
# or out of range, a negative, a float, a bool or 10^30; a field is dropped; a
# matrix is made ragged, truncated or transposed; or a params claim is moved.
MATRICES = (("spec", "L"), ("spec", "M"), ("spec", "D"), ("spec", "quad_upper"), ("B",))
SCALARS = (("spec", "q"), ("spec", "n"), ("spec", "r"), ("spec", "phase_denominator"),
           ("params", "n"), ("params", "q"), ("params", "K"), ("params", "d"))
ENTRY = st.integers(0, 8) | st.sampled_from([-1, 1.5, 1.0, True, False, 10**30])


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_bundles(draw, doc):
    doc = json.loads(json.dumps(doc))
    kind = draw(st.sampled_from(["entry", "scalar", "drop", "ragged", "truncated", "transposed",
                                 "params"]))
    matrix = draw(st.sampled_from([p for p in MATRICES if p[-1] in _at(doc, p[:-1])]))
    rows = _at(doc, matrix)
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "entry":
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(ENTRY)
    elif kind == "scalar":
        path = draw(st.sampled_from(SCALARS))
        _at(doc, path[:-1])[path[-1]] = draw(ENTRY)
    elif kind == "drop":
        paths = [(key,) for key in doc] + [(part, key) for part in ("spec", "params")
                                           for key in doc[part]]
        path = draw(st.sampled_from(paths))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif kind == "truncated":
        del rows[i:]
    elif kind == "transposed":
        _at(doc, matrix[:-1])[matrix[-1]] = [list(column) for column in zip(*rows)]
    else:
        key = draw(st.sampled_from(["n", "q", "K", "d"]))
        doc["params"][key] += draw(st.sampled_from([-1, 1, 2]))
    return doc


@pytest.mark.parametrize("family, examples", [(("d2", "--n", "5", "--q", "2"), 100),
                                              (("code15",), 15)], ids=["d2", "code15"])
def test_mutated_bundles_exit_0_1_or_2_with_one_line_on_refusal(tmp_path, family, examples):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["family", "--name", *family]) == 0
    original = json.loads(out.getvalue())
    member = ",".join(map(str, min(map(tuple, original["B"]))))
    d = str(original["params"]["d"])
    path = tmp_path / "mutated.json"

    @settings(max_examples=examples)
    @given(mutated_bundles(original))
    def run_mutated(doc):
        path.write_text(json.dumps(doc))
        for argv in (["verify"], ["oracle"], ["greedy", "--d", d],
                     ["encode-sim", "--message", member], ["decode-sim", "--u", member]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--in", str(path)])
            assert code in (0, 1, 2), argv
            lines = err.getvalue().splitlines(keepends=True)
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
            else:
                assert lines == [] and out.getvalue().endswith("\n"), argv

    run_mutated()
