import json
import os
import subprocess
import sys

import pytest

from nonstab.cli import CodeBundle, main


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
    oracle._basis_matrix.cache_clear()
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
    ],
    ids=["L entry 7 at q=2", "L entry 1.5", "boolean B digit", "spec n 99", "D entry 10^30",
         "params d 1.5"],
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


def test_encode_and_decode_sim_match_the_pinned_bytes(capsys, tmp_path):
    # tests/sim_golden.json holds the exit status and stdout of encode-sim and
    # decode-sim on code15 and d2 n=7 q=3, captured in process before the
    # chunked Weyl action: two messages each, errors of weight 0 and 1 and one
    # weight-2 error that code15 cannot correct.  Nothing rewrites the file.
    from pathlib import Path

    pins = json.loads((Path(__file__).resolve().parent / "sim_golden.json").read_text())
    paths = {}
    for label, argv in pins["bundles"].items():
        paths[label] = tmp_path / f"{len(paths)}.json"
        paths[label].write_text(run(capsys, "family", *argv)[1])
    for case in pins["cases"]:
        got = run(capsys, *case["argv"], "--in", str(paths[case["bundle"]]))
        assert got == (case["exit"], case["stdout"]), case["argv"]
