"""Command line: exit codes, JSON output, golden demo transcripts."""

import json
import math
import os

import pytest

from qecdesk.cli import DEMO_NAMES, USAGE_EXIT, _round, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def test_check_single_error_verdicts(capsys):
    code, data = run_json(capsys, ["check", "--code", "repetition3",
                                   "--errors", "Z1"])
    assert code == 1
    assert data["detectable"] is False
    assert data["lambda"] == [0.0, 0.0]

    code, data = run_json(capsys, ["check", "--code", "repetition3",
                                   "--errors", "X1"])
    assert code == 0
    assert data["detectable"] is True
    assert data["lambda"] == [0.0, 0.0]

    code, data = run_json(capsys, ["check", "--code", "repetition3",
                                   "--errors", "I"])
    assert code == 0
    assert data["lambda"] == [1.0, 0.0]


def test_check_full_words(capsys):
    code, data = run_json(capsys, ["check", "--code", "fivequbit",
                                   "--errors", "XZZXI"])
    assert code == 0  # a stabilizer is detectable with lambda 1
    assert data["lambda"] == [1.0, 0.0]


def test_check_error_sets(capsys):
    code, data = run_json(capsys, ["check", "--code", "repetition3",
                                   "--errors", "I,X1,X2,X3"])
    assert code == 0
    assert data["correctable"] is True
    assert data["rank"] == 4
    assert data["decoder"] == {"syndrome_dim": 4, "logical_dim": 2,
                               "recovery_ops": 4}

    code, data = run_json(capsys, ["check", "--code", "repetition3",
                                   "--errors", "I,X1,X2,X3,Z1"])
    assert code == 1
    assert data["correctable"] is False
    assert "decoder" not in data


def test_check_weight_spec(capsys):
    code, data = run_json(capsys, ["check", "--code", "fivequbit",
                                   "--errors", "weight1"])
    assert code == 0
    assert data["correctable"] is True
    assert data["rank"] == 16
    assert data["decoder"]["syndrome_dim"] == 16


def test_mindist_builtin(capsys):
    code, data = run_json(capsys, ["mindist", "--stabilizer", "fivequbit"])
    assert code == 0
    assert data == {"code": "fivequbit", "alphabet": "XYZ", "distance": 3}

    code, data = run_json(capsys, ["mindist", "--stabilizer", "repetition3"])
    assert code == 0
    assert data["distance"] == 1

    code, data = run_json(capsys, ["mindist", "--stabilizer", "repetition3",
                                   "--alphabet", "X"])
    assert data["distance"] == 3


def test_mindist_cap_exceeded_reports_null(capsys):
    code, data = run_json(capsys, ["mindist", "--stabilizer", "fivequbit",
                                   "--alphabet", "X", "--cap", "4"])
    assert code == 0
    assert data["distance"] is None
    assert data["exceeds_cap"] == 4


def test_mindist_from_file(capsys, tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("stabilizer:\nZZI\nZIZ\n")
    code, data = run_json(capsys, ["mindist", "--stabilizer", str(path)])
    assert code == 0
    assert data["code"] == "rep.txt"
    assert data["distance"] == 1


def test_mindist_header_less_file_builds_no_codespace(capsys, tmp_path, monkeypatch):
    import qecdesk.codes

    def refuse(stab):
        raise AssertionError("mindist built a codespace")

    monkeypatch.setattr(qecdesk.codes, "stabilizer_codespace", refuse)
    path = tmp_path / "rep12.txt"
    path.write_text("".join("I" * i + "ZZ" + "I" * (10 - i) + "\n" for i in range(11)))
    code, data = run_json(capsys, ["mindist", "--stabilizer", str(path)])
    assert code == 0
    assert data == {"code": "rep12.txt", "alphabet": "XYZ", "distance": 1}
    code, data = run_json(capsys, ["mindist", "--stabilizer", str(path),
                                   "--alphabet", "X"])
    assert code == 0
    assert data["distance"] is None and data["exceeds_cap"] == 5


def test_check_accepts_header_less_code_file(capsys, tmp_path):
    path = tmp_path / "five.txt"
    path.write_text("# five-qubit code\nXZZXI\nIXZZX\nXIXZZ\nZXIXZ\n")
    code, data = run_json(capsys, ["check", "--code", str(path), "--errors", "weight1"])
    assert code == 0
    assert data["code"] == "five.txt"
    assert data["correctable"] is True and data["rank"] == 16


def test_simulate_exact_repetition(capsys):
    code, data = run_json(capsys, [
        "simulate", "--code", "repetition3",
        "--channel", "independent n=3 bitflip p=0.25", "--input", "0",
    ])
    assert code == 0
    assert data["metrics"]["error"] == pytest.approx(0.15625, abs=1e-9)
    assert data["input"] == "|0>"
    rows = {(r["syndrome"], r["logical"]): r["p"] for r in data["outcomes"]}
    assert rows[("00", "ok")] == pytest.approx(27 / 64, abs=1e-9)


def test_simulate_monte_carlo_keys(capsys):
    code, data = run_json(capsys, [
        "simulate", "--code", "repetition3",
        "--channel", "independent n=3 bitflip p=0.25",
        "--input", "+", "--trials", "2000", "--seed", "11",
    ])
    assert code == 0
    assert data["seed"] == 11 and data["trials"] == 2000
    assert data["metrics"]["error"] <= 0.02  # |+> is protected


def test_simulate_fail_threshold_exit(capsys):
    argv = ["simulate", "--code", "cyclic7", "--channel", "gaussian7 K=20",
            "--input", "+"]
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["metrics"]["fail"] == pytest.approx(0.0103324238, abs=1e-9)
    code, _ = run(capsys, argv + ["--fail-threshold", "0.01"])
    assert code == 2


def test_simulate_corrected_code_path(capsys):
    code, data = run_json(capsys, [
        "simulate", "--code", "fivequbit",
        "--channel", "independent n=5 depolarizing p=0.1", "--input", "+",
    ])
    assert code == 0
    assert data["metrics"]["success"] == pytest.approx(0.9683825, abs=1e-9)
    # sampling is not available for the synthesized-decoder path
    code, _ = run(capsys, [
        "simulate", "--code", "fivequbit",
        "--channel", "independent n=5 depolarizing p=0.1",
        "--input", "+", "--trials", "100",
    ])
    assert code == USAGE_EXIT


def test_simulate_custom_input_vector(capsys):
    code, data = run_json(capsys, [
        "simulate", "--code", "repetition3",
        "--channel", "independent n=3 bitflip p=0.1",
        "--input", "[0.6, 0.8]",
    ])
    assert code == 0
    assert data["metrics"]["success"] >= 0.9


def test_twirl_output(capsys):
    code, data = run_json(capsys, ["twirl", "--channel", "depolarizing p=0.2"])
    assert code == 0
    assert data["probs"]["I"] == pytest.approx(0.85, abs=1e-9)
    assert data["depolarizing_p"] == pytest.approx(0.2, abs=1e-9)

    # the shadow is only defined one qubit at a time
    code, out = run(capsys, ["twirl", "--channel",
                             "collective vx=0.0 vy=0.0 vz=0.0"])
    assert code == USAGE_EXIT
    assert out == ""


def test_noiseless_verdict(capsys):
    code, data = run_json(capsys, ["noiseless", "--rotations", "10"])
    assert code == 0
    assert min(data["overlaps"]) >= 1 - 1e-8
    assert data["max_rotation_leakage"] <= 1e-8
    assert data["max_logical_block_deviation"] <= 1e-8


def test_concat_exit_codes(capsys):
    code, data = run_json(capsys, ["concat", "--p", "1e-3", "--C", "100"])
    assert code == 0
    assert data["improving"] is True
    assert data["levels"] == pytest.approx([1e-3, 1e-4, 1e-6, 1e-10], rel=1e-9)

    code, data = run_json(capsys, ["concat", "--p", "1/100", "--C", "100"])
    assert code == 1
    assert data["improving"] is False

    code, data = run_json(capsys, ["concat", "--p", "0.02", "--C", "100",
                                   "--levels", "3"])
    assert code == 1


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == USAGE_EXIT
    with pytest.raises(SystemExit) as exc:
        main(["check", "--code", "repetition3"])  # missing --errors
    assert exc.value.code == USAGE_EXIT
    with pytest.raises(SystemExit) as exc:
        main(["demo", "not-a-demo"])
    assert exc.value.code == USAGE_EXIT
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == USAGE_EXIT
    with pytest.raises(SystemExit) as exc:
        main(["concat", "--p", "1e-3", "--C", "100", "--json"])  # flag removed
    assert exc.value.code == USAGE_EXIT
    capsys.readouterr()
    negatives = (
        ("--rotations", ["noiseless", "--rotations", "-3"]),
        ("--seed", ["noiseless", "--seed", "-1"]),
        ("--cap", ["mindist", "--stabilizer", "fivequbit", "--cap", "-1"]),
        ("--trials", ["simulate", "--code", "repetition3", "--channel",
                      "bitflip p=0.1", "--trials", "-5"]),
        ("--seed", ["simulate", "--code", "repetition3", "--channel",
                    "bitflip p=0.1", "--trials", "5", "--seed", "-1"]),
        ("--rotations", ["noiseless", "--rotations", "2.5"]),
    )
    for flag, argv in negatives:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
    # Pauli error specs on a code that is not made of qubits, and a
    # negative weight
    for code, spec in (("cyclic7", "weight1"), ("cyclic7", "I"),
                       ("repetition3", "weight-1"), ("repetition3", "weightx")):
        assert main(["check", "--code", code, "--errors", spec]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--errors" in captured.err
        if code == "cyclic7":
            assert "'cyclic7'" in captured.err and "[7]" in captured.err


def test_domain_errors_exit_64(capsys):
    assert main(["check", "--code", "nosuchcode", "--errors", "Z1"]) == USAGE_EXIT
    assert main(["simulate", "--code", "repetition3",
                 "--channel", "wat p=1"]) == USAGE_EXIT
    assert main(["twirl", "--channel", "depolarizing p=2.0"]) == USAGE_EXIT
    assert main(["concat", "--p", "0.5", "--C", "10", "--levels", "0"]) == USAGE_EXIT
    capsys.readouterr()


def test_non_finite_numbers_are_refused(capsys):
    assert main(["simulate", "--code", "repetition3",
                 "--channel", "independent n=3 bitflip p=0.25",
                 "--input", "[NaN, 1]"]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--input" in captured.err
    for bad in ("nan", "inf", "-Infinity"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--code", "repetition3",
                  "--channel", "independent n=3 bitflip p=0.25",
                  "--fail-threshold", bad])
        assert exc.value.code == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--fail-threshold" in captured.err
    for key, bad in (("vx", "nan"), ("vy", "inf"), ("vz", "-inf")):
        spec = {"vx": "0.1", "vy": "0.2", "vz": "0.3", key: bad}
        text = "collective " + " ".join(f"{k}={v}" for k, v in spec.items())
        assert main(["simulate", "--code", "repetition3", "--channel", text]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key}=" in captured.err and bad in captured.err
    for bad in ("nan", "abc"):
        assert main(["twirl", "--channel", f"depolarizing p={bad}"]) == USAGE_EXIT
        assert f"p=, got '{bad}'" in capsys.readouterr().err


def test_json_output_has_no_negative_zero(capsys):
    rounded = _round({"a": [-0.0, -1e-12, 0.0], "b": -0.0, "c": -0.25})
    assert json.dumps(rounded) == '{"a": [0.0, 0.0, 0.0], "b": 0.0, "c": -0.25}'
    assert main(["check", "--code", "threespin", "--errors", "weight1"]) == 1
    entries = json.loads(capsys.readouterr().out)["lambda_matrix"]
    flat = [x for row in entries for pair in row for x in pair]
    assert 0.0 in flat
    assert all(math.copysign(1.0, x) == 1.0 for x in flat if x == 0.0)


def test_missing_channel_key_names_key_and_grammar(capsys):
    assert main(["twirl", "--channel", "depolarizing"]) == USAGE_EXIT
    assert "depolarizing needs p=<value>" in capsys.readouterr().err
    assert main(["twirl", "--channel", "collective vx=0.1 vz=0.3"]) == USAGE_EXIT
    err = capsys.readouterr().err
    assert "collective needs vy=<value>" in err
    assert "collective vx=<value> vy=<value> vz=<value>" in err


def test_check_rejects_bad_code_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("basis:\nnot json at all\n")
    assert main(["check", "--code", str(path), "--errors", "Z1"]) == USAGE_EXIT
    capsys.readouterr()


def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run(capsys, ["mindist", "--stabilizer", "fivequbit",
                             "--out", str(path)])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["distance"] == 3


def test_table_output_is_plain_text(capsys):
    code, out = run(capsys, ["simulate", "--code", "repetition3",
                             "--channel", "independent n=3 bitflip p=0.25",
                             "--input", "0", "--table"])
    assert code == 0
    assert "outcomes:" in out
    assert "metrics:" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_demos_run_clean(capsys):
    for name in DEMO_NAMES:
        code, out = run(capsys, ["demo", name])
        assert code == 0, name
        json.loads(out)


def test_demo_outputs_match_goldens(capsys, tmp_path):
    for name in DEMO_NAMES:
        golden = os.path.join(GOLDEN_DIR, f"demo_{name}.json")
        fresh = tmp_path / f"{name}.json"
        code = main(["demo", name, "--out", str(fresh)])
        assert code == 0
        with open(golden, "rb") as fh:
            want = fh.read()
        assert fresh.read_bytes() == want, name
    capsys.readouterr()
