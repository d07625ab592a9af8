"""Command line: exit codes, JSON output, golden demo transcripts."""

import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tracemalloc

from fractions import Fraction

import pytest

from qecdesk.cli import DEMO_NAMES, USAGE_EXIT, _round, build_parser, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


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


def test_check_phased_word_needs_the_equals_form(capsys):
    # after a space argparse reads the leading '-' as an option
    with pytest.raises(SystemExit) as exc:
        main(["check", "--code", "fivequbit", "--errors", "-iXZZXI"])
    assert exc.value.code == USAGE_EXIT
    assert "--errors" in capsys.readouterr().err
    code, data = run_json(capsys, ["check", "--code", "fivequbit", "--errors=-iXZZXI"])
    assert code == 0
    assert data["detectable"] is True
    assert data["lambda"] == [0.0, -1.0]


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

    # a code given only by its codespace has no generators to search
    assert main(["mindist", "--stabilizer", "cyclic7"]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has no stabilizer generators" in captured.err


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


def test_mindist_past_the_int64_width(capsys, tmp_path):
    # 70 qubits, 69 ZZ generators: every word is wider than an int64 mask
    from qecdesk.gf2_symplectic import PauliProduct, StabilizerGeneratorSet

    gens = ["I" * j + "ZZ" + "I" * (68 - j) for j in range(69)]
    path = tmp_path / "rep70.txt"
    path.write_text("".join(g + "\n" for g in gens))
    code, data = run_json(capsys, ["mindist", "--stabilizer", str(path)])
    assert (code, data["distance"]) == (0, 1)
    code, data = run_json(capsys, ["mindist", "--stabilizer", str(path),
                                   "--alphabet", "X", "--cap", "2"])
    assert (code, data["distance"], data["exceeds_cap"]) == (0, None, 2)
    stab = StabilizerGeneratorSet.from_strings(gens)
    word = PauliProduct.from_string
    assert stab.rank() == 69
    assert stab.contains(word("Z" + "I" * 68 + "Z"))
    assert not stab.contains(word("Z" + "I" * 69))
    assert stab.in_centralizer(word("Z" + "I" * 69))
    assert stab.in_centralizer(word("X" * 70)) and not stab.contains(word("X" * 70))
    assert not stab.in_centralizer(word("I" * 69 + "X"))


def test_inconsistent_generators_are_refused_by_every_command(capsys, tmp_path):
    # XXI ZZI = -YYI, so the group holds -I and no code state exists
    path = tmp_path / "bad.txt"
    path.write_text("XXI\nZZI\nYYI\n")
    for argv in (["mindist", "--stabilizer", str(path)],
                 ["check", "--code", str(path), "--errors", "weight1"],
                 ["simulate", "--code", str(path), "--channel", "bitflip p=0.1"]):
        assert main(argv) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("qecdesk: error: generators XXI, ZZI, YYI multiply to -I: "
                                "they stabilize no state\n")


def test_codespace_is_built_once_on_first_read(capsys, monkeypatch):
    import qecdesk.codes

    calls = []
    build = qecdesk.codes.stabilizer_codespace

    def counted(stab):
        calls.append(stab)
        return build(stab)

    monkeypatch.setattr(qecdesk.codes, "stabilizer_codespace", counted)
    code, data = run_json(capsys, ["mindist", "--stabilizer", "fivequbit"])
    assert (code, data["distance"], calls) == (0, 3, [])
    definition = qecdesk.codes.parse_code_text("\n".join(qecdesk.codes.FIVE_QUBIT_GENERATORS))
    assert calls == []
    assert all(definition.subspace is definition.subspace for _ in range(3))
    assert calls == [definition.stabilizers] and definition.subspace.dim == 2


def test_simulate_refuses_a_bad_code_before_a_bad_channel(capsys, tmp_path):
    path = tmp_path / "rep12.txt"
    path.write_text("".join("I" * i + "ZZ" + "I" * (10 - i) + "\n" for i in range(11)))
    assert main(["simulate", "--code", str(path), "--channel", "bogus"]) == USAGE_EXIT
    assert capsys.readouterr().err == ("qecdesk: error: 12-qubit codespace: dimension 4096 "
                                       "exceeds cap MAX_TOTAL_DIM=1024\n")


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
    assert "logical_rho" not in data  # a sampled run draws outcomes, not states


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
    code, sampled = run_json(capsys, [
        "simulate", "--code", "fivequbit",
        "--channel", "independent n=5 depolarizing p=0.1",
        "--input", "+", "--trials", "100000", "--seed", "7",
    ])
    assert code == 0
    assert sampled["seed"] == 7 and sampled["trials"] == 100000
    rows = {(r["syndrome"], r["logical"]): r["p"] for r in sampled["outcomes"]}
    assert len(rows) == len(data["outcomes"])
    for r in data["outcomes"]:
        p = r["p"]
        sigma = math.sqrt(max(p * (1 - p), 1e-30) / 100000)
        assert abs(rows[(r["syndrome"], r["logical"])] - p) < 5 * sigma + 1e-9, r


def test_simulate_custom_input_vector(capsys):
    code, data = run_json(capsys, [
        "simulate", "--code", "repetition3",
        "--channel", "independent n=3 bitflip p=0.1",
        "--input", "[0.6, 0.8]",
    ])
    assert code == 0
    assert data["metrics"]["success"] >= 0.9
    # syndrome 00 with no flip, or all three flipped (X on the logical state):
    # 0.729 + 0.001 x with x = <psi|X|psi>^2
    for token, ok_mass in (("-", 0.73), ("[[1,0],[0,1]]", 0.729)):  # |0>-|1>, |0>+i|1>
        code, data = run_json(capsys, [
            "simulate", "--code", "repetition3",
            "--channel", "independent n=3 bitflip p=0.1", "--input", token,
        ])
        assert code == 0
        rows = {(r["syndrome"], r["logical"]): r["p"] for r in data["outcomes"]}
        assert rows[("00", "ok")] == pytest.approx(ok_mass, abs=1e-9), token
        assert rows[("00", "err")] == pytest.approx(0.73 - ok_mass, abs=1e-9), token


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


def test_table_output_prints_numpy_floats_as_floats(capsys):
    # round() of an np.float64 stays an np.float64, whose repr names its type
    for argv in (["noiseless", "--rotations", "1"], ["demo", "three-spin"]):
        code, out = run(capsys, argv + ["--table"])
        assert code == 0
        assert "overlaps = [1.0, " in out and "np.float64" not in out


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
    # --p and --C parse exactly, as decimals or as fractions
    for p, c in (("1e-3", "100"), ("1/1000", "1e2"), ("0.001", "200/2")):
        args = build_parser().parse_args(["concat", "--p", p, "--C", c])
        assert (args.p, args.C) == (Fraction(1, 1000), Fraction(100))


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
        ("--p", ["concat", "--p", "nan", "--C", "100"]),
        ("--p", ["concat", "--p", "1/0", "--C", "100"]),
        ("--C", ["concat", "--p", "1e-3", "--C", "inf"]),
        ("--C", ["concat", "--p", "1e-3", "--C", "-Infinity"]),
        # numpy's Philox key is below 2**128
        ("--seed", ["noiseless", "--seed", str(2 ** 128)]),
        ("--seed", ["simulate", "--code", "repetition3", "--channel",
                    "bitflip p=0.1", "--trials", "5", "--seed", str(2 ** 128)]),
    )
    for flag, argv in negatives:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err
    # Pauli error specs on a code that is not made of qubits, a negative
    # weight, empty entries and a word that does not parse
    for code, spec in (("cyclic7", "weight1"), ("cyclic7", "I"),
                       ("repetition3", "weight-1"), ("repetition3", "weightx"),
                       ("fivequbit", "X1,"), ("fivequbit", "X1,,Z2"), ("fivequbit", " "),
                       ("fivequbit", "Q1")):
        assert main(["check", "--code", code, "--errors", spec]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--errors" in captured.err
        if code == "cyclic7":
            assert "'cyclic7'" in captured.err and "[7]" in captured.err
    # a product past the dense dimension cap is refused before it is built
    assert main(["simulate", "--code", "repetition3", "--channel",
                 "independent n=11 bitflip p=0.1"]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2048" in captured.err and "MAX_TOTAL_DIM=1024" in captured.err


def test_errors_use_one_based_qubit_labels(capsys):
    for spec in ("X0", "Z4", "X1,Y0"):
        assert main(["check", "--code", "repetition3", "--errors", spec]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qubits are numbered 1..3" in captured.err
        assert "index" not in captured.err
    code, data = run_json(capsys, ["check", "--code", "repetition3", "--errors", "X3"])
    assert code == 0 and data["detectable"] is True
    # a superscript is a digit but not a decimal: the token is a bad word
    assert main(["check", "--code", "repetition3", "--errors", "X\u00b2"]) == USAGE_EXIT
    assert "bad Pauli word" in capsys.readouterr().err


def test_domain_errors_exit_64(capsys):
    assert main(["check", "--code", "nosuchcode", "--errors", "Z1"]) == USAGE_EXIT
    assert main(["simulate", "--code", "repetition3",
                 "--channel", "wat p=1"]) == USAGE_EXIT
    assert main(["twirl", "--channel", "depolarizing p=2.0"]) == USAGE_EXIT
    assert main(["concat", "--p", "0.5", "--C", "10", "--levels", "0"]) == USAGE_EXIT
    capsys.readouterr()


def test_simulate_refuses_codes_without_a_weight1_decoder(capsys, tmp_path):
    """A code file with no identification is decoded for every weight-1
    Pauli error; a qudit code, or one that cannot correct them, is refused
    by name and reason."""
    for name, text, why in (
        ("qutrit.txt", "basis:\n[[1,0],[0,0],[0,0]]\n[[0,0],[1,0],[0,0]]\n", "not qubits"),
        ("zz3.txt", "ZZI\nIZZ\n", "cannot correct every weight-1 Pauli error"),
        ("zz2.txt", "ZZ\n", "cannot correct every weight-1 Pauli error"),
    ):
        path = tmp_path / name
        path.write_text(text)
        for trials in ("0", "100"):
            assert main(["simulate", "--code", str(path), "--channel", "bitflip p=0.1",
                         "--trials", trials]) == USAGE_EXIT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"'{name}'" in captured.err and why in captured.err, captured.err


def test_mismatched_dims_name_both_sides(capsys):
    assert main(["simulate", "--code", "repetition3",
                 "--channel", "depolarizing p=0.1"]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "channel dims (2,) do not match the code's (2, 2, 2)" in captured.err


def test_table_output_shows_the_rounded_json_values(capsys):
    # 4 * 0.3 / 4 / 3 is 0.07499999999999998 in floats; JSON and table round once
    code, data = run_json(capsys, ["twirl", "--channel", "depolarizing p=0.3"])
    assert data["probs"]["X"] == 0.075
    code, out = run(capsys, ["twirl", "--channel", "depolarizing p=0.3", "--table"])
    assert code == 0
    assert "  X = 0.075\n" in out and "depolarizing_p = 0.3\n" in out


def test_concat_levels_past_the_bit_cap_exit_64(capsys):
    for levels in ("20", "30", "1000000000"):
        assert main(["concat", "--p", "1e-3", "--C", "100",
                     "--levels", levels]) == USAGE_EXIT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_CONCAT_BITS" in captured.err


def test_bad_input_tokens_name_the_flag(capsys):
    # not JSON, a superscript digit (str.isdigit admits it), indices past the
    # dimension, and lists of the wrong length
    for token in ("foo", "²", "2", "-1", "[1,0,0]", "[]"):
        assert main(["simulate", "--code", "repetition3",
                     "--channel", "independent n=3 bitflip p=0.25",
                     f"--input={token}"]) == USAGE_EXIT, token
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--input {token} for a code of dimension 2" in captured.err


def test_boolean_input_amplitudes_are_refused(capsys):
    # numpy read true and false as 1.0 and 0.0, so both ran as |0>
    for token in ("[true, false]", "[[true, 0], [false, 0]]"):
        assert main(["simulate", "--code", "repetition3",
                     "--channel", "independent n=3 bitflip p=0.25",
                     f"--input={token}"]) == USAGE_EXIT, token
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--input {token} for a code of dimension 2" in captured.err
        assert "not true or false" in captured.err


def test_non_finite_numbers_are_refused(capsys):
    assert main(["simulate", "--code", "repetition3",
                 "--channel", "independent n=3 bitflip p=0.25",
                 "--input", "[NaN, 1]"]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--input" in captured.err
    for bad in ("nan", "inf", "-Infinity", "-0.5"):
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
    # unknown and repeated keys, and counts that are not whole numbers
    for spec, word in (("depolarizing p=0.1 q=3", "q="), ("bitflip p=0.1 p=0.2", "p= twice"),
                       ("gaussian7 K=abc", "K="), ("gaussian7 K=2.5", "K="),
                       ("independent n=abc bitflip p=0.1", "n=")):
        assert main(["twirl", "--channel", spec]) == USAGE_EXIT, spec
        captured = capsys.readouterr()
        assert captured.out == "" and word in captured.err and "grammar:" in captured.err, spec


def test_huge_spec_products_are_refused_before_allocation():
    """Under a 2 GB address-space limit the refusal comes before any list is built."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

    for argv, cap in (
        (["simulate", "--code", "repetition3", "--channel",
          "independent n=1000000000 bitflip p=0.1"], "MAX_KRAUS_OPS"),
        # 1,024 operators of 1,024 x 1,024 pass both counts but are 16 GiB
        (["simulate", "--code", "repetition3", "--channel",
          "independent n=10 bitflip p=0.1"], "MAX_KRAUS_BYTES=1073741824"),
        (["twirl", "--channel", "gaussian7 K=100000000"], "MAX_KRAUS_OPS"),
    ):
        done = subprocess.run([sys.executable, "-m", "qecdesk.cli", *argv], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=60)
        assert done.returncode == USAGE_EXIT, (argv, done.stderr)
        assert done.stdout == "" and cap in done.stderr and "Traceback" not in done.stderr


REPETITION10 = "".join("I" * j + "ZZ" + "I" * (8 - j) + "\n" for j in range(9))


def test_oversized_words_and_error_sets_are_refused_before_allocation(tmp_path):
    """Under a 2 GB address-space limit: a 20-qubit word on a 3-qubit code
    (a dense 2^20 x 2^20 matrix) and weight5 on a 10-qubit code (81,922
    words, a Gram matrix past 1 TB) are refused by arithmetic."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "repetition10.txt"
    path.write_text(REPETITION10)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

    for argv, messages in (
        (["check", "--code", "repetition3", "--errors", "X" * 20],
         ["has shape (1048576, 1048576), but the code needs (8, 8)"]),
        (["check", "--code", str(path), "--errors", "weight5"],
         ["81922 errors on this code: byte count", "MAX_KRAUS_BYTES=1073741824"]),
    ):
        done = subprocess.run([sys.executable, "-m", "qecdesk.cli", *argv], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=60)
        assert done.returncode == USAGE_EXIT, (argv, done.stderr)
        assert done.stdout == "" and "Traceback" not in done.stderr
        assert all(m in done.stderr for m in messages), done.stderr


def test_weight1_check_on_a_ten_qubit_code_stays_small(tmp_path):
    """Peak RSS of `check --errors weight1` on a 10-qubit file, read from a
    fresh process's RUSAGE_CHILDREN so no other child's peak counts.  The
    1024 x 1024 projector alone would be 16 MiB; its build peaked at 80 MiB."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    path = tmp_path / "repetition10.txt"
    path.write_text(REPETITION10)
    probe = ("import resource, subprocess, sys\n"
             "done = subprocess.run([sys.executable, '-m', 'qecdesk.cli', 'check', '--code',"
             " sys.argv[1], '--errors', 'weight1'], capture_output=True)\n"
             "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    done = subprocess.run([sys.executable, "-c", probe, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    code, peak_kib = map(int, done.stdout.split())
    assert code == 1, done.stderr  # single Z errors are logical
    assert peak_kib < 48 * 1024, peak_kib


def test_weight2_on_a_ten_qubit_code_is_admitted(tmp_path):
    from qecdesk.analysis import correctable_quantum
    from qecdesk.cli import _load_code, _parse_errors

    path = tmp_path / "repetition10.txt"
    path.write_text(REPETITION10)
    definition = _load_code(str(path))
    errors = _parse_errors("weight2", definition)
    assert len(errors) == 1 + 30 + 405
    verdict = correctable_quantum(definition.subspace, errors)
    assert verdict.lambda_matrix.shape == (436, 436)
    assert not verdict.correctable  # single Z errors are logical


def test_check_rejects_bad_code_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("basis:\nnot json at all\n")
    assert main(["check", "--code", str(path), "--errors", "Z1"]) == USAGE_EXIT
    capsys.readouterr()


def test_bad_code_file_amplitudes_name_the_vector(capsys, tmp_path):
    # a JSON object and an amplitude past float range: before, a TypeError
    # traceback and NaN reaching the JSON output; a single amplitude gave
    # "invalid subsystem dimensions ()"
    path = tmp_path / "bad.txt"
    for line, why in (("[[1, 0]]", "at least two amplitudes per vector"),
                      ("[1, 0, 0]", "all vectors of the same length"),
                      ('{"a": 1}', "[re, im] number pairs"),
                      ("[[1e400,0],[0,0]]", "finite"),
                      ("[[true,0],[0,0]]", "not true or false"),
                      ("[1, false]", "not true or false")):
        path.write_text(f"basis:\n[[0,0],[1,0]]\n{line}\n")
        assert main(["check", "--code", str(path), "--errors", "I"]) == USAGE_EXIT, line
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "basis vector 2" in captured.err and line in captured.err and why in captured.err
    # a list of real amplitudes is a vector, as it is for --input: [1, 0] is |0>
    for line in ("[1, 0]", "[1.0, -0]"):
        path.write_text(f"basis:\n[[0,0],[1,0]]\n{line}\n")
        assert main(["check", "--code", str(path), "--errors", "I"]) == 0, line
        assert json.loads(capsys.readouterr().out)["detectable"] is True


def test_cli_builds_no_recovery_channel(capsys, monkeypatch):
    """check, simulate (exact and sampled) and the five-qubit demo decode with
    the isometry alone, and each runs the Knill-Laflamme kernel once."""
    import qecdesk.analysis

    def refuse(*args):
        raise AssertionError("synthesize_decoder called")

    kernel = qecdesk.analysis._kl_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(qecdesk.analysis, "synthesize_decoder", refuse)
    monkeypatch.setattr(qecdesk.analysis, "_kl_kernel", counted)
    code, data = run_json(capsys, ["check", "--code", "fivequbit", "--errors", "weight1"])
    assert code == 0
    assert data["decoder"] == {"syndrome_dim": 16, "logical_dim": 2, "recovery_ops": 16}
    assert len(calls) == 1
    # three syndrome blocks of two fill 6 of 32 dimensions: a fourth operator
    # takes the rest of the space
    code, data = run_json(capsys, ["check", "--code", "fivequbit", "--errors", "I,Z1,Z2"])
    assert data["decoder"] == {"syndrome_dim": 3, "logical_dim": 2, "recovery_ops": 4}
    assert len(calls) == 2
    code, data = run_json(capsys, ["simulate", "--code", "fivequbit", "--channel",
                                   "independent n=5 bitflip p=0.2", "--input", "1"])
    assert code == 0 and len(calls) == 3
    code, _ = run(capsys, ["demo", "five-qubit"])
    assert code == 0 and len(calls) == 4
    code, data = run_json(capsys, ["simulate", "--code", "fivequbit", "--channel",
                                   "independent n=5 bitflip p=0.2", "--input", "1",
                                   "--trials", "1000", "--seed", "3"])
    assert code == 0 and data["trials"] == 1000 and len(calls) == 5


def test_check_decoder_block_needs_no_decoder(capsys, monkeypatch):
    import qecdesk.analysis

    def refuse(*args):
        raise AssertionError("check built the decoder")

    monkeypatch.setattr(qecdesk.analysis, "decoder_identification", refuse)
    code, data = run_json(capsys, ["check", "--code", "fivequbit", "--errors", "weight1"])
    assert code == 0
    assert data["decoder"] == {"syndrome_dim": 16, "logical_dim": 2, "recovery_ops": 16}


STEANE7 = "IIIXXXX\nIXXIIXX\nXIXIXIX\nIIIZZZZ\nIZZIIZZ\nZIZIZIZ\n"
SHOR9 = ("ZZIIIIIII\nIZZIIIIII\nIIIZZIIII\nIIIIZZIII\nIIIIIIZZI\nIIIIIIIZZ\n"
         "XXXXXXIII\nIIIXXXXXX\n")


def test_check_decoder_block_is_the_decoder_identifications(monkeypatch, tmp_path):
    """The block read off lambda's rank and the code equals the one of
    decoder_identification's W on every correctable set: weightN from 0 up
    to the first set that is not correctable (each larger weight holds that
    set, so it is not correctable either, and prints no block), and three
    explicit sets, one of them with a repeated error."""
    import qecdesk.analysis
    import qecdesk.cli

    kernel = qecdesk.analysis.correctable_quantum
    verdicts = []
    payload = {}
    monkeypatch.setattr(qecdesk.analysis, "correctable_quantum",
                        lambda code, errors: verdicts.append(kernel(code, errors)) or verdicts[-1])
    monkeypatch.setattr(qecdesk.cli, "_emit", lambda out, args: payload.update(out))
    specs = ["repetition3", "cyclic7", "threespin", "fivequbit", "trivial2"]
    for name, text in (("steane7.txt", STEANE7), ("shor9.txt", SHOR9),
                       ("repetition10.txt", REPETITION10)):
        (tmp_path / name).write_text(text)
        specs.append(str(tmp_path / name))

    def compare(code_spec, errors) -> int:
        payload.clear()
        verdicts.clear()
        exit_code = main(["check", "--code", code_spec, "--errors", errors])
        if exit_code == 0:
            ident = qecdesk.analysis.decoder_identification(
                qecdesk.cli._load_code(code_spec).subspace, verdicts[-1])
            assert payload["decoder"] == {
                "syndrome_dim": ident.syndrome_dim, "logical_dim": ident.logical_dim,
                "recovery_ops": ident.syndrome_dim + (not ident.is_complete())}, (code_spec, errors)
        else:
            assert "decoder" not in payload
        return exit_code

    blocks = 0
    for code_spec in specs:
        for w in range(11):
            exit_code = compare(code_spec, f"weight{w}")
            blocks += exit_code == 0
            if exit_code != 0:
                break
        for errors in ("X1,X2", "X1,X1", "I,X1,Z1"):
            blocks += compare(code_spec, errors) == 0
    assert blocks == 27  # the correctable sets, each compared once


@pytest.mark.parametrize("seed", [0, 7])
def test_noiseless_stacks_match_the_per_rotation_loop(monkeypatch, seed):
    """The maxima over stacks of rotations are the per-rotation channel
    loop's, exactly, at and around the stack size."""
    from oracles import rotation_loop
    from qecdesk.analysis import build_noiseless_qubit
    import qecdesk.cli

    payload = {}
    monkeypatch.setattr(qecdesk.cli, "_emit", lambda out, args: payload.update(out))
    wb = build_noiseless_qubit().isometry.matrix
    for rotations in (0, 1, 63, 64, 65, 129, 1025):
        assert main(["noiseless", "--rotations", str(rotations), "--seed", str(seed)]) == 0
        assert (payload["max_rotation_leakage"], payload["max_logical_block_deviation"]) \
            == rotation_loop(wb, rotations, seed), rotations


def test_noiseless_memory_is_one_stack_of_rotations(capsys):
    """20,000 rotations take the memory of one stack, not of their count."""
    assert main(["noiseless", "--rotations", "100"]) == 0  # imports and cached spins
    tracemalloc.start()
    try:
        assert main(["noiseless", "--rotations", "20000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 2 ** 20, peak


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


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def readme_commands():
    """Every `qecdesk ...` line of the README's command-line example block."""
    with open(README) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("qecdesk ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert ["simulate", "--code", "fivequbit", "--channel",
            "independent n=5 depolarizing p=0.1", "--input", "+",
            "--trials", "100000", "--seed", "7"] in commands
    for argv in commands:
        code, out = run(capsys, argv)
        assert code in (0, 1), argv
        json.loads(out)
