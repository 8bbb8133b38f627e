"""Command-line interface: output contracts and exit codes."""

import decimal
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import permfunc
from permfunc import characters
from permfunc.cli import main
from permfunc.errors import CapacityError
from permfunc.gaussian import GaussianRational
from permfunc.groups import SymmetricGroup, enumerate_group
from permfunc.matrices import BlockSpec
from support import refuse_membership


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REF = ["--theta", "(1 5 3)(2 6)", "--tau", "(2 4 6)", "--n", "6"]


def test_det_reference(capsys):
    code, out, _ = run(capsys, "det", "--a", "2", "--b", "-1i", *REF)
    assert code == 0
    assert out.strip() == "-85+30i"


@pytest.mark.parametrize("method", ["closed", "formula", "cauchy-binet", "naive"])
def test_det_all_methods_agree(capsys, method):
    code, out, _ = run(capsys, "det", "--a", "2", "--b", "-1i", "--method", method, *REF)
    assert code == 0
    assert out.strip() == "-85+30i"


def test_xset_reference(capsys):
    code, out, _ = run(capsys, "xset", *REF)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert set(lines) == {"(1 5 3)(2 6)", "(2 4 6)", "(2 6)", "(1 5 3)(2 4 6)"}
    assert lines[0] == "(1 5 3)(2 6)"  # no cycles chosen
    assert lines[-1] == "(2 4 6)"  # all cycles chosen


def test_gmf_subgroup(capsys):
    code, out, _ = run(
        capsys, "gmf", "--a", "1", "--b", "2", *REF,
        "--group", "stab:1,3,5@6", "--character", "trivial",
    )
    assert code == 0
    assert out.strip() == "120"


def test_gmf_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "gmf", "--a", "2", "--b", "-1i", *REF,
        "--group", "S6", "--character", "sign", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "formula"
    assert payload["terms"] == 4
    assert GaussianRational.from_json(payload["value"]) == GaussianRational.parse("-85+30i")


def test_per_command(capsys):
    code, out, _ = run(capsys, "per", "--a", "1", "--b", "1", "--theta", "id",
                       "--tau", "(1 2 3)", "--n", "3")
    assert code == 0
    assert out.strip() == "2"


def test_block_gmf(tmp_path, capsys):
    spec = {
        "m": 4,
        "n": 2,
        "theta": "id",
        "tau": "(1 2)",
        "inner_thetas": ["(1 4 3)", "(1 4)(2 3)"],
        "inner_taus": ["(1 3 2)", "id"],
        "a": ["-1i", "2"],
        "b": ["-2", "3"],
    }
    path = tmp_path / "block.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "block-gmf", "--spec", str(path), "--character", "trivial")
    assert code == 0
    assert out.strip() == "448+1536i"
    code, out, _ = run(capsys, "block-gmf", "--spec", str(path), "--character", "sign")
    assert out.strip() == "448-1536i"
    # spec JSON mirrors its fields and round-trips through the library type
    assert BlockSpec.from_json(spec).to_json()["tau"] == "(1 2)"


def test_s_det(capsys):
    code, out, _ = run(capsys, "s-det", "--theta", "(1 2 3 4 5 6)", "--n", "6")
    assert code == 0
    assert out.strip() == "-4"


def test_psd_output(capsys):
    code, out, _ = run(capsys, "psd", "--a", "1", "--b", "1", "--theta", "id",
                       "--tau", "(1 2)", "--n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"psd": True, "k": "1", "m": "1", "pi": "(1 2)", "condition": 2}
    code, out, _ = run(capsys, "psd", "--a", "1", "--b", "2", "--theta", "id",
                       "--tau", "(1 2)", "--n", "2")
    assert code == 0
    assert out.strip() == "not PSD"


def test_singvals(capsys):
    code, out, _ = run(capsys, "singvals", "--a", "1", "--b", "1", "--theta", "id",
                       "--tau", "(1 2)", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["values"] == [2.0, 0.0]


def test_dominance(capsys):
    code, out, _ = run(capsys, "dominance", "--k", "1", "--m", "1", "--pi", "(1 2)",
                       "--n", "2", "--character", "sign", "--json")
    assert code == 0
    assert json.loads(out) == {"lhs": "0", "rhs": "2", "holds": True}


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "--a", "2", "--b", "-1i", *REF,
                       "--group", "S6", "--character", "sign", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["lhs"] == pytest.approx(8125.0)


@pytest.mark.parametrize(
    "argv, name",
    [
        # |value|^2 = (10^160 - 1)^2, past the float range
        (["bound", "--n", "8", "--theta", "id", "--tau", "(1 2 3 4 5 6 7 8)",
          "--a", "1" + "0" * 20, "--b", "1", "--group", "S8", "--character", "sign"], "|value|^2"),
        (["singvals", "--n", "2", "--theta", "id", "--tau", "(1 2)",
          "--a", "1" + "0" * 400, "--b", "1"], "|a|^2 + |b|^2"),
        # |a|^2 + |b|^2 fits, |a + b|^2 does not
        (["singvals", "--n", "2", "--theta", "id", "--tau", "(1 2)",
          "--a", "9" + "0" * 153, "--b", "9" + "0" * 153], "a squared singular value"),
    ],
    ids=["bound", "singvals", "singvals-sum"],
)
def test_float_reports_past_the_float_range_exit_three(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name} lies outside the float range")


def test_standard_character_at_large_degree(capsys):
    # the border-strip recursion takes no level for a fixed point: 598 of them
    # at n = 600, 1098 at n = 1100
    n = 600
    code, out, _ = run(capsys, "gmf", "--n", str(n), "--theta", "id", "--tau", "(1 2)",
                       "--group", f"S{n}", "--character", f"irr:[{n - 1},1]")
    # the fixed points give 2^598 * (chi(id) + chi((1 2))) = 2^598 * (599 + 597)
    assert code == 0 and int(out) == 2**598 * (599 + 597)
    code, out, _ = run(capsys, "dominance", "--n", "1100", "--k", "2", "--m", "1",
                       "--pi", "(1 2)", "--character", "irr:[1099,1]", "--json")
    assert code == 0 and json.loads(out)["holds"] is True


@pytest.mark.parametrize("count", [400, 500])
def test_class_past_the_recursion_depth_exits_three(capsys, count):
    # theta = tau = pi, pi a product of transpositions: the one mixture is
    # pi, weighed (a+b)^n = 2^1000 and chi(pi) = fix(pi) - 1
    pi = "".join(f"({2 * k - 1} {2 * k})" for k in range(1, count + 1))
    code, out, err = run(capsys, "gmf", "--n", "1000", "--theta", pi, "--tau", pi,
                         "--group", "S1000", "--character", "irr:[999,1]")
    if count <= characters._MN_MAX_DEPTH:
        assert code == 0 and int(out) == 2**1000 * (1000 - 2 * count - 1)
    else:
        assert code == 3 and out == ""
        assert err.startswith(f"error: the class of cycle type 2^{count} has {count} cycles")


def test_tensor_check_match(capsys):
    code, out, _ = run(capsys, "tensor-check", "--a", "1", "--b", "1", "--theta", "id",
                       "--tau", "(1 2 3)", "--n", "3", "--group", "S3",
                       "--character", "trivial")
    assert code == 0
    assert "match=True" in out


def test_tensor_check_mismatch_exit_code(capsys):
    # degree-2 irreducible: the raw pairing overcounts, reported as a failure
    code, out, _ = run(capsys, "tensor-check", "--a", "1", "--b", "1", "--theta", "id",
                       "--tau", "(1 2 3)", "--n", "3", "--group", "S3",
                       "--character", "irr:[2,1]")
    assert code == 4
    assert "match=False" in out


@pytest.mark.parametrize(
    "command, theta, group",
    [
        ("gmf", "id", "S3"),
        ("gmf", "(1 2 3)", "S3"),
        ("gmf", "id", "A3"),
        ("gmf --method naive", "id", "S3"),
        ("bound", "id", "S3"),
        ("tensor-check", "id", "S3"),
    ],
)
def test_table_over_a_smaller_group_exits_three(capsys, tmp_path, command, theta, group):
    # the value used to depend on which terms vanished: 4 with exit 0 on S3,
    # exit 3 once theta = (1 2 3) reached a key the table lacks, 2 on A3
    path = tmp_path / "swap.json"
    path.write_text('{"id": {"re": "1"}, "(1 2)": {"re": "-1"}}')
    code, out, err = run(capsys, *command.split(), "--n", "3", "--theta", theta,
                         "--tau", "(1 2)", "--group", group, "--character", f"table:{path}")
    assert (code, out) == (3, "")
    assert f"the character's table does not cover {group}" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("{}", "empty table"),
        ("[]", "must be a JSON object"),
        ('{"id": {"re": "1"}, "(1 2)": {"re": "-1"}, "(1 2 3)": {"re": "1"}}', "not closed"),
        ('{"id": {"re": "1"}, "(1 2)": {"re": "2"}}', "exceeds chi(id)"),
        ('{"id": {"re": "1", "im": "1"}, "(1 2)": {"re": "1"}}', "chi(id) must be real"),
        ('{"id": {"re": "2"}, "(1 2)": {"re": "1"}, "(1 3)": {"re": "0"}, "(2 3)": {"re": "0"},'
         ' "(1 2 3)": {"re": "0"}, "(1 3 2)": {"re": "0"}}', "not a class function"),
    ],
    ids=["empty", "not-an-object", "not-closed", "above-degree", "complex-degree", "not-class"],
)
def test_table_validation_names_the_file(capsys, tmp_path, body, message):
    path = tmp_path / "bad.json"
    path.write_text(body)
    code, _, err = run(capsys, "gmf", "--n", "3", "--theta", "id", "--tau", "(1 2)",
                       "--group", "S3", "--character", f"table:{path}")
    assert code == 2
    assert f"character table {str(path)!r}" in err
    assert message in err


def test_bench_smoke(capsys):
    code, out, _ = run(capsys, "bench", "--a", "1", "--b", "2", "--theta", "(1 2)",
                       "--tau", "(2 3)", "--n", "4", "--reps", "1", "--json")
    assert code == 0
    rows = json.loads(out)
    methods = {row["method"] for row in rows}
    assert methods == {"formula", "cauchy-binet", "naive"}
    for row in rows:
        assert row["median_seconds"] >= 0.0
        if row["method"] == "naive":
            assert row["terms"] == 24


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "det", "--a", "oops", "--b", "1", *REF)
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "--a", "1/0", "--b", "1", *REF],
        ["det", "--a", "2+3", "--b", "1", *REF],
        ["gmf", "--a", "1", "--b", "1", *REF, "--group", "S0", "--character", "sign"],
        ["gmf", "--a", "1", "--b", "1", *REF, "--group", "stab:1,,3@6", "--character", "sign"],
        ["gmf", "--a", "1", "--b", "1", *REF, "--group", "stab:1,1@6", "--character", "sign"],
        ["gmf", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1 2)", "--tau", "id",
         "--group", "S3", "--character", "table:{two_spellings}"],
        ["gmf", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1 2)", "--tau", "id",
         "--group", "S3", "--character", "table:{repeated_key}"],
        ["gmf", "--a", "1", "--b", "1", "--n", "4", "--theta", "(1 2)", "--tau", "id",
         "--group", "S4", "--character", "irr:[3,2]"],
        ["gmf", "--a", "1", "--b", "1", "--n", "4", "--theta", "(1 2)", "--tau", "id",
         "--group", "S4", "--character", "irr:[]"],
        ["gmf", "--a", "1", "--b", "1", "--n", "4", "--theta", "(1 2)", "--tau", "id",
         "--group", "S4", "--character", "irr:[3,,1]"],
        ["gmf", "--a", "1", "--b", "1", "--n", "4", "--theta", "(1 2)", "--tau", "id",
         "--group", "S4", "--character", "irr:[,4]"],
        ["gmf", "--a", "1", "--b", "1", "--n", "4", "--theta", "(1 2)", "--tau", "id",
         "--group", "S4", "--character", "irr:[4,]"],
        ["det", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1,,2)", "--tau", "id"],
        ["det", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1 2,)", "--tau", "id"],
        ["det", "--a", "1", "--b", "1", "--n", "3", "--theta", "(,1 2)", "--tau", "id"],
        ["bench", "--a", "1", "--b", "1", *REF, "--reps", "0"],
        ["bench", "--a", "1", "--b", "1", *REF, "--reps", "-2"],
        ["det", "--a", "1", "--b", "1", "--n", "3", "--theta", "", "--tau", "id"],
        ["det", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1 2)", "--tau", "  "],
        ["gmf", "--a", "1", "--b", "1", "--n", "3", "--theta", "(1 2)", "--tau", "id",
         "--group", "cyclic:@3", "--character", "sign"],
    ],
    ids=[
        "zero-denominator",
        "two-real-terms",
        "degree-zero-group",
        "empty-stabilizer-item",
        "repeated-stabilizer-point",
        "table-two-spellings",
        "table-repeated-key",
        "irr-partition-of-another-size",
        "irr-empty-partition",
        "irr-doubled-comma",
        "irr-leading-comma",
        "irr-trailing-comma",
        "cycle-doubled-comma",
        "cycle-trailing-comma",
        "cycle-leading-comma",
        "bench-zero-reps",
        "bench-negative-reps",
        "blank-theta",
        "whitespace-tau",
        "cyclic-blank-generator",
    ],
)
def test_malformed_input_exits_two_without_traceback(argv, tmp_path):
    tables = {
        "two_spellings": '{"id": {"re": "1"}, "(1 2)": {"re": "-1"}, "(2 1)": {"re": "1"}}',
        "repeated_key": '{"id": {"re": "1"}, "(1 2)": {"re": "-1"}, "(1 2)": {"re": "1"}}',
    }
    paths = {}
    for name, body in tables.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(body)
    argv = [arg.format(**paths) for arg in argv]
    src = pathlib.Path(permfunc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "permfunc.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr
    if argv[-1].startswith("irr:"):
        assert argv[-1] in proc.stderr
    if argv[0] == "det" and "," in argv[argv.index("--theta") + 1]:
        assert argv[argv.index("--theta") + 1] in proc.stderr
    if argv[0] == "bench":
        assert f"--reps must be a positive integer, got {argv[-1]}" in proc.stderr
    for flag in ("--theta", "--tau"):
        if not argv[argv.index(flag) + 1].strip():
            assert f"blank permutation text {argv[argv.index(flag) + 1]!r}" in proc.stderr
    if "--group" in argv and argv[argv.index("--group") + 1].startswith("cyclic:"):
        assert repr(argv[argv.index("--group") + 1]) in proc.stderr


@pytest.mark.parametrize(
    "change, named",
    [
        ({"a": ["1/0", "2"]}, "1/0"),
        ({"m": 1.5}, "'m'"),
        ({"n": 2.9}, "'n'"),
        ({"m": True}, "'m'"),
        ({"n": "2"}, "'n'"),
        ({"m": 0}, "'m'"),
        ({"a": [{"re": 0.5}, "2"]}, "{'re': 0.5}"),
        ({"a": [{"re": "1e2"}, "2"]}, "{'re': '1e2'}"),
        ({"b": ["1", {"im": "1_0"}]}, "{'im': '1_0'}"),
    ],
    ids=["zero-denominator", "fractional-m", "fractional-n", "bool-m", "string-n", "zero-m",
         "float-object", "exponent-object", "underscore-object"],
)
def test_zero_denominator_in_block_spec(tmp_path, capsys, change, named):
    # a bad scalar, or a block size that is not a positive JSON integer, exits 2 naming it
    spec = {
        "m": 1, "n": 2, "theta": "id", "tau": "(1 2)", "inner_thetas": ["id", "id"],
        "inner_taus": ["id", "id"], "a": ["1", "2"], "b": ["1", "1"], **change,
    }
    path = tmp_path / "block.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "block-gmf", "--spec", str(path), "--character", "trivial")
    assert code == 2
    assert named in err


INSTANCE = ["--theta", "id", "--tau", "(1 2)"]
GMF_N3 = ["gmf", "--n", "3", *INSTANCE]
GMF_N4 = ["gmf", "--n", "4", *INSTANCE]
DOMINANCE_N2 = ["dominance", "--n", "2", "--pi", "(1 2)", "--character", "sign"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["det", "--n", "1_0", "--theta", "(1_0 2)", "--tau", "id"], "'1_0'"),
        (["det", "--n", "10", "--theta", "(1_0 2)", "--tau", "id"], "'(1_0 2)'"),
        (["det", "--n", "3", "--theta", "(+1 2)", "--tau", "id"], "'(+1 2)'"),
        (["det", "--n", "\u0663", *INSTANCE], "'\u0663'"),
        (["det", "--n", "3", *INSTANCE, "--a", "\u0661"], "'\u0661'"),
        ([*GMF_N3, "--group", "stab:3@+3", "--character", "sign"], "'stab:3@+3'"),
        ([*GMF_N3, "--group", "stab:+3@3", "--character", "sign"], "'stab:+3@3'"),
        ([*GMF_N3, "--group", "S\u0663", "--character", "sign"], "'S\u0663'"),
        ([*GMF_N3, "--group", "S3", "--character", "irr:[\u0662,\u0661]"], "'irr:[\u0662,\u0661]'"),
        (["bench", "--n", "3", *INSTANCE, "--reps", "1_0"], "'1_0'"),
        ([*DOMINANCE_N2, "--k", "1e1", "--m", "0.5"], "'1e1'"),
        ([*DOMINANCE_N2, "--k", "1", "--m", "1_0"], "'1_0'"),
        ([*DOMINANCE_N2, "--k", "1", "--m", "1i"], "'1i'"),
    ],
    ids=[
        "n-underscore", "cycle-underscore", "cycle-plus", "n-arabic-indic", "scalar-arabic-indic",
        "suffix-plus", "stab-point-plus", "symmetric-arabic-indic", "irr-arabic-indic",
        "reps-underscore", "dominance-floats", "dominance-underscore", "dominance-imaginary",
    ],
)
def test_numbers_take_ascii_digits_only(capsys, argv, named):
    # each of these used to be read as a number (the last as an error
    # about rational literals); now each is a parse error naming its text
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and named in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["det", "--n", "3", "--theta", "(1 2 x)", "--tau", "id"],
         "bad cycle in '(1 2 x)': 'x' at column 6 is not an integer"),
        ([*GMF_N3, "--group", "S3", "--character", "irr:[3,x]"],
         "bad partition in 'irr:[3,x]': 'x' at column 8 is not an integer"),
        (["gmf", "--n", "5", *INSTANCE, "--group", "stab:1,z@5", "--character", "sign"],
         "bad stabilizer points in 'stab:1,z@5': 'z' at column 8 is not an integer"),
        (["det", "--n", "3", *INSTANCE, "--a", "2+3j"],
         "bad scalar literal: '2+3j': unexpected 'j' at column 4"),
        (["per", "--n", "3", *INSTANCE, "--b", " 2 +  3j"],
         "bad scalar literal: ' 2 +  3j': unexpected 'j' at column 8"),
        (["det", "--n", "3", *INSTANCE, "--a", "1/2 - "],
         "bad scalar literal: '1/2 - ': unexpected end at column 6"),
        (["det", "--n", "3", *INSTANCE, "--b", "1i + 2i"],
         "bad scalar literal: '1i + 2i': second imaginary part '+ 2i' at column 4"),
        (["det", "--n", "3", *INSTANCE, "--a", "2 - 3/00i"],
         "bad scalar literal: '2 - 3/00i': zero denominator '00' at column 7"),
        (["det", "--n", "4", "--theta", "(1 5)", "--tau", "id"],
         "bad cycle in '(1 5)': point 5 outside [1..4] at column 4"),
        ([*GMF_N4, "--group", "gens:(1 5)@4", "--character", "sign"],
         "bad cycle in 'gens:(1 5)@4': point 5 outside [1..4] at column 9"),
        ([*GMF_N4, "--group", "gens:(1 2),(1 5)@4", "--character", "sign"],
         "bad cycle in 'gens:(1 2),(1 5)@4': point 5 outside [1..4] at column 15"),
        ([*GMF_N4, "--group", " gens:(1 2), (1 x)@4", "--character", "sign"],
         "bad cycle in ' gens:(1 2), (1 x)@4': 'x' at column 17 is not an integer"),
        (["det", "--n", "4", "--theta", "(1 2)(2 3)", "--tau", "id"],
         "bad cycle in '(1 2)(2 3)': point 2 repeated at column 7"),
        ([*GMF_N4, "--group", "cyclic:(1 2)(2 3)@4", "--character", "sign"],
         "bad cycle in 'cyclic:(1 2)(2 3)@4': point 2 repeated at column 14"),
        ([*GMF_N4, "--group", " cyclic: (3 0)@4", "--character", "sign"],
         "bad cycle in ' cyclic: (3 0)@4': point 0 outside [1..4] at column 13"),
        ([*GMF_N4, "--group", "stab:5@4", "--character", "sign"],
         "bad stabilizer points in 'stab:5@4': point 5 outside [1..4] at column 6"),
        ([*GMF_N4, "--group", "stab:0@4", "--character", "sign"],
         "bad stabilizer points in 'stab:0@4': point 0 outside [1..4] at column 6"),
        ([*GMF_N4, "--group", "stab:2, 2@4", "--character", "sign"],
         "bad stabilizer points in 'stab:2, 2@4': point 2 repeated at column 9"),
        ([*GMF_N4, "--group", "gens:(1 2)@0", "--character", "sign"],
         "bad degree suffix in 'gens:(1 2)@0': degree 0 not positive at column 12"),
        (["det", "--n", "0", "--theta", "id", "--tau", "id"],
         "bad integer '0': degree 0 not positive at column 1"),
    ],
    ids=["cycle", "partition", "stabilizer", "scalar", "scalar-blanks", "scalar-end",
         "scalar-twice", "scalar-zero-denominator", "cycle-point-outside", "gens-point-outside",
         "gens-second-generator", "gens-blanks", "cycle-point-repeated", "cyclic-point-repeated",
         "cyclic-blanks", "stabilizer-outside",
         "stabilizer-zero", "stabilizer-repeated", "suffix-zero", "n-zero"],
)
def test_parse_errors_name_the_bad_token_and_its_column(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("part", [0.1, "1e2", "1_0"], ids=["float", "exponent", "underscore"])
def test_table_scalars_take_integers_and_exact_text_only(tmp_path, capsys, part):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"id": {"re": part}, "(1 2)": {"re": -1}}))
    code, out, err = run(capsys, *GMF_N3, "--group", "stab:3@3", "--character", f"table:{path}")
    assert (code, out) == (2, "")
    assert f"bad scalar object: {{'re': {part!r}}}" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "gmf", "--a", "1", "--b", "1", *REF,
                       "--group", "S5", "--character", "sign")
    assert code == 3
    assert "degree" in err


def test_gmf_beyond_subset_enumeration(capsys):
    # 70 cycles exceed the 62 a subset bitmask holds; sign on S_n needs none
    tau = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(70))
    inst = ["--a", "2", "--b", "-1i", "--theta", "id", "--tau", tau, "--n", "140"]
    code, out, _ = run(capsys, "gmf", *inst, "--group", "S140", "--character", "sign")
    assert code == 0
    _, det, _ = run(capsys, "det", *inst)
    assert out == det


def test_cyclic_young_group_answers_past_the_walk_cap(capsys, monkeypatch):
    # <(1 2)> is the Young subgroup of its orbits, so its 2^28 mixtures are
    # multiplied out, never walked: only (1 2) may come from tau, and the
    # four points both fix give (a+b)^4
    refuse_membership(monkeypatch, lambda *args: pytest.fail("membership tested"))
    many = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(28))
    code, out, err = run(capsys, "gmf", "--n", "60", "--a", "2", "--b", "3", "--theta", "id",
                         "--tau", many, "--group", "cyclic:(1 2)@60", "--character", "trivial")
    assert (code, out, err) == (0, f"{5**4 * (2**2 + 3**2) * (2**2) ** 27}\n", "")


def test_mixture_walk_over_the_cap_exits_three(capsys, monkeypatch):
    # 2^28 and 2^22 mixtures exceed the cap: refused before any is built
    def refuse(*args, **kwargs):
        raise AssertionError("membership tested before the cap was checked")

    refuse_membership(monkeypatch, refuse)
    monkeypatch.setattr(permfunc.engine, "_orbit_classes", refuse)
    many = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(28))
    cycle = "(" + " ".join(map(str, range(1, 61))) + ")"
    code, out, err = run(capsys, "gmf", "--n", "60", "--theta", "id", "--tau", many,
                         "--group", f"cyclic:{cycle}@60", "--character", "trivial")
    assert (code, out) == (3, "")
    assert "exceeds cap" in err
    # theta is one 44-cycle, so the 22 transpositions of theta^-1*tau lie
    # on one orbit of <theta, tau>, whose 2^22 cycle choices irr: would walk
    fewer = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(22))
    long_cycle = "(" + " ".join(map(str, range(1, 45))) + ")"
    perm = permfunc.perm
    tau = perm.format_permutation(
        perm.parse_permutation(long_cycle, 44) * perm.parse_permutation(fewer, 44)
    )
    code, out, err = run(capsys, "gmf", "--n", "44", "--theta", long_cycle, "--tau", tau,
                         "--group", "S44", "--character", "irr:[43,1]")
    assert (code, out) == (3, "")
    assert "walk of 2^22 mixtures exceeds cap" in err
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "xset", "--n", "44", "--theta", "id", "--tau", fewer, *extra)
        assert (code, out) == (3, "")
        assert "exceeds cap" in err


def test_young_gens_group_answers_over_the_walk_cap(capsys):
    # (1 2) and the 60-cycle generate S_60, a Young subgroup: 2^28 mixtures
    # are summed as a product; the cyclic group and the dihedral group of
    # order 120 on the same points sift, so their walks are still refused
    many = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(28))
    cycle = "(" + " ".join(map(str, range(1, 61))) + ")"
    reflection = "".join(f"({k} {62 - k})" for k in range(2, 31))
    instance = ["gmf", "--n", "60", "--theta", "id", "--tau", many, "--character", "trivial"]
    code, out, err = run(capsys, *instance, "--group", f"gens:(1 2),{cycle}@60", "--json")
    value = {"value": {"re": str(2**32), "im": "0"}, "method": "formula", "terms": 2**28}
    assert (code, json.loads(out), err) == (0, value, "")
    for group in (f"cyclic:{cycle}@60", f"gens:{cycle},{reflection}@60"):
        code, out, err = run(capsys, *instance, "--group", group)
        assert (code, out, err) == (3, "", "error: walk of 2^28 mixtures exceeds cap 3628800\n")


def test_sifting_group_walks_only_its_orbits_past_the_cap(capsys):
    # <(1 2 3 4 5)> sifts, but a member fixes 6..60, so only (1 2) and (3 4)
    # may come from tau: the walk branches on 2 of the 28 cycles, and of its
    # 4 mixtures only theta = id is in the group, weighed a^2 for each of the
    # 28 transpositions and (a+b)^4 for the points 57..60 that both fix
    many = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(28))
    instance = ["gmf", "--n", "60", "--theta", "id", "--tau", many]
    code, out, err = run(capsys, *instance, "--group", "gens:(1 2 3 4 5)@60",
                         "--character", "trivial", "--a", "2", "--b", "3", "--json")
    value = {"value": {"re": str(2**56 * 5**4), "im": "0"}, "method": "formula", "terms": 1}
    assert (code, json.loads(out), err) == (0, value, "")
    code, out, err = run(capsys, *instance, "--group", "cyclic:(1 2 3 4 5)@60",
                         "--character", "sign", "--a", "1", "--b", "1")
    assert (code, out, err) == (0, "16\n", "")
    # the 60-cycle is transitive: no coefficient is zeroed and 2^28 is refused
    cycle = "(" + " ".join(map(str, range(1, 61))) + ")"
    code, out, err = run(capsys, *instance, "--group", f"cyclic:{cycle}@60",
                         "--character", "trivial", "--a", "2", "--b", "3")
    assert (code, out, err) == (3, "", "error: walk of 2^28 mixtures exceeds cap 3628800\n")


def test_irreducible_on_forty_four_points_pinned(capsys):
    # irr:[43,1] on 44 points, rho the 22 transpositions (1 2)...(43 44):
    # with theta = id, <theta, tau> has 22 orbits of one transposition each
    # and the class sums answer over the 2^22 mixtures; with theta a
    # 44-cycle and tau = theta*rho there is one orbit, whose 2^22 choices
    # are refused with the walk's text
    rho = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(22))
    group = ["--group", "S44", "--character", "irr:[43,1]"]
    code, out, err = run(capsys, "gmf", "--n", "44", "--theta", "id", "--tau", rho, *group,
                         "--json")
    value = {"value": {"re": str(21 * 2**22), "im": "0"}, "method": "formula", "terms": 2**22}
    assert (code, json.loads(out), err) == (0, value, "")
    long_cycle = "(" + " ".join(map(str, range(1, 45))) + ")"
    perm = permfunc.perm
    tau = perm.format_permutation(
        perm.parse_permutation(long_cycle, 44) * perm.parse_permutation(rho, 44)
    )
    code, out, err = run(capsys, "gmf", "--n", "44", "--theta", long_cycle, "--tau", tau, *group)
    assert (code, out, err) == (3, "", "error: walk of 2^22 mixtures exceeds cap 3628800\n")


def test_degree_over_the_cap_builds_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a permutation was built for a degree over the cap")

    monkeypatch.setattr(permfunc.perm.Permutation, "identity", refuse)
    monkeypatch.setattr(permfunc.perm.Permutation, "from_cycles", refuse)
    for theta in ("id", "(1 2)"):
        code, out, err = run(capsys, "s-det", "--n", "3628801", "--theta", theta)
        message = "error: permutation degree 3628801 exceeds cap 3628800\n"
        assert (code, out, err) == (3, "", message)


def test_naive_routes_refuse_before_building_the_matrix(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the matrix was built before the cap was checked")

    for module in (permfunc.cli, permfunc.matrices):
        monkeypatch.setattr(module, "linear_sum", refuse)
        monkeypatch.setattr(module, "block_matrix", refuse)
    pair = ["--theta", "id", "--tau", "id"]
    for argv, message in [
        (["det", "--n", "2000", *pair], "2000x2000 matrix exceeds cap 3628800"),
        (["per", "--n", "2000", *pair], "2000x2000 matrix exceeds cap 3628800"),
        (["gmf", "--n", "1905", *pair, "--group", "stab:1@1905", "--character", "sign"],
         "1905x1905 matrix exceeds cap 3628800"),
    ]:
        code, out, err = run(capsys, *argv, "--method", "naive")
        assert (code, out, err) == (3, "", f"error: {message}\n")
    # past the matrix check each naive route checks its own work: the order
    # of S11 passes the cap, but 2*I folds in one Laplace step a row
    monkeypatch.undo()
    code, out, err = run(capsys, "gmf", "--n", "11", *pair, "--group", "S11",
                         "--character", "trivial", "--method", "naive")
    assert (code, out, err) == (0, f"{2**11}\n", "")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "m": 1, "n": 11, "theta": "id", "tau": "id", "inner_thetas": ["id"] * 11,
        "inner_taus": ["id"] * 11, "a": ["1"] * 11, "b": ["1"] * 11,
    }))
    code, out, err = run(capsys, "block-gmf", "--spec", str(spec), "--character", "sign",
                         "--method", "naive")
    assert (code, out, err) == (0, f"{2**11}\n", "")


def test_the_enumeration_cap_has_one_binding(capsys, monkeypatch):
    # lowering the cap where perm defines it lowers it for the group order
    # and the CLI's matrix pre-check too, read when they are called
    monkeypatch.setattr(permfunc.perm, "DEFAULT_ENUMERATION_CAP", 100)
    with pytest.raises(CapacityError, match="^group order 720 exceeds cap 100$"):
        enumerate_group(SymmetricGroup(6))
    code, out, err = run(capsys, "det", "--method", "naive", "--n", "11",
                         "--theta", "id", "--tau", "id")
    assert (code, out, err) == (3, "", "error: 11x11 matrix exceeds cap 100\n")


def test_class_tables_over_the_cap_exit_three(capsys):
    # one cycle of each length 2..23 on 275 points: every orbit of
    # <id, tau> is small, but the 2^22 mixtures have 2^22 cycle types
    cycles, start = [], 1
    for length in range(2, 24):
        cycles.append("(" + " ".join(map(str, range(start, start + length))) + ")")
        start += length
    code, out, err = run(capsys, "gmf", "--n", "275", "--theta", "id", "--tau", "".join(cycles),
                         "--group", "S275", "--character", "irr:[274,1]")
    assert (code, out) == (3, "")
    assert "walk of 2^22 mixtures exceeds cap" in err


def test_cyclic_membership_lists_no_powers(capsys, monkeypatch):
    # g has cycles of lengths 2, 3, 5, ..., 19, so |<g>| = 9699690
    def refuse(*args, **kwargs):
        raise AssertionError("powers of the generator listed")

    monkeypatch.setattr(permfunc.groups.CyclicGroup, "_generate", refuse)
    cycles, start = [], 1
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        cycles.append("(" + " ".join(map(str, range(start, start + length))) + ")")
        start += length
    code, out, _ = run(capsys, "gmf", "--n", "77", "--theta", "id", "--tau", "(1 2)",
                       "--group", f"cyclic:{''.join(cycles)}@77", "--character", "trivial")
    # both mixtures, id and (1 2) = g^(3*5*...*19), lie in <g>: the value is per, 2^76
    assert (code, out) == (0, f"{2**76}\n")


def test_xset_json_lists_the_walk_in_order(capsys):
    code, out, _ = run(capsys, "xset", *REF, "--json")
    assert code == 0
    assert json.loads(out) == ["(1 5 3)(2 6)", "(2 6)", "(1 5 3)(2 4 6)", "(2 4 6)"]


def test_naive_group_cap_exit_code(capsys):
    # |S11| passes the cap, but the rows of a*P_theta + b*P_tau keep two
    # entries each and the Young route folds them: the closed form's value
    instance = ["--theta", "(1 2)", "--tau", "id", "--n", "11", "--a", "2", "--b", "3"]
    code, out, err = run(capsys, "gmf", "--method", "naive", "--group", "S11",
                         "--character", "sign", *instance)
    a, b, theta, tau = GaussianRational(2), GaussianRational(3), *(
        permfunc.parse_permutation(text, 11) for text in ("(1 2)", "id"))
    assert (code, out, err) == (0, f"{permfunc.det_linear_sum(a, b, theta, tau).value}\n", "")
    # an irr: character takes the member walk: 22 rows of two entries give
    # 2^22 candidate tuples, fewer than |S22| but over the cap
    pairs = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(11))
    code, out, err = run(capsys, "gmf", "--method", "naive", "--group", "S22",
                         "--character", "irr:[21,1]", "--n", "22", "--theta", "id", "--tau", pairs)
    message = f"error: member walk of {2**22} candidate tuples exceeds cap 3628800\n"
    assert (code, out, err) == (3, "", message)


@pytest.mark.parametrize("command", ["det", "per", "gmf"])
def test_naive_answers_past_the_order_cap(capsys, command):
    # 2*I + 3*P_(1 2 ... 16): |S16| passes the cap, and the naive route folds
    # rows of two entries, each set of minors within i + 1 columns
    cycle = "(" + " ".join(map(str, range(1, 17))) + ")"
    theta, tau = permfunc.Permutation.identity(16), permfunc.parse_permutation(cycle, 16)
    a, b = GaussianRational(2), GaussianRational(3)
    argv = ["--n", "16", "--theta", "id", "--tau", cycle, "--a", "2", "--b", "3"]
    chi = "sign" if command == "det" else "trivial"
    closed = permfunc.det_linear_sum if chi == "sign" else permfunc.per_linear_sum
    if command == "gmf":
        argv += ["--group", "S16", "--character", chi]
    code, out, err = run(capsys, command, *argv, "--method", "naive", "--json")
    expected = {"value": closed(a, b, theta, tau).value.to_json(), "method": "naive",
                "terms": 20922789888000}
    assert (code, json.loads(out), err) == (0, expected, "")


def test_exact_results_past_the_digit_limit(capsys):
    # 2^15000 has 4516 digits, more than Python turns into text by default:
    # the printer lifts that limit while it prints, and restores it afterwards
    limit = getattr(sys, "get_int_max_str_digits", int)()
    pairs = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(15000))
    instance = ["--n", "30000", "--theta", "id", "--tau", pairs, "--a", "1", "--b", "1"]
    outputs = [
        run(capsys, "per", *instance),
        run(capsys, "per", *instance, "--json"),
        run(capsys, "gmf", *instance, "--group", "S30000", "--character", "sign", "--json"),
    ]
    assert getattr(sys, "get_int_max_str_digits", int)() == limit
    big = str(decimal.Decimal(2**15000))  # decimal prints past the limit
    assert len(big) == 4516
    assert outputs[0] == (0, big + "\n", "")
    per = f'{{"value": {{"re": "{big}", "im": "0"}}, "method": "closed", "terms": {big}}}\n'
    assert outputs[1] == (0, per, "")
    det = f'{{"value": {{"re": "0", "im": "0"}}, "method": "formula", "terms": {big}}}\n'
    assert outputs[2] == (0, det, "")
    # det(S_theta) of 10000 3-cycles is 2^10000, of 3011 digits; of 20000, 2^20000 of 6021
    for count, digits in ((10000, 3011), (20000, 6021)):
        cycles = "".join(f"({3 * k + 1} {3 * k + 2} {3 * k + 3})" for k in range(count))
        value = str(decimal.Decimal(2**count))
        assert len(value) == digits
        argv = ["s-det", "--n", str(3 * count), "--theta", cycles]
        assert run(capsys, *argv) == (0, value + "\n", "")
        assert run(capsys, *argv, "--json") == (0, f'{{"value": {{"re": "{value}", "im": "0"}}}}\n', "")
    # per(2*I + P_pi) for 8000 transpositions pi is 5^8000, of 5592 digits, on both sides
    involution = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(8000))
    argv = ["dominance", "--n", "16000", "--k", "2", "--m", "1", "--pi", involution,
            "--character", "trivial"]
    value = str(decimal.Decimal(5**8000))
    assert len(value) == 5592
    assert run(capsys, *argv) == (0, f"{value} <= {value}: holds\n", "")
    report = f'{{"lhs": "{value}", "rhs": "{value}", "holds": true}}\n'
    assert run(capsys, *argv, "--json") == (0, report, "")
    assert getattr(sys, "get_int_max_str_digits", int)() == limit


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python turns integers of any length into text")
def test_inputs_are_parsed_under_the_digit_limit(capsys, monkeypatch):
    # only printing lifts the limit: a scalar or an integer flag past 4300
    # digits is refused as Python refuses it, before any quadratic parse,
    # and the printed value of a literal under the limit may pass it
    limits = []
    parse = GaussianRational.parse.__func__

    def spy(cls, text):
        limits.append(sys.get_int_max_str_digits())
        return parse(cls, text)

    monkeypatch.setattr(GaussianRational, "parse", classmethod(spy))
    instance = ["--n", "2", "--theta", "id", "--tau", "id"]
    for literal in ("9" * 5000, "1/" + "9" * 5000, "2-" + "9" * 5000 + "i"):
        limits.clear()
        code, out, err = run(capsys, "per", *instance, "--a", literal)
        assert limits and all(limits), "a scalar was parsed with the limit lifted"
        assert (code, out) == (3, "")
        assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")
    code, out, err = run(capsys, "bench", *instance, "--reps", "9" * 5000)
    assert (code, out) == (2, "") and err.startswith("parse error: bad integer")
    # (10^4000 + 1)^2 has 8001 digits
    code, out, err = run(capsys, "per", *instance, "--a", "1" + "0" * 4000, "--b", "1")
    assert (code, out, err) == (0, str(decimal.Decimal((10**4000 + 1) ** 2)) + "\n", "")


@pytest.mark.parametrize("n, pairs", [(12, 3), (60, 16)])
def test_generated_symmetric_group_lists_no_element(capsys, monkeypatch, n, pairs):
    # (1 2) and an n-cycle generate S_n; with theta = id the trivial
    # character gives the permanent, 2^(n - pairs), from the membership of
    # the 2^pairs mixtures alone
    tau = "".join(f"({2 * k + 1} {2 * k + 2})" for k in range(pairs))
    argv = ["gmf", "--n", str(n), "--theta", "id", "--tau", tau, "--character", "trivial"]
    code, symmetric, _ = run(capsys, *argv, "--group", f"S{n}")
    assert (code, symmetric) == (0, f"{2 ** (n - pairs)}\n")

    def refuse(*args, **kwargs):
        raise AssertionError("group elements listed for a membership question")

    monkeypatch.setattr(permfunc.groups.GeneratedSubgroup, "_generate", refuse)
    monkeypatch.setattr(permfunc.groups, "enumerate_group", refuse)
    monkeypatch.setattr(permfunc.groups._StabilizerChain, "elements", refuse)
    cycle = " ".join(map(str, range(1, n + 1)))
    code, out, err = run(capsys, *argv, "--group", f"gens:(1 2),({cycle})@{n}")
    assert (code, out, err) == (0, symmetric, "")


# Runs CLI children from a small interpreter and prints each child's exit
# code and peak RSS in KB.  Run straight from pytest they would read high:
# a child started by vfork counts its parent's RSS in its ru_maxrss.
_CHILD_PEAKS = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, "-m", "permfunc.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    peaks.append((child.returncode, usage.ru_maxrss))
print(json.dumps(peaks))
"""


def test_generated_group_call_peaks_like_a_closed_form_call():
    # gmf over gens:(1 2),(1 ... 8)@8, a presentation of S_8, against the
    # closed determinant, on the same 8-point pair with a = 3, b = 2
    pair = ["--n", "8", "--theta", "(1 2 3 4 5 6 7 8)", "--tau", "(1 3 5 7)(2 4 6 8)",
            "--a", "3", "--b", "2"]
    calls = [
        ["gmf", *pair, "--group", "gens:(1 2),(1 2 3 4 5 6 7 8)@8", "--character", "sign",
         "--method", "formula", "--json"],
        ["det", *pair, "--method", "closed", "--json"],
    ]
    src = pathlib.Path(permfunc.__file__).resolve().parents[1]
    # neither child writes bytecode, so the first cannot compile for the second
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_PEAKS, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    (gens_code, gens_kb), (det_code, det_kb) = json.loads(proc.stdout)
    assert gens_code == det_code == 0
    assert gens_kb - det_kb < 2 * 1024


def test_cli_import_loads_no_code_generation_or_bench_modules():
    # records generate no code, so dataclasses and the inspect it imports
    # stay out; statistics is imported by `bench` alone
    src = pathlib.Path(permfunc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys, permfunc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'statistics'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv, group", [
    (["det", "--n", "1600", "--theta", "id", "--tau", "id"], "S1600"),
    (["gmf", "--n", "1700", "--theta", "id", "--tau", "id", "--group", "A1700",
      "--character", "sign"], "A1700"),
])
def test_order_too_long_to_print_names_the_group(capsys, argv, group):
    # 1600! and 1700!/2 have more digits than Python turns into text: the
    # naive route answers 2*I by one Laplace step a row, and enumerate_group,
    # which still checks the order, names it by its group
    n = int(argv[2])
    code, out, err = run(capsys, *argv, "--method", "naive")
    assert (code, out, err) == (0, f"{2**n}\n", "")
    with pytest.raises(CapacityError, match=f"^group order of {group} exceeds cap 3628800$"):
        permfunc.enumerate_group(permfunc.parse_group(group))


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Pinned output: every subcommand, every --method, text and --json, and the
# input errors; stdout, stderr and the exit code are fixed literals.
# bench timings vary, so they are masked to 0.
AB = ["--a", "2", "--b", "-1i"]
TEXT_AND_JSON = {"": [], "-json": ["--json"]}


def _pinned_argv():
    cases = {"xset": ["xset", *REF], "xset-json": ["xset", *REF, "--json"]}
    for tag, fmt in TEXT_AND_JSON.items():
        for m in ["closed", "formula", "cauchy-binet", "naive"]:
            cases[f"det-{m}{tag}"] = ["det", *AB, *REF, "--method", m, *fmt]
        for m in ["closed", "formula", "naive"]:
            cases[f"per-{m}{tag}"] = ["per", *AB, *REF, "--method", m, *fmt]
        for m in ["formula", "naive"]:
            cases[f"gmf-{m}{tag}"] = ["gmf", *AB, *REF, "--group", "stab:1,3@6",
                                      "--character", "irr:[4,2]", "--method", m, *fmt]
        for m in ["block", "naive"]:
            cases[f"block-gmf-{m}{tag}"] = ["block-gmf", "--spec", "{spec}", "--character",
                                            "sign", "--group", "stab:2@8", "--method", m, *fmt]
        cases[f"s-det{tag}"] = ["s-det", "--theta", "(1 2 3 4 5 6)", "--n", "6", *fmt]
        cases[f"psd{tag}"] = ["psd", "--a", "3", "--b", "-2", "--theta", "id",
                              "--tau", "(1 2)(3 4)", "--n", "4", *fmt]
        cases[f"not-psd{tag}"] = ["psd", *AB, *REF, *fmt]
        cases[f"singvals{tag}"] = ["singvals", *AB, *REF, *fmt]
        cases[f"dominance{tag}"] = ["dominance", "--k", "3/2", "--m", "-1", "--pi",
                                    "(1 2)(3 4)", "--n", "5", "--character", "irr:[3,2]", *fmt]
        cases[f"bound{tag}"] = ["bound", *AB, *REF, "--group", "A6", "--character", "sign", *fmt]
        cases[f"tensor-check{tag}"] = ["tensor-check", "--a", "1", "--b", "2", "--theta",
                                       "(1 2)", "--tau", "(2 3)", "--n", "3", "--group", "S3",
                                       "--character", "sign", *fmt]
        cases[f"tensor-mismatch{tag}"] = ["tensor-check", "--a", "1", "--b", "1", "--theta",
                                          "id", "--tau", "(1 2 3)", "--n", "3", "--group", "S3",
                                          "--character", "irr:[2,1]", *fmt]
        cases[f"bench{tag}"] = ["bench", "--a", "3", "--b", "2", "--theta", "(1 2 3 4)",
                                "--tau", "(1 3)(2 4)", "--n", "4", "--reps", "1", *fmt]
    cases["block-gmf-unreadable"] = ["block-gmf", "--spec", "{missing}", "--character", "sign"]
    cases["block-gmf-bad-json"] = ["block-gmf", "--spec", "{bad_json}", "--character", "sign"]
    cases["block-gmf-wrong-degree"] = ["block-gmf", "--spec", "{spec}", "--character", "sign",
                                       "--group", "S5"]
    cases["bad-k"] = ["dominance", "--k", "1.5x", "--m", "1", "--pi", "(1 2)", "--n", "2",
                      "--character", "sign"]
    return cases


PINNED = {
    'xset': (0, '(1 5 3)(2 6)\n(2 6)\n(1 5 3)(2 4 6)\n(2 4 6)\n', ''),
    'det-closed': (0, '-85+30i\n', ''),
    'det-formula': (0, '-85+30i\n', ''),
    'det-cauchy-binet': (0, '-85+30i\n', ''),
    'det-naive': (0, '-85+30i\n', ''),
    'per-closed': (0, '51-18i\n', ''),
    'per-formula': (0, '51-18i\n', ''),
    'per-naive': (0, '51-18i\n', ''),
    'gmf-formula': (0, '12+24i\n', ''),
    'gmf-naive': (0, '12+24i\n', ''),
    'block-gmf-block': (0, '-416-288i\n', ''),
    'block-gmf-naive': (0, '-416-288i\n', ''),
    's-det': (0, '-4\n', ''),
    'psd': (0, 'PSD: k=3 m=-2 pi=(1 2)(3 4) (condition 2)\n', ''),
    'not-psd': (0, 'not PSD\n', ''),
    'singvals': (0, '2.90931291118 2.2360679775 2.2360679775 2.2360679775 2.2360679775 1.23931367493\n', ''),
    'dominance': (0, '493/160 <= 169/32: holds\n', ''),
    'bound': (0, 'lhs=325 rhs=71701 holds=True\n', ''),
    'tensor-check': (0, 'tensor=-9 formula=-9 match=True\n', ''),
    'tensor-mismatch': (4, 'tensor=1/2 formula=1 match=False\n', ''),
    'bench': (0, 'method           terms  median\nformula              2  0s\ncauchy-binet        70  0s\nnaive               24  0s\n', ''),
    'det-closed-json': (0, '{"value": {"re": "-85", "im": "30"}, "method": "closed", "terms": 4}\n', ''),
    'det-formula-json': (0, '{"value": {"re": "-85", "im": "30"}, "method": "formula", "terms": 4}\n', ''),
    'det-cauchy-binet-json': (0, '{"value": {"re": "-85", "im": "30"}, "method": "cauchy-binet", "terms": 924}\n', ''),
    'det-naive-json': (0, '{"value": {"re": "-85", "im": "30"}, "method": "naive", "terms": 720}\n', ''),
    'per-closed-json': (0, '{"value": {"re": "51", "im": "-18"}, "method": "closed", "terms": 4}\n', ''),
    'per-formula-json': (0, '{"value": {"re": "51", "im": "-18"}, "method": "formula", "terms": 4}\n', ''),
    'per-naive-json': (0, '{"value": {"re": "51", "im": "-18"}, "method": "naive", "terms": 720}\n', ''),
    'gmf-formula-json': (0, '{"value": {"re": "12", "im": "24"}, "method": "formula", "terms": 2}\n', ''),
    'gmf-naive-json': (0, '{"value": {"re": "12", "im": "24"}, "method": "naive", "terms": 24}\n', ''),
    'block-gmf-block-json': (0, '{"value": {"re": "-416", "im": "-288"}, "method": "block", "terms": 8}\n', ''),
    'block-gmf-naive-json': (0, '{"value": {"re": "-416", "im": "-288"}, "method": "naive", "terms": 5040}\n', ''),
    's-det-json': (0, '{"value": {"re": "-4", "im": "0"}}\n', ''),
    'psd-json': (0, '{"psd": true, "k": "3", "m": "-2", "pi": "(1 2)(3 4)", "condition": 2}\n', ''),
    'not-psd-json': (0, '{"psd": false}\n', ''),
    'singvals-json': (0, '{"values": [2.9093129111764098, 2.23606797749979, 2.23606797749979, 2.23606797749979, 2.23606797749979, 1.2393136749274762]}\n', ''),
    'dominance-json': (0, '{"lhs": "493/160", "rhs": "169/32", "holds": true}\n', ''),
    'bound-json': (0, '{"lhs": 325.0, "rhs": 71701.0000000001, "holds": true}\n', ''),
    'tensor-check-json': (0, '{"tensor": {"re": "-9", "im": "0"}, "formula": {"re": "-9", "im": "0"}, "match": true}\n', ''),
    'tensor-mismatch-json': (4, '{"tensor": {"re": "1/2", "im": "0"}, "formula": {"re": "1", "im": "0"}, "match": false}\n', ''),
    'bench-json': (0, '[{"method": "formula", "terms": 2, "median_seconds": 0}, {"method": "cauchy-binet", "terms": 70, "median_seconds": 0}, {"method": "naive", "terms": 24, "median_seconds": 0}]\n', ''),
    'xset-json': (0, '["(1 5 3)(2 6)", "(2 6)", "(1 5 3)(2 4 6)", "(2 4 6)"]\n', ''),
    'block-gmf-unreadable': (2, '', "parse error: cannot read '{missing}': [Errno 2] No such file or directory: '{missing}'\n"),
    'block-gmf-bad-json': (2, '', "parse error: bad JSON in '{bad_json}': Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    'block-gmf-wrong-degree': (3, '', 'error: group degree 5 does not match block size 8\n'),
    'bad-k': (2, '', "parse error: bad scalar literal: '1.5x': unexpected '.' at column 2\n"),
}


@pytest.mark.parametrize("case", sorted(_pinned_argv()))
def test_pinned_output(case, tmp_path, capsys):
    spec = {
        "m": 4, "n": 2, "theta": "id", "tau": "(1 2)",
        "inner_thetas": ["(1 4 3)", "(1 4)(2 3)"], "inner_taus": ["(1 3 2)", "id"],
        "a": ["-1i", "2"], "b": ["-2", "3"],
    }
    paths = {name: str(tmp_path / f"{name}.json") for name in ("spec", "bad_json", "missing")}
    pathlib.Path(paths["spec"]).write_text(json.dumps(spec))
    pathlib.Path(paths["bad_json"]).write_text("{not json")
    argv = [arg.format(**paths) for arg in _pinned_argv()[case]]
    code, out, err = run(capsys, *argv)
    out = re.sub(r'"median_seconds": [0-9.e-]+', '"median_seconds": 0', out)
    out = re.sub(r"\d+\.\d{6}s", "0s", out)
    want_code, want_out, want_err = PINNED[case]
    assert (code, out, err) == (want_code, want_out, want_err.format(**paths))


# Values a mutation swaps in: malformed and edge-case text for every kind of
# argument, and small degrees only, so no call enumerates beyond S_6.
FUZZ_VALUES = [
    "", " ", "0", "-1", "1", "3", "5", "1/0", "2/-3", "1_0", "+3", "١", "nan", "1e2", "2+i",
    "-1i", "i", "(1 2", "(1 7)", "(0 1)", "(1,2)", "(1 2)(2 3)", "()", "id", "ID", "(1 2 3)",
    "S6", "A6", "S0", "A3", "stab:9@6", "stab:@6", "stab:1,,3@6", "gens:@6", "gens:(1 2)@6",
    "cyclic:", "cyclic:(1 2 3)@6", "irr:[3,3]", "irr:[]", "irr:[6]", "irr:[2,2,1,1]",
    "trivial", "sign", "table:missing.json", "--json", "--n", "--method", "naive", "closed",
]


def _mutate(rng, argv):
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(argv))
        op = rng.randrange(5)
        if op == 0 and len(argv) > 1:
            del argv[k]
        elif op == 1:
            argv.insert(k, argv[k])
        elif op == 2 and k + 1 < len(argv):
            argv[k], argv[k + 1] = argv[k + 1], argv[k]
        elif op == 3:
            argv[k] = rng.choice(FUZZ_VALUES)
        elif argv[k]:
            i = rng.randrange(len(argv[k]))
            argv[k] = argv[k][:i] + rng.choice("()[],:@ -/i0123456789x") + argv[k][i + 1:]
    # keep the degree at most 6: a large --n under the cap still builds its
    # identity and the n x n matrices the det routes read
    return [
        "6" if k and argv[k - 1] == "--n" and arg.strip().isdigit() and int(arg) > 6 else arg
        for k, arg in enumerate(argv)
    ]


def test_mutated_pinned_calls_exit_cleanly(tmp_path, capsys):
    # seeded argv mutations of the pinned cases: every call returns an exit
    # code (argparse's own exit counts) and raises nothing
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "m": 2, "n": 2, "theta": "id", "tau": "(1 2)", "inner_thetas": ["(1 2)", "id"],
        "inner_taus": ["id", "id"], "a": ["-1i", "2"], "b": ["-2", "3"],
    }))
    paths = {"spec": str(spec), "bad_json": str(spec), "missing": str(tmp_path / "missing")}
    pinned = [[arg.format(**paths) for arg in argv] for argv in _pinned_argv().values()]
    rng = random.Random(1618)
    codes = set()
    for _ in range(400):
        argv = _mutate(rng, rng.choice(pinned))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        codes.add(code)
    assert {0, 2, 3} <= codes
