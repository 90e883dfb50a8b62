"""Command line behavior: payloads, exit codes, determinism.

Exit code contract: 0 success, 1 verification failure, 2 bad input,
3 not in cone, 4 I/O failure.
"""

import json
import sys

import pytest

from betticone import cli, decomposition, diagrams


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pure_json_payload(capsys):
    code, out, err = run(capsys, "pure", "--degseq", "0,1,2")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "entries": [
            {"p": 0, "q": 0, "v": "1/1"},
            {"p": 1, "q": 0, "v": "2/1"},
            {"p": 2, "q": 0, "v": "1/1"},
        ]
    }


def test_pure_table_payload(capsys):
    code, out, err = run(capsys, "pure", "--degseq", "0,1,2", "--format", "table")
    assert code == 0
    assert out == "   0  1  2\n0  1  2  1\n"


def test_pure_table_star_pattern(capsys):
    code, out, err = run(capsys, "pure", "--degseq", "0,3,4,6,7,9", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    # 6 columns, rows 0..4, zeros inside the rectangle printed as "-"
    assert lines[1].split() == ["0", "5/189", "-", "-", "-", "-", "-"]
    assert lines[3].split() == ["2", "-", "5/9", "1", "-", "-", "-"]
    assert lines[5].split() == ["4", "-", "-", "-", "-", "-", "2/27"]


def test_pure_rejects_malformed_sequence(capsys):
    code, out, err = run(capsys, "pure", "--degseq", "0,0,1")
    assert code == 2
    assert "bad input" in err
    code, out, err = run(capsys, "pure", "--degseq", "0,x,2")
    assert code == 2


def test_pure_negative_degrees_in_equals_form(capsys):
    # argparse reads a bare "-3,-1,0,5" as an option; the = form passes it
    code, out, err = run(capsys, "pure", "--degseq=-3,-1,0,5")
    assert code == 0
    assert out == json.dumps(diagrams.pure_diagram((-3, -1, 0, 5)).to_json_obj(), indent=2) + "\n"


def test_secant_pure_comment_line_and_payload(capsys):
    code, out, err = run(capsys, "secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", "1,3")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "# degseq: 0,3,4,6,7,9"
    obj = json.loads(rest)
    assert {"p": 5, "q": 4, "v": "2/27"} in obj["entries"]


def test_secant_pure_dominant_flag(capsys):
    code, out, err = run(capsys, "secant-pure", "-g", "3", "-k", "1", "-d", "11", "--dominant")
    assert code == 0
    assert out.startswith("# degseq: 0,3,4,7,8,9\n")


def test_secant_pure_needs_a_tuple(capsys):
    code, out, err = run(capsys, "secant-pure", "-g", "3", "-k", "1", "-d", "11")
    assert code == 2


def test_secant_pure_rejects_small_d(capsys):
    code, out, err = run(capsys, "secant-pure", "-g", "3", "-k", "1", "-d", "8", "--tuple", "1,3")
    assert code == 2
    assert "2g + 2k + 1" in err


def test_round_trip_pure_decompose(tmp_path, capsys):
    code, out, err = run(capsys, "secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", "1,3")
    assert code == 0
    src = tmp_path / "diagram.json"
    src.write_text(out)  # includes the comment line; the reader must skip it

    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert code == 0
    dec = json.loads(out)
    assert dec["residual"] is None
    assert dec["summands"] == [{"c": "1/1", "e": [0, 3, 4, 6, 7, 9]}]


def test_decompose_missing_file(capsys):
    code, out, err = run(capsys, "decompose", "--input", "/no/such/file.json")
    assert code == 4
    assert "i/o error" in err


def test_decompose_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "decompose", "--input", str(bad))
    assert code == 2


@pytest.mark.parametrize("cell", [
    {"p": 1.7, "q": 0, "v": "1/1"},
    {"p": 0, "q": 0.5, "v": "1/1"},
    {"p": 1.0, "q": 0, "v": "1/1"},
    {"p": "1", "q": 0, "v": "1/1"},
    {"p": True, "q": 0, "v": "1/1"},
])
def test_decompose_rejects_non_integer_column(tmp_path, capsys, cell):
    src = tmp_path / "float.json"
    src.write_text(json.dumps({"entries": [{"p": 0, "q": 0, "v": "1/1"}, cell]}))
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert code == 2
    assert err.startswith("bad input:")
    assert out == ""


def test_decompose_deeply_nested_json(tmp_path, capsys):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000)
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert code == 2
    assert err.startswith("bad input:")


def test_decompose_negative_entry(tmp_path, capsys):
    src = tmp_path / "neg.json"
    src.write_text(json.dumps({"entries": [{"p": 0, "q": 0, "v": "-1/2"}]}))
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert code == 2
    assert "negative" in err


def test_decompose_outside_cone(tmp_path, capsys):
    src = tmp_path / "gap.json"
    src.write_text(
        json.dumps({"entries": [{"p": 0, "q": 0, "v": "1/1"}, {"p": 2, "q": 0, "v": "1/1"}]})
    )
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert code == 3
    assert "not in cone" in err
    assert "column 1" in err


def test_sweep_purity_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "purity.csv"
    code, out, err = run(
        capsys, "sweep", "purity", "-g", "2", "-k", "1",
        "--d-min", "7", "--d-max", "9", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "g,k,d,r,quantity,value_num,value_den"
    assert lines[1] == "2,1,7,5,lower_bound,5,13"
    assert len(lines) == 10


def test_sweep_distribution_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "dist.csv"
    code, out, err = run(
        capsys, "sweep", "distribution", "-g", "1", "-k", "1",
        "--a", "0,1", "--d", "101", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "g,k,d,r,a,p,value,limit"
    assert len(lines) == 3


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
def test_sweep_distribution_non_finite_a(tmp_path, capsys, a):
    out_file = tmp_path / "dist.csv"
    code, out, err = run(
        capsys, "sweep", "distribution", "-g", "1", "-k", "1",
        f"--a={a}", "--d", "101", "--out", str(out_file),
    )
    assert code == 2
    assert err.startswith("bad input:")
    assert not out_file.exists()


def test_sweep_purity_needs_range(capsys):
    code, out, err = run(capsys, "sweep", "purity", "-g", "2", "-k", "1", "--out", "/tmp/x.csv")
    assert code == 2


def test_sweep_purity_bad_range(tmp_path, capsys):
    code, out, err = run(
        capsys, "sweep", "purity", "-g", "2", "-k", "1",
        "--d-min", "3", "--d-max", "9", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_sweep_unwritable_path(capsys):
    code, out, err = run(
        capsys, "sweep", "purity", "-g", "2", "-k", "1",
        "--d-min", "7", "--d-max", "8", "--out", "/no/such/dir/x.csv",
    )
    assert code == 4


def test_verify_suites_pass(capsys):
    for suite in ("multiplicity", "dominant-kappa", "hn-leading"):
        code, out, err = run(
            capsys, "verify", "--suite", suite,
            "--g-max", "2", "--k-max", "1", "--d-max", "16",
        )
        assert code == 0, suite
        assert "(ok)" in out
        assert err == ""
    code, out, err = run(capsys, "verify", "--suite", "herzog-kuhl", "--count", "40")
    assert code == 0
    assert "(ok)" in out


def test_verify_alt_denominator_fails(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "hn-leading",
        "--g-max", "1", "--k-max", "1", "--d-max", "12", "--alt-denominator",
    )
    assert code == 1
    assert "(FAIL)" in out
    assert err == "hn-leading: first failure at g=1 k=0 d=3 tuple=(1,)\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--suite", "multiplicity", "--g-max", "0"), "--g-max 0"),
        (("--suite", "hn-leading", "--d-max", "2"), "--d-max 2"),
        # the grid holds (1, 0, 3), whose dominant strand has no interior column
        (("--suite", "dominant-kappa", "--g-max", "1", "--k-max", "0", "--d-max", "3"), "--d-max 3"),
        (("--suite", "herzog-kuhl", "--count", "0"), "--count 0"),
        (("--suite", "herzog-kuhl", "--count", "-3"), "--count -3"),
    ],
)
def test_verify_empty_selection_is_bad_input(capsys, argv, named):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("bad input: ")
    assert "selects no case" in err and named in err


def test_calibrate_zero_denominator_threshold(capsys):
    code, out, err = run(
        capsys, "calibrate", "-g", "2", "-k", "1", "--d-max", "50", "--threshold", "1/0",
    )
    assert code == 2
    assert out == ""
    assert err == "bad input: threshold 1/0 has a zero denominator\n"


@pytest.fixture
def digit_limit():
    """The interpreter's default int digit limit, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "text", ["1e4300", "-1E-4300", "1e4_300", "2.5e+3000000", " 7e0000010000 "]
)
def test_exponent_past_digit_limit_refused_by_every_reader(tmp_path, capsys, digit_limit, text):
    # Fraction would build 10**|exponent| first: seconds for 1e3000000
    src = tmp_path / "big.json"
    src.write_text(json.dumps({"entries": [{"p": 0, "q": 0, "v": text}]}))
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("bad input: diagram value") and "exponent" in err
    code, out, err = run(
        capsys, "calibrate", "-g", "2", "-k", "1", "--d-max", "50", f"--threshold={text}"
    )
    assert (code, out) == (2, "")
    assert err.startswith("bad input: threshold") and "exponent" in err
    with pytest.raises(ValueError, match="exponent"):
        decomposition.Decomposition.from_json_obj({"summands": [{"c": text, "e": [0, 1]}]})


def test_exponent_below_digit_limit_read_exactly(digit_limit):
    obj = {"entries": [{"p": 0, "q": 0, "v": "1e4299"}, {"p": 1, "q": 0, "v": "3E-4_299"}]}
    b = diagrams.BettiDiagram.from_json_obj(obj)
    assert b.get(0, 0) == 10**4299
    assert b.get(1, 0) * 10**4299 == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("calibrate", "-g", "1", "-k", "0", "--d-max", "2"),
        ("sweep", "purity", "-g", "1", "-k", "0", "--d-min", "10", "--d-max", "5"),
        ("sweep", "distribution", "-g", "1", "-k", "1", "--a", "", "--d", "101"),
        ("sweep", "distribution", "-g", "1", "-k", "1", "--a", "0", "--d", ""),
    ],
)
def test_empty_range_is_bad_input(tmp_path, capsys, argv):
    out_file = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.startswith("bad input: ")
    assert "None" not in err
    assert not out_file.exists()


def test_calibrate_stdout(capsys):
    code, out, err = run(capsys, "calibrate", "-g", "2", "-k", "1", "--d-max", "450")
    assert code == 0
    obj = json.loads(out)
    assert obj["purity_d_star"] == 401
    assert obj["threshold"] == "99/100"
    assert set(obj) == {
        "g", "k", "d_min", "d_max", "threshold",
        "purity_d_star", "max_r_gap", "r_gap_limit",
    }


def test_calibrate_to_file(tmp_path, capsys):
    out_file = tmp_path / "calib.json"
    code, out, err = run(
        capsys, "calibrate", "-g", "2", "-k", "1", "--d-max", "450", "--out", str(out_file),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["purity_d_star"] == 401


def test_stdout_is_deterministic(capsys):
    argv = ["secant-pure", "-g", "4", "-k", "2", "-d", "15", "--tuple", "1,3,3", "--format", "table"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main() call, argparse exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    verify = ["verify", "--suite", "hn-leading", "--g-max", "1", "--k-max", "1", "--d-max", "12"]
    secant_pure = ["secant-pure", "-g", "3", "-k", "1", "-d", "11"]
    sequence = [
        (verify + ["--alt-denominator"], 1),
        (verify, 0),
        (secant_pure + ["--dominant"], 0),
        (secant_pure + ["--tuple", "1,3"], 0),
        (["pure", "--format", "table"], 2),  # --degseq missing: argparse exits
        (["pure", "--degseq", "0,1,2", "--format", "table"], 0),
        (["--help"], 0),
        (["--help"], 0),
        (["decompose", "--help"], 0),
        (["decompose", "--help"], 0),
    ]
    cli._parser.cache_clear()
    together = [_call(capsys, argv) for argv, _ in sequence]
    alone = []
    for argv, _ in sequence:
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(_call(capsys, argv))
    assert together == alone
    assert [code for code, _, _ in together] == [code for _, code in sequence]
    assert together[2][1] != together[3][1]  # --dominant did not stick
    assert together[6][1].startswith("usage: betticone")
