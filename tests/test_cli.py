"""Command line behavior: payloads, exit codes, determinism.

Exit code contract: 0 success, 1 verification failure, 2 bad input,
3 not in cone, 4 I/O failure.
"""

import gc
import io
import json
import random
import sys
import time

import pytest

from betticone import asymptotics, cli, decomposition, diagrams, secant


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one main() call, argparse exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


def test_pure_over_a_wide_span_stays_fast(capsys, monkeypatch):
    # (0, 10^8) has 10^8 - 1 holes, more than n/2: the shape test sends it
    # to the run kernel, which answers within a few milliseconds; the hole
    # kernel, which would build S!/n!, is never called
    def hole_kernel(*args):
        raise AssertionError("the hole kernel took (0, 10^8)")

    monkeypatch.setattr(diagrams, "_pure_over_holes", hole_kernel)
    diagrams._pure_checked.cache_clear()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "pure", "--degseq", "0,100000000")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"] == [
        {"p": 0, "q": 0, "v": "1/100000000"},
        {"p": 1, "q": 99999999, "v": "1/100000000"},
    ]
    assert elapsed < 0.1, f"{elapsed * 1000:.1f} ms"


def test_pure_rejects_malformed_sequence(capsys):
    code, out, err = run(capsys, "pure", "--degseq", "0,0,1")
    assert code == 2
    assert "bad input" in err
    code, out, err = run(capsys, "pure", "--degseq", "0,x,2")
    assert code == 2


_SWEEP = ("sweep", "distribution", "-g", "1", "-k", "1")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("pure", "--degseq", "0,,1"), "--degseq"),
        (("pure", "--degseq", "0,3,"), "--degseq"),
        (("pure", "--degseq", "1_0,20"), "--degseq"),
        (("pure", "--degseq", "\u0660,\u0663"), "--degseq"),  # Arabic-Indic 0 and 3
        (("pure", "--degseq", "0,1.0,2"), "--degseq"),
        (("secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", "1,,3"), "--tuple"),
        (("secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", "1,3_0"), "--tuple"),
        (_SWEEP + ("--a", "0,,1", "--d", "101"), "--a"),
        (_SWEEP + ("--a", "0_5", "--d", "101"), "--a"),
        (_SWEEP + ("--a", "\u0661.5", "--d", "101"), "--a"),
        (_SWEEP + ("--a", "0", "--d", "101,,1001"), "--d"),
        (_SWEEP + ("--a", "0", "--d", "1_01"), "--d"),
        (_SWEEP + ("--a", "0", "--d", "\u0661\u0660\u0661"), "--d"),
        (_SWEEP + ("--a", "0", "--d", "101.0"), "--d"),
    ],
)
def test_comma_lists_are_strict(tmp_path, capsys, argv, flag):
    out_file = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv += ("--out", str(out_file))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"bad input: {flag} ")
    assert not out_file.exists()


def test_comma_list_refusal_names_the_item_not_the_flag_text(tmp_path, capsys):
    # the message holds the flag, the item's position and at most the first
    # 20 characters of the item, however long the list is
    zeros = "0" * 5000
    out_file = tmp_path / "out.csv"
    for argv, want in (
        (("pure", "--degseq", f"x,1{zeros}"), "--degseq item 1 ('x') is not an integer"),
        (
            ("pure", "--degseq", f"0,x{zeros}"),
            "--degseq item 2 ('x0000000000000000000'...) is not an integer",
        ),
        (_SWEEP + ("--a", f"0,{zeros},1_0", "--d", "101", "--out", str(out_file)),
         "--a item 3 ('1_0') is not a decimal number"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"bad input: {want}\n")
    assert not out_file.exists()


def test_comma_list_item_past_the_digit_limit_is_named_by_position(tmp_path, capsys):
    # an integer item of one digit more than the interpreter converts: the
    # refusal names the flag, the item's position and the limit, and
    # echoes none of the item's digits
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * limit
    out_file = tmp_path / "out.csv"
    for argv, flag, position in (
        (("pure", "--degseq", f"0,{big}"), "--degseq", 2),
        (("secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", f"1,{big}"), "--tuple", 2),
        (_SWEEP + ("--a", "0", "--d", f"{big},101", "--out", str(out_file)), "--d", 1),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), flag
        assert err == (
            f"bad input: {flag}: item {position} has more digits than the limit of "
            f"{limit} (sys.get_int_max_str_digits())\n"
        )
    assert not out_file.exists()


def test_comma_lists_read_signs_spaces_and_decimals():
    assert cli._parse_list(" 0, +3,-4 ", "--degseq") == [0, 3, -4]
    assert cli._parse_list("-1,2.,.5,1E-1", "--a", float) == [-1.0, 2.0, 0.5, 0.1]


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
    code, out, err = _call(capsys, ["secant-pure", "-g", "3", "-k", "1", "-d", "11"])
    assert code == 2


def test_secant_pure_refuses_tuple_with_dominant(capsys):
    # --tuple 9,9 is not a jump tuple: it is refused too, not dropped
    for tup in ("1,3", "9,9"):
        argv = ["secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", tup, "--dominant"]
        code, out, err = _call(capsys, argv)
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err


def test_secant_pure_that_fails_to_format_leaves_stdout_empty(capsys):
    # entries past the int-to-str digit limit fail while the diagram is
    # formatted, after its comment line is built: the command exits 2 and
    # writes no stdout, neither the comment line nor part of the diagram.
    # The one stderr line names the first cell in (p, q) order that cannot
    # be printed, and the limit. The limit is lowered here (640 is the
    # least it takes), never raised
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("json", "table"):
            argv = ["secant-pure", "-g", "1", "-k", "0", "-d", "2200", "--dominant", "--format", fmt]
            code, out, err = run(capsys, *argv)
            assert (code, len(out)) == (2, 0), fmt
            assert err == (
                "bad input: entry at (874,1) has more digits than the limit of 640 "
                "(sys.get_int_max_str_digits()) and cannot be printed\n"
            ), fmt
        params = secant.SecantParams(1, 0, 2200)
        cells = secant.secant_pure_diagram(params, secant.dominant_tuple(params)).items()
        assert all(len(str(v.numerator)) <= 640 for _, v in cells[:874])  # (p, 1) is item p
        with pytest.raises(ValueError):
            str(cells[874][1])
    finally:
        sys.set_int_max_str_digits(limit)


def test_table_past_the_ceiling_and_the_digit_limit_keeps_the_ceiling_message(capsys, monkeypatch):
    # g=1 k=2 d=2200 lays out 7 rows of 2,195 columns; its entries pass the
    # lowered limit (640, never raised here) as at k=0 above. With the
    # ceiling lowered below that rectangle, the table keeps the ceiling's
    # refusal and JSON, which has no ceiling, names the digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ["secant-pure", "-g", "1", "-k", "2", "-d", "2200", "--dominant"]
        monkeypatch.setattr(cli, "_TABLE_CELLS_MAX", 15_000)
        code, out, err = run(capsys, *argv, "--format", "table")
        assert (code, out) == (2, "")
        assert err == (
            "bad input: the table has 15365 cells, above the ceiling of 15000; use --format json\n"
        )
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("bad input: entry at (") and "the limit of 640 " in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_decompose_partial_past_the_digit_limit_is_still_not_in_cone(tmp_path, capsys):
    # every input value is below the int-to-str digit limit, but the
    # residual the peel stops at has a denominator of about twice their
    # digits, so its JSON cannot be written: the command still exits 3,
    # names the cause on stderr in place of the partial decomposition, and
    # no exception escapes main. The limit is lowered here (640 is the
    # least it takes), never raised
    d = 10**400 + 1  # d and d + 2 are odd and coprime
    cells = [{"p": 0, "q": 0, "v": f"1/{d}"}, {"p": 1, "q": 0, "v": f"2/{d + 2}"},
             {"p": 1, "q": 1, "v": "1/1"}]
    src = tmp_path / "wide.json"
    src.write_text(json.dumps({"entries": cells}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "decompose", "--input", str(src))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (3, "")
    first, second, rest = err.split("\n", 2)
    assert first == "not in cone: top strand failed: column 0 has no entries"
    assert second.startswith("partial decomposition not written: Exceeds the limit (640 digits)")
    assert rest == ""


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


@pytest.mark.parametrize(
    "v, shown",
    [
        ("123456789012345678901234567890.0", "1.2345678901234568e+29"),
        ("1.00000000000000001", "1.0"),
        ("5e-1", "0.5"),
    ],
)
def test_decompose_refuses_a_float_value(tmp_path, capsys, v, shown):
    # parsed as JSON numbers, these are doubles already: the first printed
    # as 123456789012345680000000000000/1 and the second as 1/1
    src = tmp_path / "float.json"
    src.write_text('{"entries": [{"p": 0, "q": 0, "v": %s}]}' % v)
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert (code, out) == (2, "")
    assert err == (
        f"bad input: diagram value must be a Fraction, an int or a str, got {shown}"
        " (quote it: a float is already rounded to a binary double)\n"
    )


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


def test_decode_error_names_the_byte_offset_in_the_file(tmp_path, capsys):
    src = tmp_path / "latin1.json"
    src.write_bytes(b" " * 20_013 + b"\xfe{}")  # past 8 KiB: a chunked decode counts from its chunk
    code, out, err = run(capsys, "decompose", "--input", str(src))
    assert (code, out) == (2, "")
    assert "can't decode byte 0xfe in position 20013:" in err


def test_comment_filter_drops_the_lines_that_line_iteration_drops():
    # the rule as stated: split after each "\n", drop a line whose lstrip starts with "#"
    def by_lines(text):
        return "".join(line for line in io.StringIO(text) if not line.lstrip().startswith("#"))

    blanks = [c for c in map(chr, range(0x3001)) if c.isspace()]  # every str.isspace char
    alphabet = blanks + ["#", "#", "a", "{", '"', "\r", " x"]
    rng = random.Random(12)
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert cli._COMMENT_LINE.sub("", text) == by_lines(text), repr(text)


def test_warm_decompose_leaves_no_cyclic_garbage(tmp_path, capsys):
    inside = diagrams.add(
        diagrams.scale(diagrams.pure_diagram((0, 2, 5)), 3), diagrams.pure_diagram((0, 3, 5))
    )
    gap = {(0, 0): 3, (1, 1): 2, (2, 2): 1, (2, 3): 1, (3, 4): 1}  # not in cone after 2 steps
    paths = []
    for name, b in (("inside", inside), ("gap", diagrams.BettiDiagram(gap))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text("# a comment\n" + json.dumps(b.to_json_obj(), indent=2))
    for path in paths:  # warm: the parser is built on the first call
        cli.main(["decompose", "--input", str(path)])
    gc.collect()
    gc.disable()
    try:
        codes = [cli.main(["decompose", "--input", str(path)]) for path in paths * 5]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert codes == [0, 3] * 5


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


def test_sweep_purity_step_selects_every_step_th_d(tmp_path, capsys):
    # --step 5 keeps d = 7, 12, 17 of 7..20: the rows a --step 1 sweep
    # writes for those d, in order
    argv = ("sweep", "purity", "-g", "2", "-k", "1", "--d-min", "7", "--d-max", "20")
    every, stepped = tmp_path / "every.csv", tmp_path / "stepped.csv"
    assert run(capsys, *argv, "--out", str(every)) == (0, "", "")
    assert run(capsys, *argv, "--step", "5", "--out", str(stepped)) == (0, "", "")
    header, *rows = every.read_text(encoding="utf-8").splitlines()
    want = [header] + [row for row in rows if row.split(",")[2] in ("7", "12", "17")]
    assert stepped.read_text(encoding="utf-8").splitlines() == want
    assert len(want) == 1 + 3 * 3
    for step in ("0", "-1"):
        out_file = tmp_path / f"step{step}.csv"
        code, out, err = run(capsys, *argv, "--step", step, "--out", str(out_file))
        assert (code, out, err) == (2, "", f"bad input: step must be positive, got {step}\n")
        assert not out_file.exists()


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


def test_sweep_distribution_smallest_d(tmp_path, capsys):
    out_file = tmp_path / "dist.csv"
    argv = ["sweep", "distribution", "-g", "1", "-k", "1", "--a", "0", "--out", str(out_file)]
    code, out, err = run(capsys, *argv, "--d", "5")
    assert code == 2
    assert err == "bad input: no dominant column at d=5; the first is at d=6\n"
    assert not out_file.exists()
    code, out, err = run(capsys, *argv, "--d", "6")
    assert code == 0
    assert out_file.read_text().splitlines()[1].startswith("1,1,6,5,0.0,1,")


@pytest.mark.parametrize("d", [10**16, 10**20])
def test_sweep_distribution_past_the_log_ceiling_exits_two(tmp_path, capsys, d):
    # the log path's error budget is stated up to r = 10^6; past it the
    # value read 4e24 at d = 10^16 and d = 10^20 raised OverflowError
    out_file = tmp_path / "dist.csv"
    code, out, err = run(
        capsys, "sweep", "distribution", "-g", "1", "-k", "1", "--d", f"101,{d}",
        "--out", str(out_file),
    )
    assert (code, out) == (2, "")
    assert err == (
        f"bad input: r={d - 1} is above the log path's ceiling of r = 10^6, "
        "the last r at which its error budget is stated\n"
    )
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


def test_hn_leading_suite_checks_each_tuple_once(capsys, monkeypatch):
    # jump_tuples builds every tuple valid: secant_pure_diagram's
    # degree_sequence checks it, and the suite's closed form does not again
    calls = []
    checked_tuple = secant._checked_tuple

    def spy(params, i):
        calls.append(i)
        return checked_tuple(params, i)

    monkeypatch.setattr(secant, "_checked_tuple", spy)
    code, out, err = run(
        capsys, "verify", "--suite", "hn-leading", "--g-max", "2", "--k-max", "1", "--d-max", "16",
    )
    assert (code, out, err) == (0, "hn-leading: 80/80 passed (ok)\n", "")
    assert len(calls) == 80


def _wide_hn_leading(params, i, right=secant._hn_leading):
    """_hn_leading with its denominator product widened to i = k-1 .. 2k:
    too high in r by a degree of two."""
    r, k = params.r, params.k
    return right(params, i) / ((r - k + 1) * (r - k))


def _kappa_wrong_at_column_1(params, p, right=secant.kappa_dominant):
    return right(params, p) + (p == 1)


def _pure_doubled_at_0_1(params, i, right=secant.secant_pure_diagram):
    b = right(params, i)
    return diagrams.scale(b, 2) if tuple(i) == (0, 1) else b


@pytest.mark.parametrize(
    "suite, name, wrong, first",
    [
        ("hn-leading", "_hn_leading", _wide_hn_leading, "g=1 k=0 d=3 tuple=(1,)"),
        ("dominant-kappa", "kappa_dominant", _kappa_wrong_at_column_1, "g=1 k=0 d=4 p=1"),
        ("multiplicity", "secant_pure_diagram", _pure_doubled_at_0_1, "g=1 k=1 d=5 tuple=(0, 1)"),
    ],
    ids=["hn-leading", "dominant-kappa", "multiplicity"],
)
def test_verify_rejects_a_planted_wrong_quantity(capsys, monkeypatch, suite, name, wrong, first):
    # each grid suite compares a closed form (or the family's diagram) with
    # the generic machinery; a wrong one fails and its first case is named
    monkeypatch.setattr(secant, name, wrong)
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--g-max", "1", "--k-max", "1", "--d-max", "12",
    )
    assert code == 1
    assert "(FAIL)" in out
    assert err == f"{suite}: first failure at {first}\n"


def test_verify_alt_denominator_flag_is_gone(capsys):
    code, out, err = _call(capsys, ["verify", "--suite", "hn-leading", "--alt-denominator"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --alt-denominator" in err


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


def _forbid_building(monkeypatch):
    """Spies that fail the test on any call that lists tuples or builds a
    diagram, so an oversized run is never started."""
    def forbidden(*args):
        raise AssertionError("verify started building before its ceiling check")

    for module, name in (
        (secant, "jump_tuples"),
        (secant, "secant_pure_diagram"),
        (secant, "dominant_tuple"),
        (diagrams, "pure_diagram"),
    ):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize(
    "argv, chosen",
    [
        # C(61, 31), about 2.3 * 10^17, tuples at (g, k) = (30, 30) alone
        (("multiplicity", "--g-max", "30", "--k-max", "30", "--d-max", "200"),
         "--g-max 30 --k-max 30 --d-max 200"),
        (("hn-leading", "--g-max", "30", "--k-max", "30", "--d-max", "200"),
         "--g-max 30 --k-max 30 --d-max 200"),
        (("dominant-kappa", "--d-max", "1000000"), "--g-max 3 --k-max 2 --d-max 1000000"),
        (("multiplicity", "--g-max", "1", "--k-max", "0", "--d-max", str(10**1000)),
         f"--g-max 1 --k-max 0 --d-max {10**1000}"),
        (("herzog-kuhl", "--count", "10000000"), "--count 10000000"),
    ],
    ids=["multiplicity", "hn-leading", "dominant-kappa", "huge-d", "herzog-kuhl"],
)
def test_verify_refuses_an_oversized_run_before_building(capsys, monkeypatch, argv, chosen):
    _forbid_building(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", *argv)
    ceiling = f"more than {cli._VERIFY_ENTRIES_MAX} entries, the ceiling"
    assert (code, out) == (2, "")
    assert err == f"bad input: {argv[0]}: {chosen} would compute {ceiling}\n"


def test_verify_ceiling_boundary(capsys, monkeypatch):
    # the grid suites' prediction is the columns they build, exactly; at a
    # ceiling equal to it the run goes ahead, one below it is refused first
    for suite in ("multiplicity", "hn-leading", "dominant-kappa"):
        argv = ["verify", "--suite", suite, "--g-max", "3", "--k-max", "2", "--d-max", "14"]
        columns = []
        with monkeypatch.context() as patch:
            pure = secant.pure_diagram
            patch.setattr(secant, "pure_diagram", lambda e: columns.append(len(e)) or pure(e))
            predicted = cli._verify_entries(cli._parse_args(argv))  # below the real ceiling
            patch.setattr(cli, "_VERIFY_ENTRIES_MAX", predicted)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), suite
            assert sum(columns) == predicted, suite
            patch.setattr(cli, "_VERIFY_ENTRIES_MAX", predicted - 1)
            _forbid_building(patch)
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), suite
            assert err.endswith(f"would compute more than {predicted - 1} entries, the ceiling\n")
    # herzog-kuhl: 12 columns and 11 sums of 12 terms per sequence, at most
    args = cli._parse_args(["verify", "--suite", "herzog-kuhl", "--count", "40"])
    assert cli._verify_entries(args) == 40 * 144


def test_verify_ceiling_admits_every_documented_run():
    # the README's, CI's, the frozen cases' and the tests' verify runs; the
    # largest is CI's multiplicity suite at d <= 120
    runs = [
        ["--suite", "multiplicity", "--g-max", "4", "--k-max", "3", "--d-max", "120"],
        ["--suite", "hn-leading", "--g-max", "4", "--k-max", "3", "--d-max", "120"],
        ["--suite", "multiplicity", "--d-max", "120"],
        ["--suite", "dominant-kappa", "--d-max", "120"],
        ["--suite", "hn-leading", "--d-max", "120"],
        ["--suite", "multiplicity", "--g-max", "4", "--k-max", "3", "--d-max", "60"],
        ["--suite", "dominant-kappa"],
        ["--suite", "herzog-kuhl", "--count", "500", "--seed", "0"],
    ]
    entries = [cli._verify_entries(cli._parse_args(["verify", *argv])) for argv in runs]
    assert entries[0] == 1_536_120
    assert max(entries) == entries[0] <= cli._VERIFY_ENTRIES_MAX


def test_calibrate_zero_denominator_threshold(capsys):
    code, out, err = run(
        capsys, "calibrate", "-g", "2", "-k", "1", "--d-max", "50", "--threshold", "1/0",
    )
    assert code == 2
    assert out == ""
    assert err == "bad input: threshold 1/0 has a zero denominator\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("sweep", "distribution", "-g", "1", "-k", "0", "--a", "0"),
            "distribution sweep needs --d",
        ),
        (
            ("calibrate", "-g", "2", "-k", "1", "--d-max", "50", "--threshold", "2"),
            "bound never holds through d_max=50; last failure at 50",
        ),
    ],
)
def test_request_that_cannot_be_met_is_bad_input(tmp_path, capsys, argv, message):
    out_file = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert (code, out, err) == (2, "", f"bad input: {message}\n")
    assert not out_file.exists()


@pytest.fixture
def digit_limit():
    """The interpreter's default int digit limit, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_top_strand_past_the_digit_limit_is_still_not_in_cone(tmp_path, capsys, digit_limit):
    # three unit cells whose top strand (0, 10^4300, 2) holds an entry past
    # the digit limit, though every value read is below it: the command
    # exits 3 and names the first column where the strand stops
    # increasing; a strand that prints is named whole, as before
    for q, named in (
        (10**digit_limit - 1, "top strand is not strictly increasing at column 2"),
        (10, "top strand (0, 11, 2) is not strictly increasing"),
    ):
        cells = [{"p": 0, "q": 0, "v": "1/1"}, {"p": 1, "q": q, "v": "1/1"},
                 {"p": 2, "q": 0, "v": "1/1"}]
        src = tmp_path / "strand.json"
        src.write_text(json.dumps({"entries": cells}))
        code, out, err = run(capsys, "decompose", "--input", str(src))
        assert (code, out) == (3, "")
        assert err.startswith("not in cone: ")
        assert err.split("\n", 1)[0] == f"not in cone: top strand failed: {named}"


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


@pytest.mark.parametrize("limit", [4300, 640])
@pytest.mark.parametrize("field", ["p", "q", "v"])
def test_json_integer_past_the_digit_limit_names_the_limit(tmp_path, capsys, digit_limit, field, limit):
    # json.loads reads an integer literal by int(), whose refusal past the
    # digit limit advises raising it; the file's refusal names the limit
    # alone, as a comma list's does, and a literal at the limit still reads
    sys.set_int_max_str_digits(limit)  # the fixture restores the old limit
    src = tmp_path / "big.json"
    for digits in (limit + 1, limit):
        cell = {"p": "0", "q": "0", "v": "1", field: "7" * digits}
        src.write_text('{"entries": [{%s}]}' % ", ".join(f'"{k}": {v}' for k, v in cell.items()))
        code, out, err = run(capsys, "decompose", "--input", str(src))
        if digits == limit:  # read; a lone cell past column 0 is not in the cone
            assert code == (3 if field == "p" else 0) and "more digits" not in err
            continue
        assert (code, out) == (2, "")
        assert err == (
            f"bad input: a JSON integer has more digits than the limit of {limit} "
            "(sys.get_int_max_str_digits())\n"
        )


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


def test_parser_reuse_leaks_nothing_between_calls(capsys):
    verify = ["verify", "--suite", "herzog-kuhl", "--count", "3"]
    secant_pure = ["secant-pure", "-g", "3", "-k", "1", "-d", "11"]
    sequence = [
        (verify + ["--seed", "5"], 0),
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
    assert together[0][1] != together[1][1]  # --seed 5 did not stick
    assert together[2][1] != together[3][1]  # --dominant did not stick
    assert together[6][1].startswith("usage: betticone")


def test_table_over_the_cell_ceiling_exits_two_before_any_row(capsys):
    # (0, 10^8) is two cells as JSON but 2 * 10^8 as a table: the count is
    # taken from the support, so the refusal comes at once
    start = time.perf_counter()
    code, out, err = run(capsys, "pure", "--degseq", "0,100000000", "--format", "table")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    ceiling = cli._TABLE_CELLS_MAX
    assert err == (
        f"bad input: the table has 200000000 cells, above the ceiling of {ceiling}; "
        "use --format json\n"
    )


@pytest.mark.parametrize("command", [
    ("sweep", "purity", "-g", "2", "-k", "1", "--d-min", "7"),
    ("calibrate", "-g", "2", "-k", "1"),
])
def test_purity_rows_over_the_ceiling_exit_two_at_once(tmp_path, capsys, command):
    # 10^9 - 6 rows would take hours; the count is taken from the arguments
    out_file = tmp_path / "out"
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--d-max", "1000000000", "--out", str(out_file))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "bad input: purity sweep of 999999994 rows exceeds the ceiling of "
        f"{asymptotics._PURITY_ROWS_MAX} rows\n"
    )
    assert not out_file.exists()


def test_table_cell_ceiling_boundary():
    # one column of rows 0..q: q + 1 cells, counted without rendering
    ceiling = cli._TABLE_CELLS_MAX
    at = diagrams.BettiDiagram({(0, 0): 1, (0, ceiling - 1): 1})
    assert cli._table_rectangle(at) == (0, ceiling - 1, 0)
    past = diagrams.BettiDiagram({(0, 0): 1, (0, ceiling): 1})
    message = f"has {ceiling + 1} cells, above the ceiling of {ceiling}"
    with pytest.raises(ValueError, match=message):
        cli._table_rectangle(past)
    # a negative least weight widens the rectangle down to it
    low = diagrams.BettiDiagram({(1, -1): 1, (1, ceiling // 2 - 2): 1})
    assert cli._table_rectangle(low) == (-1, ceiling // 2 - 2, 1)
    with pytest.raises(ValueError, match=f"has {ceiling + 2} cells"):
        cli._table_rectangle(diagrams.add(low, diagrams.BettiDiagram({(0, ceiling // 2 - 1): 1})))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["pure", "--degseq", "0,0"], 2),
        (["secant-pure", "-g", "1", "-k", "0", "-d", "2", "--dominant"], 2),
        (["decompose", "--input", "{gap}"], 3),
        (["decompose", "--input", "{missing}"], 4),
        (["sweep", "purity", "-g", "1", "-k", "0", "--d-min", "10", "--d-max", "5",
          "--out", "{csv}"], 2),
        (["verify", "--suite", "multiplicity", "--g-max", "0"], 2),
        (["calibrate", "-g", "2", "-k", "1", "--d-max", "50", "--threshold", "1/0"], 2),
    ],
)
def test_every_failing_exit_leaves_stdout_empty(tmp_path, capsys, argv, expected):
    # exits 2, 3 and 4 report on stderr alone; verify's exit 1 prints its
    # summary line by design and is not among these
    gap = tmp_path / "gap.json"  # column 1 is empty
    gap.write_text(
        json.dumps({"entries": [{"p": 0, "q": 0, "v": "1/1"}, {"p": 2, "q": 0, "v": "1/1"}]})
    )
    paths = {"gap": gap, "missing": tmp_path / "missing.json", "csv": tmp_path / "out.csv"}
    code, out, err = _call(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out) == (expected, "")
    assert err
