"""Frozen CLI output: one sha256 per case, pinned across commits.

Each digest covers the exit code, stdout, stderr and the bytes of any file
the command wrote, with the temporary directory's path replaced by a fixed
token. The cases are the README's commands (shrunk where the full command
would take a large share of the suite's time; each shrink is named below),
seeded `decompose` inputs that end in exit codes 0, 2 and 3, and edge cases:
of the JSON boundary (value spellings around the canonical "n/d", the digit
limit, the comment rule), a long `pure --format json`, and `sweep
distribution` at the smallest d.

The digests in tests/fixtures/cli_digests.json were written by this module
run as a script, from a checkout whose CLI output was known good:

    PYTHONPATH=src python tests/test_cli_frozen.py

Regenerate them only for a change that is meant to alter the CLI's bytes,
and say so with the change. The same script with --check writes nothing:
it compares every case with the fixture and exits 1 naming the cases that
differ, so an interpreter without pytest can run the check too:

    PYTHONPATH=src python tests/test_cli_frozen.py --check

The `sweep distribution` CSVs hold floats from math.lgamma and math.exp,
so their digests also pin the platform's libm (written on x86_64 Linux,
Python 3.11).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from betticone import cli

FIXTURE = Path(__file__).parent / "fixtures" / "cli_digests.json"

# The README's commands in order. "{tmp}" is a scratch directory; a command
# that writes a file is digested with that file's bytes.
README_CASES = {
    "pure-table": ["pure", "--degseq", "0,3,4,6,7,9", "--format", "table"],
    "pure-negative": ["pure", "--degseq=-3,-1,0,5"],
    "secant-pure-tuple": ["secant-pure", "-g", "3", "-k", "1", "-d", "11", "--tuple", "1,3"],
    "secant-pure-dominant": ["secant-pure", "-g", "3", "-k", "1", "-d", "11", "--dominant"],
    # reads the file the secant-pure command above writes (see _readme_files)
    "decompose-secant": ["decompose", "--input", "{tmp}/diagram.json"],
    # shrunk: --d-max 5000 -> 400 (0.17 s -> 0.01 s); 400 still covers d = 7..400
    "sweep-purity": [
        "sweep", "purity", "-g", "2", "-k", "1", "--d-min", "7", "--d-max", "400",
        "--out", "{tmp}/purity.csv",
    ],
    "sweep-distribution": [
        "sweep", "distribution", "-g", "1", "-k", "1", "--a", "0,0.5,1",
        "--d", "101,1001,10001", "--out", "{tmp}/dist.csv",
    ],
    "sweep-distribution-negative": [
        "sweep", "distribution", "-g", "1", "-k", "1", "--a=-1,2", "--d", "101",
        "--out", "{tmp}/dist.csv",
    ],
    # shrunk: --d-max 60 -> 16 (2.7 s -> about 0.1 s)
    "verify-multiplicity": [
        "verify", "--suite", "multiplicity", "--g-max", "4", "--k-max", "3", "--d-max", "16",
    ],
    # shrunk: the default --d-max 40 -> 24 (0.10 s -> about 0.04 s)
    "verify-dominant-kappa": ["verify", "--suite", "dominant-kappa", "--d-max", "24"],
    # shrunk: the default --d-max 40 -> 20 (0.21 s -> about 0.05 s)
    "verify-hn-leading": ["verify", "--suite", "hn-leading", "--d-max", "20"],
    # shrunk: --count 500 -> 100 (0.41 s -> 0.08 s)
    "verify-herzog-kuhl": ["verify", "--suite", "herzog-kuhl", "--count", "100", "--seed", "0"],
    # shrunk: --d-max 5000 -> 450 (0.21 s -> 0.02 s); the crossing at d = 401 stays inside
    "calibrate": [
        "calibrate", "-g", "2", "-k", "1", "--d-max", "450", "--out", "{tmp}/calibration.json",
    ],
}

DECOMPOSE_SEED = 20261018
DECOMPOSE_COUNT = 80


def _pure_column(e, p):
    """Herzog-Kuhl entry of column p of the multiplicity-1 pure diagram of e,
    straight from the formula: n! / prod_{i != p} |e_i - e_p|."""
    den = math.prod(abs(x - e[p]) for i, x in enumerate(e) if i != p)
    return Fraction(math.factorial(len(e) - 1), den)


def _value(rng, v: Fraction):
    """One spelling of v, as diagram JSON may carry it."""
    form = rng.randrange(6)
    if form == 0 and v.denominator == 1:
        return v.numerator  # a JSON integer
    if form == 1:
        m = rng.randint(2, 9)  # not in lowest terms
        return f"{v.numerator * m}/{v.denominator * m}"
    return f"{v.numerator}/{v.denominator}"


def _chain(rng):
    """Degree sequences of one length, each entrywise above the last."""
    n = rng.randint(1, 5)
    seq = sorted(rng.sample(range(-2, 3 * n + 4), n + 1))
    chain = [tuple(seq)]
    for _ in range(rng.randint(0, 3)):
        seq = list(seq)
        for i in sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)), reverse=True):
            seq[i] += 1
            while i + 1 <= n and seq[i] >= seq[i + 1]:
                seq[i + 1] = seq[i] + 1
                i += 1
        chain.append(tuple(seq))
    return chain


def _cells(rng, table):
    """Diagram JSON cells of table in a shuffled order, some split in two."""
    cells = []
    for (p, q), v in table.items():
        if rng.random() < 0.2:
            part = v * Fraction(rng.randint(1, 4), 5)
            cells += [{"p": p, "q": q, "v": _value(rng, part)},
                      {"p": p, "q": q, "v": _value(rng, v - part)}]
        else:
            cells.append({"p": p, "q": q, "v": _value(rng, v)})
    rng.shuffle(cells)
    return cells


def _in_cone(rng):
    table = {}
    for e in _chain(rng):
        c = Fraction(rng.randint(1, 30), rng.randint(1, 12))
        for p in range(len(e)):
            key = (p, e[p] - p)
            table[key] = table.get(key, 0) + c * _pure_column(e, p)
    return {"entries": _cells(rng, table)}


def _random_table(rng):
    """Positive entries on random cells, now and then with a column left
    empty: mostly outside the cone, some in it."""
    pd = rng.randint(0, 4)
    gap = rng.randint(1, pd) if pd > 1 and rng.random() < 0.25 else None
    table = {}
    for p in range(pd + 1):
        if p != gap:
            for q in rng.sample(range(0, 4), rng.randint(1, 2)):
                table[(p, q)] = Fraction(rng.randint(1, 40), rng.randint(1, 9))
    return {"entries": _cells(rng, table)}


_MALFORMED = [
    '{"entries": [{"p": 0, "q": 0, "v": "-1/2"}, {"p": 1, "q": 1, "v": "3"}]}',
    '{"entries": [{"p": 0.0, "q": 0, "v": "1"}]}',
    '{"entries": [{"p": 0, "q": true, "v": "1"}]}',
    '{"entries": [{"p": 0, "q": 0, "v": "1/0"}]}',
    '{"entries": [{"p": 0, "q": 0, "v": "abc"}]}',
    '{"entries": [{"p": 0, "q": 0, "v": null}]}',
    '{"entries": [{"p": 0, "q": 0}]}',
    '{"entries": [{"p": -1, "q": 0, "v": "1"}]}',
    '{"entries": []}',
    '{"entries": [{"p": 0, "q": 0, "v": "1"}, {"p": 0, "q": 0, "v": "-1"}]}',
    '{"entries": {"p": 0}}',
    '[1, 2, 3]',
    '{"entries": [{"p": 0, "q": 0, "v": "1"}',
    '[' * 10000 + ']' * 10000,
    '',
    '# only a comment\n',
]


def _one_cell(v) -> str:
    return json.dumps({"entries": [{"p": 0, "q": 0, "v": v}]}, ensure_ascii=False) + "\n"


_LIMIT_DIGITS = "7" * 4300  # sys.get_int_max_str_digits() by default
_CRLF_DIAGRAM = '{\r\n  "entries": [\r\n    {"p": 0, "q": 0, "v": "9/4"}\r\n  ]\r\n}\r\n'

# Diagram files at the edges of the reader. A comment line is one whose
# first non-blank character is "#"; lines end at "\n", "\r\n" or "\r", not
# at the other characters str.splitlines splits on (\x0c, U+2028, ...).
EDGE_FILES = {
    "digits-4300-numerator": _one_cell(f"{_LIMIT_DIGITS}/3"),
    "digits-4301-numerator": _one_cell(f"{_LIMIT_DIGITS}7/3"),
    "digits-4300-denominator": _one_cell(f"3/{_LIMIT_DIGITS}"),
    "digits-4301-denominator": _one_cell(f"3/{_LIMIT_DIGITS}7"),
    "plus-sign": _one_cell("+1/2"),
    "leading-space": _one_cell(" 1/2"),
    "underscore": _one_cell("1_0/3"),
    "leading-zeros": _one_cell("007/3"),
    "negative-zero": _one_cell("-0/5"),
    "negative": _one_cell("-7/3"),
    "arabic-indic-digit": _one_cell("\u0663/2"),
    "exponent": _one_cell("1e-3"),
    "zero-denominator": _one_cell("3/0"),
    "hash-in-string": '{"entries": [{"p": 0, "q": 0, "v": "1/2", "note": "# not a comment"}]}\n',
    "indented-comments": "   # indented comment\n\t# tab comment\n" + _one_cell("1/2"),
    "comment-inside-object": '{"entries": [{"p": 0, "q": 0, "v":\n  # a comment line\n  "5/2"}]}',
    "crlf-comments": "# degseq: 0\r\n" + _CRLF_DIAGRAM + "  # trailing\r\n",
    "cr-comments": ("# degseq: 0\r" + _CRLF_DIAGRAM + "# trailing").replace("\r\n", "\r"),
    "crlf-comment-malformed": "# degseq: 0\r\n" + _CRLF_DIAGRAM[:-5],
    "formfeed-after-comment": "# comment\x0c" + _one_cell("1/2"),
    "line-separator-after-comment": "# comment\u2028" + _one_cell("1/2"),
    "next-line-after-comment": "# comment\x85" + _one_cell("1/2"),
    # the reader checks every cell's shape and value before any index: the
    # later bad value is named, not the earlier bad index
    "bad-index-then-bad-value": (
        '{"entries": [{"p": 0.5, "q": 0, "v": "1/2"}, {"p": 0, "q": 0, "v": "abc"}]}\n'
    ),
    "bad-value-then-bad-index": (
        '{"entries": [{"p": 0, "q": 0, "v": "1/0"}, {"p": -1, "q": 0, "v": "1/2"}]}\n'
    ),
    # duplicates of (1,1) over unlike denominators cancel; (0,0) and (1,0) stay
    "duplicates-sum-to-zero": json.dumps({"entries": [
        {"p": 0, "q": 0, "v": "1/2"}, {"p": 1, "q": 1, "v": "1/3"}, {"p": 1, "q": 0, "v": "1/2"},
        {"p": 1, "q": 1, "v": "-2/6"}, {"p": 0, "q": 0, "v": "1/2"}, {"p": 1, "q": 0, "v": "1/2"},
    ]}) + "\n",
    "half": _one_cell("1/2"),
    "half-unreduced": _one_cell("2/4"),
    "not-in-cone-residual": json.dumps(
        {"entries": [{"p": p, "q": q, "v": v} for p, q, v in
                     [(0, 0, 3), (1, 1, "2/1"), (2, 2, "1"), (2, 3, "1/1"), (3, 4, 1)]]}
    ),
}

# pure --format json on a 150-term degree sequence that starts below zero
PURE_LONG = ["pure", "--degseq=" + ",".join(str(i + i // 7 - 100) for i in range(150)),
             "--format", "json"]
# pure --format json on 60 terms with gaps 2, 5, 4, 3 in turn: 2.5 holes per term
PURE_GAPPED = ["pure", "--degseq=" + ",".join(
    str(e) for e in accumulate((2 + 7 * i % 4 for i in range(59)), initial=0)
), "--format", "json"]
# long family diagrams: 293 and 993 columns, six holes each
SECANT_LONG = {
    d: ["secant-pure", "-g", "3", "-k", "2", "-d", str(d), "--tuple", "0,1,3", "--format", "json"]
    for d in (300, 1000)
}

# sweep distribution at d = 2g + 2k + 1, where no column is dominant: exit 2
SWEEP_MIN_D = ["sweep", "distribution", "-g", "1", "-k", "1", "--d", "5", "--a", "0",
               "--out", "{tmp}/dist.csv"]


def decompose_inputs(seed=DECOMPOSE_SEED, count=DECOMPOSE_COUNT):
    """count seeded diagram files as text: two in five built in the cone, two
    in five random positive tables, one in five malformed or refused (each
    of _MALFORMED in turn)."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        kind = i % 5
        if kind in (0, 1):
            obj = _in_cone(rng)
        elif kind in (2, 3):
            obj = _random_table(rng)
        else:
            texts.append(_MALFORMED[i // 5 % len(_MALFORMED)])
            continue
        text = json.dumps(obj, indent=rng.choice([None, 2]))
        if rng.random() < 0.3:
            text = "# degseq: a comment line\n" + text
        texts.append(text + "\n")
    return texts


def run_case(argv, tmp, files=()):
    """(exit code, stdout, stderr, {name: bytes}) of one in-process main()
    call, with tmp in the output replaced by "{tmp}"."""
    for name in os.listdir(tmp):
        os.remove(os.path.join(tmp, name))
    for name, text in files:
        Path(tmp, name).write_text(text, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    given = {name for name, _ in files}
    written = {
        name: Path(tmp, name).read_bytes() for name in sorted(os.listdir(tmp)) if name not in given
    }
    return code, out.getvalue().replace(tmp, "{tmp}"), err.getvalue().replace(tmp, "{tmp}"), written


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def _readme_files(name, tmp):
    """The files a README case reads: decompose-secant reads the output of
    secant-pure-tuple, as the README pipes it."""
    if name != "decompose-secant":
        return ()
    _, out, _, _ = run_case(README_CASES["secant-pure-tuple"], tmp)
    return (("diagram.json", out),)


def all_results(tmp):
    """{case id: (exit code, stdout, stderr, files)} for every frozen case."""
    results = {}
    for name, argv in README_CASES.items():
        results[f"readme/{name}"] = run_case(argv, tmp, _readme_files(name, tmp))
    for i, text in enumerate(decompose_inputs()):
        results[f"decompose/{i:03d}"] = run_case(
            ["decompose", "--input", "{tmp}/in.json"], tmp, (("in.json", text),)
        )
    for name, text in EDGE_FILES.items():
        results[f"edge/decompose-{name}"] = run_case(
            ["decompose", "--input", "{tmp}/in.json"], tmp, (("in.json", text),)
        )
    results["edge/pure-long-json"] = run_case(PURE_LONG, tmp)
    results["edge/pure-gapped-json"] = run_case(PURE_GAPPED, tmp)
    for d, argv in SECANT_LONG.items():
        results[f"edge/secant-pure-json-{d}"] = run_case(argv, tmp)
    results["edge/sweep-distribution-min-d"] = run_case(SWEEP_MIN_D, tmp)
    return results


def differing(digests, frozen) -> list:
    """The case ids, sorted, whose digest is not the frozen one, a case
    that only one side has included."""
    return sorted(case for case in digests.keys() | frozen.keys()
                  if digests.get(case) != frozen.get(case))


def test_cli_bytes_match_frozen_digests(tmp_path):
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    results = all_results(str(tmp_path))
    assert sorted(results) == sorted(frozen)
    assert differing({case: _digest(result) for case, result in results.items()}, frozen) == []
    codes = {results[case][0] for case in results if case.startswith("decompose/")}
    assert {0, 2, 3} <= codes


def test_check_mode_names_the_cases_that_differ(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    fixture = tmp_path / "digests.json"
    monkeypatch.setattr(module, "FIXTURE", fixture)
    monkeypatch.setattr(module, "all_results", lambda tmp: {"a": "a", "b": "b2", "new": "new"})
    fixture.write_text(json.dumps({"a": _digest("a"), "b": _digest("b"), "gone": "0"}))
    before = fixture.read_bytes()
    assert main(["--check"]) == 1
    assert fixture.read_bytes() == before  # --check writes nothing
    err = capsys.readouterr().err
    assert err == "differs: b\ndiffers: gone\ndiffers: new\n3 of 4 cases differ\n"
    fixture.write_text(json.dumps({"a": _digest("a"), "b": _digest("b2"), "new": _digest("new")}))
    assert main(["--check"]) == 0
    assert capsys.readouterr().err == "all 3 cases match\n"
    assert main(["--chek"]) == 2


def main(argv) -> int:
    """Rewrite the fixture from this checkout's output, or with --check
    compare the two and return 1 when a case differs."""
    if argv not in ([], ["--check"]):
        print("usage: test_cli_frozen.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: _digest(result) for case, result in all_results(tmp).items()}
    if not argv:
        FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
        return 0
    frozen = json.loads(FIXTURE.read_text(encoding="utf-8"))
    changed = differing(digests, frozen)
    for case in changed:
        print(f"differs: {case}", file=sys.stderr)
    total = len(digests.keys() | frozen.keys())
    print(f"{len(changed)} of {total} cases differ" if changed else f"all {total} cases match",
          file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
