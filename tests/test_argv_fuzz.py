"""Seeded differential test of the CLI's argv parse step.

Claims pinned here:
    - cli._parse_args, which hands the words after a command name to that
      command's parser alone, gives what the whole parser's parse_args
      gives: an equal namespace (vars), or the same SystemExit code,
      stdout and stderr. The argvs are the README's invocations and seeded
      mutations of them (a word dropped, an option repeated, two options
      swapped, --opt=value, unique and ambiguous abbreviations such as
      --d-m, a "--", a bad choice, an unknown word), and the top-level
      cases: no argument, -h, an unknown command, a command followed by an
      unknown argument, and a command's -h
    - with argv None both read sys.argv[1:]
"""

import contextlib
import io
import random

import pytest

from betticone import cli
from run_readme import readme_commands

# one README invocation per line, without the program name and any "> file"
_BASES = [argv[1 : argv.index(">") if ">" in argv else None] for argv in readme_commands()]

# abbreviations of the commands' options: unique ones, ambiguous ones (sweep
# has --d-min and --d-max, verify --suite and --seed) and exact words that
# are also prefixes (sweep's --d)
_ABBREVIATIONS = {
    "--degseq": ("--deg", "--d"),
    "--format": ("--f", "--form"),
    "--tuple": ("--t", "--tu"),
    "--dominant": ("--dom", "--d"),
    "--input": ("--in", "--i"),
    "--d-min": ("--d-m", "--d-mi", "--d"),
    "--d-max": ("--d-m", "--d-ma", "--d"),
    "--out": ("--o", "--ou"),
    "--suite": ("--s", "--su"),
    "--seed": ("--s", "--se"),
    "--count": ("--c", "--co"),
    "--g-max": ("--g", "--g-"),
    "--k-max": ("--k",),
    "--step": ("--st",),
    "--threshold": ("--th",),
}

_BAD_CHOICES = {
    "purity": "purify",
    "distribution": "normal",
    "table": "csv",
    "multiplicity": "multi",
    "herzog-kuhl": "herzog",
}

# the top-level cases, then the named mutations once each, whatever the
# seed draws
_FIXED = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["no-such-command"],
    ["--", "pure", "--degseq", "0,1"],
    ["-x", "pure", "--degseq", "0,1"],
    ["sweep", "purity", "-g", "2", "-k", "1", "--d-min", "7", "--d-max", "9",
     "--out", "p.csv", "extra"],
    ["decompose", "--input", "d.json", "--bogus", "1"],
    ["sweep", "-h"],
    ["sweep", "purity", "-h"],
    ["pure", "--help"],
    ["verify", "-h", "--suite", "nope"],
    ["calibrate"],
    ["sweep", "purity", "-g", "2", "-k", "1", "--d-m", "7", "--d-max", "9", "--out", "p.csv"],
    ["verify", "--s", "hn-leading"],
    ["verify", "--su", "hn-leading", "--d-m", "12"],
    ["sweep", "purity", "-g=2", "-k=1", "--d-min=7", "--d-max=9", "--out=p.csv"],
    ["sweep", "distribution", "-g", "1", "-k", "1", "--d", "101", "--out", "d.csv", "--", "x"],
    ["sweep", "--", "purity", "-g", "2", "-k", "1", "--out", "p.csv"],
    ["sweep", "purify", "-g", "2", "-k", "1", "--out", "p.csv"],
    ["pure", "--degseq", "0,1", "--format", "csv"],
]


def _options(argv):
    """The indices of argv's option words (a word that starts with "--" or
    is a one-letter "-x" flag)."""
    return [i for i, word in enumerate(argv) if word.startswith("--") or
            (len(word) == 2 and word[0] == "-" and word[1].isalpha())]


def _mutate(rng, argv):
    """argv with one to three seeded edits."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        options = _options(argv)
        edit = rng.randrange(9)
        if edit == 0 and argv:  # drop a word
            del argv[rng.randrange(len(argv))]
        elif edit == 1 and options:  # repeat an option and the word after it
            i = rng.choice(options)
            argv += argv[i : i + 2]
        elif edit == 2 and len(options) >= 2:  # swap two options with their values
            i, j = sorted(rng.sample(options, 2))
            if j > i + 1:
                argv = argv[:i] + argv[j : j + 2] + argv[i + 2 : j] + argv[i : i + 2] + argv[j + 2 :]
        elif edit == 3 and options:  # --opt value as --opt=value
            i = rng.choice(options)
            if i + 1 < len(argv):
                argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        elif edit == 4 and options:  # abbreviate an option
            i = rng.choice(options)
            if argv[i] in _ABBREVIATIONS:
                argv[i] = rng.choice(_ABBREVIATIONS[argv[i]])
        elif edit == 5:  # a "--" anywhere
            argv.insert(rng.randint(0, len(argv)), "--")
        elif edit == 6:  # a bad choice
            chosen = [i for i, word in enumerate(argv) if word in _BAD_CHOICES]
            if chosen:
                i = rng.choice(chosen)
                argv[i] = _BAD_CHOICES[argv[i]]
        elif edit == 7:  # an unknown word
            argv.insert(rng.randint(0, len(argv)), rng.choice(("extra", "--bogus", "-x", "-h")))
        else:  # a value replaced by a negative or malformed number
            values = [i for i, word in enumerate(argv) if i and i - 1 in options]
            if values:
                argv[rng.choice(values)] = rng.choice(("-1", "x", "", "1e3", "--"))
    return argv


def _outcome(parse, argv):
    """(vars of the namespace, or the SystemExit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = f"exit {exc.code}"
    return result, out.getvalue(), err.getvalue()


def _cases():
    rng = random.Random(36)
    yield from _FIXED
    yield from _BASES
    for _ in range(800):
        yield _mutate(rng, rng.choice(_BASES))


def test_parse_step_matches_the_whole_parser():
    seen = {"namespace": 0, "exit 0": 0, "exit 2": 0}
    for argv in _cases():
        want = _outcome(cli._parser().parse_args, list(argv))
        assert _outcome(cli._parse_args, list(argv)) == want, argv
        seen["namespace" if isinstance(want[0], dict) else want[0]] += 1
    # the seeded set reaches every outcome, help included
    assert min(seen.values()) >= 10, seen
    assert set(seen) == {"namespace", "exit 0", "exit 2"}


@pytest.mark.parametrize("argv", [[], ["decompose", "--input", "d.json"], ["sweep", "-h"]])
def test_parse_step_reads_sys_argv_when_argv_is_none(monkeypatch, argv):
    monkeypatch.setattr("sys.argv", ["betticone", *argv])
    assert _outcome(cli._parse_args, None) == _outcome(cli._parser().parse_args, None)
