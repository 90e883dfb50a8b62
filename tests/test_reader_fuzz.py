"""Seeded differential fuzz of the JSON readers, the CLI's input boundary.

Claims pinned here:
    - on valid diagram JSON and on mutations of it (bools, floats, None
      and nested lists where ints and strs belong, negative p, duplicate
      cells, zero values and -0/5, zero denominators, non-ASCII digits,
      spellings such as "1_0/3", " 1/2" and "1/2 3/4", values past the int
      digit limit, missing and extra keys, an empty list),
      BettiDiagram.from_json_obj gives what the per-cell loop
      _entries_by_cell gives: an equal diagram, or the same exception type
      and message; the whole-list pass _canonical_entries answers some of
      these lists and hands the rest to the loop
    - DegreeSequence, whose type check is one scan, refuses and accepts
      what a check of one entry at a time does, and Decomposition's reader
      gives the same summands or the same refusal with either check
    - decompose on the mutated files, and on files that are not JSON,
      exits 0, 2 or 3 without an exception escaping main, writes stdout
      only on exit 0, and then writes a decomposition that verifies
"""

import contextlib
import copy
import io
import json
import random
from fractions import Fraction

import pytest

from betticone import cli, decomposition, diagrams
from betticone.errors import MalformedDegreeSequence, NotInCone, require_int

_DIGITS_PAST_LIMIT = "7" * 4301  # sys.get_int_max_str_digits() is 4300 by default

# values that are not a canonical "n/d" with nonzero n and d
_ODD_VALUES = [
    True, False, 0.5, 2.0, None, [1], [[0]], {}, 7, -3, 10**30,
    "0/3", "-0/5", "0", "3/0", "-0/0", "١/2", "1/２", "1_0/3", " 1/2", "1/2 ",
    "1/2 3/4", "1/2\n", "+1/2", "1.5", "1e3", "007/3", "1/-2", "--1/2", "", "/", "1//2",
    "½", "abc", "2/4", "-6/4", "1e99999", f"{_DIGITS_PAST_LIMIT}/3", f"3/{_DIGITS_PAST_LIMIT}",
]
# values that are not an int index
_ODD_INDICES = [True, False, 1.0, 0.5, None, [0], [[1]], {}, "0", -1, -3]


def _base_diagram(rng):
    """A small diagram: a positive combination of pure diagrams, or a few
    cells at random, so some are in the cone and some are not."""
    if rng.random() < 0.7:
        b = diagrams.BettiDiagram()
        for _ in range(rng.randint(1, 3)):
            e = sorted(rng.sample(range(12), rng.randint(2, 5)))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            b = diagrams.add(b, diagrams.scale(diagrams.pure_diagram(e), c))
        return b
    cells = {
        (rng.randint(0, 3), rng.randint(-1, 3)): Fraction(rng.randint(1, 20), rng.randint(1, 6))
        for _ in range(rng.randint(1, 6))
    }
    return diagrams.BettiDiagram(cells)


def _mutate(rng, entries):
    """entries with one mutation applied in place; the list, or a new one."""
    kind = rng.randrange(10)
    cells = [cell for cell in entries if isinstance(cell, dict)]
    if kind == 0 or not cells:
        return [] if rng.random() < 0.5 else entries
    cell = rng.choice(cells)
    if kind == 1:
        cell["v"] = rng.choice(_ODD_VALUES)
    elif kind == 2:
        cell[rng.choice("pq")] = rng.choice(_ODD_INDICES)
    elif kind == 3:  # a duplicate cell, its value kept or changed
        twin = dict(cell)
        if rng.random() < 0.5:
            twin["v"] = rng.choice(["1/2", "-1/3", cell["v"], "5/7"])
        entries.insert(rng.randrange(len(entries) + 1), twin)
    elif kind == 4:
        del cell[rng.choice("pqv")]
    elif kind == 5:
        cell[rng.choice(["w", "P", "extra"])] = rng.choice([1, None, "x"])
    elif kind == 6:
        entries[entries.index(cell)] = rng.choice([[0, 0, "1/2"], "p", None, 3, []])
    elif kind == 7:
        cell["p"] = rng.choice([10**20, 50, 4])
    elif kind == 8:  # unreduced but canonical
        n, _, d = str(cell.get("v", "1/1")).partition("/")
        if n.lstrip("-").isdigit() and d.isdigit():
            m = rng.randint(2, 5)
            cell["v"] = f"{int(n) * m}/{int(d) * m}"
    else:  # swap two values
        other = rng.choice(cells)
        cell["v"], other["v"] = other.get("v", "1/1"), cell.get("v", "1/1")
    return entries


def _diagram_cases(seed, count):
    """count entries lists: every fourth a valid one, the rest mutated 1-3 times."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        entries = _base_diagram(rng).to_json_obj()["entries"]
        if i % 4:
            for _ in range(rng.randint(1, 3)):
                entries = _mutate(rng, entries)
        cases.append(entries)
    return cases


def _outcome(read, *args):
    """A read's value as comparable data, or its exception's type, message
    and cause, so two reads that refuse alike compare equal."""
    try:
        value = read(*args)
    except Exception as exc:
        cause = exc.__cause__
        return type(exc), str(exc), cause and (type(cause), str(cause))
    if isinstance(value, diagrams.BettiDiagram):
        return sorted(value._n.items()), value._den
    return value


def test_json_reader_matches_the_per_cell_loop():
    fast = 0
    for entries in _diagram_cases(30, 600):
        kept = copy.deepcopy(entries)
        expected = _outcome(diagrams._entries_by_cell, entries)
        read = _outcome(diagrams.BettiDiagram.from_json_obj, {"entries": entries})
        assert read == expected, entries
        answer = diagrams._canonical_entries(entries)
        if answer is not None:
            fast += 1
            assert _outcome(lambda: answer) == expected, entries
        assert entries == kept  # no reader changes its input
    # both sides of the whole-list pass are reached
    assert 150 <= fast <= 450


def test_one_value_cannot_pass_as_two():
    # "1/2 3/4" joined with "5/6" fullmatches the run of canonical values,
    # but holds one "/" too many, so the loop reads it and names it
    entries = [{"p": 0, "q": 0, "v": "1/2 3/4"}, {"p": 1, "q": 0, "v": "5/6"}]
    assert diagrams._canonical_entries(entries) is None
    message = r"^diagram value: Invalid literal for Fraction: '1/2 3/4'$"
    with pytest.raises(ValueError, match=message):
        diagrams.BettiDiagram.from_json_obj({"entries": entries})


def _degree_oracle(degrees):
    """DegreeSequence's checks one entry at a time, as they ran before the
    type scan: the oracle the scan is compared with."""
    if type(degrees) is diagrams.DegreeSequence:
        return degrees
    seq = tuple(degrees)
    if not seq:
        raise MalformedDegreeSequence("degree sequence is empty")
    for e in seq:
        require_int(e, "degree", MalformedDegreeSequence)
    if not all(a < b for a, b in zip(seq, seq[1:])):
        raise MalformedDegreeSequence(f"not strictly increasing: {seq}")
    return diagrams.DegreeSequence._trusted(seq)


def _mutated_degrees(rng, e):
    e = list(e)
    kind = rng.randrange(6)
    if kind == 0:
        e[rng.randrange(len(e))] = rng.choice(_ODD_INDICES + [2.5, "3", 10**40])
    elif kind == 1 and len(e) > 1:
        i = rng.randrange(len(e) - 1)
        e[i], e[i + 1] = e[i + 1], e[i]
    elif kind == 2:
        e.append(e[-1])
    elif kind == 3:
        return rng.choice([[], None, 5, "01", {}, [[0, 1]]])
    return e


def test_degree_sequence_matches_the_per_entry_check():
    rng = random.Random(32)
    for _ in range(400):
        e = sorted(rng.sample(range(-5, 40), rng.randint(1, 8)))
        if rng.random() < 0.8:
            e = _mutated_degrees(rng, e)
        assert _outcome(diagrams.DegreeSequence, e) == _outcome(_degree_oracle, e), e


def test_decomposition_reader_matches_the_per_entry_check(monkeypatch):
    rng = random.Random(33)
    cases = []
    for _ in range(150):
        b = _base_diagram(rng)
        try:
            obj = decomposition.decompose(b).to_json_obj()
        except NotInCone as exc:  # its partial decomposition
            obj = exc.partial.to_json_obj()
        for _ in range(rng.randint(0, 2)):
            summands = obj["summands"]
            kind = rng.randrange(5)
            if kind < 2 and summands:
                item = rng.choice(summands)
                item["e"] = _mutated_degrees(rng, item.get("e", [0, 1]))
            elif kind == 2 and summands:
                rng.choice(summands)["c"] = rng.choice(_ODD_VALUES)
            elif kind == 3 and summands:
                del rng.choice(summands)[rng.choice("ce")]
            else:
                obj["residual"] = {"entries": _mutate(rng, b.to_json_obj()["entries"])}
        cases.append(obj)

    def read(obj):
        dec = decomposition.Decomposition.from_json_obj(obj)
        return [tuple(s) for s in dec.summands], _outcome(lambda: dec.residual)

    expected = [_outcome(read, obj) for obj in cases]
    monkeypatch.setattr(decomposition, "DegreeSequence", _degree_oracle)
    assert [_outcome(read, obj) for obj in cases] == expected


# files that are not a diagram's JSON at all
_ODD_TEXTS = [
    "", "{", "[]", "null", '{"entries": NaN}', '{"entries": [{"p": 0, "q": 0, "v": NaN}]}',
    '{"entries": []} trailing', "[" * 5000, "﻿{}", '{"entries": [{"p": 0, "q": 0, "v": "1/2"}]',
    '{"entries": [{"p": ' + "1" * 5000 + ', "q": 0, "v": "1/2"}]}',
    '# a comment line\n{"entries": [{"p": 0, "q": 0, "v": "1/2"}]}',
]


def test_decompose_exits_with_a_documented_code(tmp_path):
    texts = [json.dumps({"entries": entries}) for entries in _diagram_cases(34, 150)]
    for i, text in enumerate(texts + _ODD_TEXTS):
        path = tmp_path / f"case_{i}.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["decompose", "--input", str(path)])
        documented = (cli.EXIT_OK, cli.EXIT_BAD_INPUT, cli.EXIT_NOT_IN_CONE)
        assert code in documented, (text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == "", text
            assert err.getvalue(), text
        else:
            dec = decomposition.Decomposition.from_json_obj(json.loads(out.getvalue()))
            b = cli._read_diagram_file(str(path))
            assert decomposition.verify(b, dec).ok, text
