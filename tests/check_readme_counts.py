"""Check the counts the README states against what the runs print:

    python tests/check_readme_counts.py

The README states the full suite's outcome ("Expected full-suite outcome:
N passed (M tests and D docstring items)") and what the four scripts it
lists report ("126 cases, 26 examples, 11 checks and 14 commands"). The
script runs the suite (`pytest -v`) and the four scripts, each in its own
interpreter with `src` on PYTHONPATH, reads each count from its output,
prints one line per count and exits 1, naming every stale number, if any
differs; else 0. It checks counts only: a failing run is the business of
its own CI step, though its count usually differs too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what the README states: name -> the pattern of its number
_STATED = {
    "tier-1 passed": r"Expected full-suite outcome: (\d+)\s+passed",
    "tier-1 tests": r"passed \((\d+) tests and \d+ docstring items\)",
    "docstring items": r"passed \(\d+ tests and (\d+) docstring items\)",
    "frozen cases": r"\((\d+) cases, \d+\s+examples",
    "doctest examples": r"cases, (\d+)\s+examples",
    "acceptance checks": r"examples, (\d+) checks and",
    "README commands": r"checks and (\d+) commands\)",
}

# what each run prints: (argv after the interpreter, {name: pattern of its count})
_RUNS = [
    (["-m", "pytest", "-v"], {"tier-1 passed": r"(\d+) passed"}),
    (["tests/test_cli_frozen.py", "--check"], {"frozen cases": r"all (\d+) cases match"}),
    (["tests/run_doctests.py"], {"doctest examples": r"(\d+) examples attempted"}),
    (["tests/run_acceptance.py"], {"acceptance checks": r"(\d+) checks run"}),
    (["tests/run_readme.py"], {"README commands": r"(\d+) README commands"}),
]


def stated(text: str) -> dict:
    """Every count the README states, by name."""
    found = {}
    for name, pattern in _STATED.items():
        match = re.search(pattern, text)
        found[name] = int(match[1]) if match else None
    return found


def printed() -> dict:
    """Every count the runs print, by name; None where a run printed none.
    The suite's docstring items are its PASSED lines under src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    found, outputs = {}, []
    for argv, counts in _RUNS:
        proc = subprocess.run(  # stderr too: the digest check reports there
            [sys.executable, *argv], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        outputs.append(proc.stdout)
        for name, pattern in counts.items():
            match = re.findall(pattern, proc.stdout)
            found[name] = int(match[-1]) if match else None
    items = len(re.findall(r"^src/\S+ PASSED", outputs[0], re.MULTILINE))  # the suite's
    found["docstring items"] = items
    passed = found["tier-1 passed"]
    found["tier-1 tests"] = None if passed is None else passed - items
    return found


def main() -> int:
    readme = stated((ROOT / "README.md").read_text(encoding="utf-8"))
    runs = printed()
    stale = []
    for name, number in readme.items():
        ok = number is not None and number == runs.get(name)
        print(f"{'ok   ' if ok else 'STALE'} {name}: README {number}, run {runs.get(name)}")
        if not ok:
            stale.append(f"{name} ({number}, the run gives {runs.get(name)})")
    if stale:
        print(f"README counts that differ from the runs: {', '.join(stale)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
