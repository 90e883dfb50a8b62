"""Run the README's CLI command block, each command in its own interpreter:

    python tests/run_readme.py

The block is the fenced code block under the README's "## CLI" heading.
Each line that starts with `betticone ` runs as `python -m betticone.cli`
with `src` on PYTHONPATH, in one scratch directory shared by the whole
block, so `secant-pure ... > diagram.json` writes the file that the next
`decompose --input diagram.json` reads. A `> file` at the end of a line
sends stdout to that file. A command fails on a nonzero exit or an empty
output: the file it names with `--out` or `>`, else its stdout. The script
prints one line per command and exits 1 if any failed, else 0.
"""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list:
    """The argv of every `betticone` line of the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("betticone ")]


def run(argv: list, cwd: str, env: dict) -> str | None:
    """None if the command ran and gave output, else why not."""
    redirect = None
    if ">" in argv:
        argv, redirect = argv[: argv.index(">")], argv[argv.index(">") + 1]
    proc = subprocess.run(
        [sys.executable, "-m", "betticone.cli", *argv[1:]],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[:300]}"
    if redirect is not None:
        Path(cwd, redirect).write_text(proc.stdout, encoding="utf-8")
        target = redirect
    elif "--out" in argv:
        target = argv[argv.index("--out") + 1]
    else:
        return None if proc.stdout else "empty stdout"
    path = Path(cwd, target)
    return None if path.is_file() and path.stat().st_size else f"empty or missing {target}"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commands = readme_commands()
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        for argv in commands:
            why = run(argv, cwd, env)
            failed += why is not None
            print(f"{'FAIL' if why else 'ok  '} {' '.join(argv)}" + (f": {why}" if why else ""))
    print(f"{len(commands)} README commands, {failed} failed")
    return 1 if failed or not commands else 0


if __name__ == "__main__":
    sys.exit(main())
