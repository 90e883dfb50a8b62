"""Run every docstring example in the betticone package with the standard
library's doctest, so an interpreter without pytest can run them too:

    PYTHONPATH=src python tests/run_doctests.py

doctest.testmod runs each module's examples and prints the report of every
failing one: its file, its line, the docstring it sits in, the example and
what it gave. The script then prints the attempted and failed counts and
exits 1 if any example failed, else 0. pytest's --doctest-modules collects
the same examples, one item per docstring; this file has no examples and
no test functions of its own.
"""

import doctest
import importlib
import pkgutil
import sys

import betticone


def main() -> int:
    attempted = failed = 0
    names = ["betticone"] + [m.name for m in pkgutil.iter_modules(betticone.__path__, "betticone.")]
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        failed += result.failed
    print(f"{attempted} examples attempted, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
