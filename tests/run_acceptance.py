"""Run the eleven acceptance checks of tests/test_acceptance.py without
pytest, so an interpreter without it can run them too:

    PYTHONPATH=src python tests/run_acceptance.py

test_acceptance imports no pytest, and its checks take no fixtures. Each
test_c* function is called once, in the order the module defines them, and
the script prints one line per check: PASS or FAIL, its name and the
seconds it took. Under a failing check's line it prints the first
assertion that failed (its line in test_acceptance.py, the statement and
the message), or the exception that stopped the check. It then prints the
run and failed counts and exits 1 if any check failed, else 0. Under
pytest this file collects nothing.
"""

import sys
import time
import traceback

import test_acceptance


def _first_failure(exc: BaseException) -> str:
    """Where exc stopped the check: the innermost frame in test_acceptance
    (the assertion itself, for an AssertionError), then the exception."""
    frames = traceback.extract_tb(exc.__traceback__)
    frames = [f for f in frames if f.filename == test_acceptance.__file__]
    where = f"test_acceptance.py:{frames[-1].lineno}: {frames[-1].line}\n    " if frames else ""
    return where + "".join(traceback.format_exception_only(type(exc), exc)).rstrip()


def main() -> int:
    checks = [
        (name, f)
        for name, f in vars(test_acceptance).items()
        if name.startswith("test_c") and callable(f)
    ]
    failed = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name} ({time.perf_counter() - start:.2f} s)")
            print(f"    {_first_failure(exc)}")
        else:
            print(f"PASS {name} ({time.perf_counter() - start:.2f} s)")
    print(f"{len(checks)} checks run, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
