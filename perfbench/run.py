#!/usr/bin/env python3
"""betticone benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload family_oracle --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run from the root of a source checkout; the library is imported from
``src/``.  Inputs come from ``--seed`` and are built (and written, for the
CLI workloads) before timing starts.  Every op's output is checked; a
failed op is counted, keeps its first error line, and is never retried.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` makes three passes over a fixed op list, each in a fresh
interpreter: one plain, two traced.  It reports the per-layer metrics of the
first traced pass, the traced/plain op time as ``trace.overhead_ratio``,
and fails if the two traced passes disagree on any count.

The last line of standard output is the JSON result; the line before it,
starting ``report``, records the environment, sample counts and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS_ENV = "BETTI_CONE_THREADS"
SETUP_SPAWNS = 9
MAX_FAILURES_KEPT = 10

# The hosts this runs on change speed by up to 2x within seconds (measured:
# per-second pure_diagram throughput 248..490 on one 2-vCPU VM).  A fixed
# unit of pure-Python bigint work, independent of betticone, is timed after
# every op; each timing (op or import spawn) is scaled by REFERENCE_NOMINAL_S
# over the local median of the unit's time, which states it in seconds on a
# host where the unit takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 50e-6
REFERENCE_WINDOW = 3  # unit timings on each side of an op
_REFERENCE_MODULUS = (1 << 1279) - 1

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_op_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    """The environment for every spawn: the serial default, src importable,
    and bytecode cached as an installed package has it."""
    env = {k: v for k, v in os.environ.items() if k not in (THREADS_ENV, "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(seed: int) -> dict:
    parallel = sys.modules.get("betticone.parallel")
    worker_count = getattr(parallel, "worker_count", None)
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
        "workers": worker_count() if callable(worker_count) else None,
    }


def time_import() -> float:
    """Wall time for a fresh interpreter to ``import betticone``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import betticone"], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - t0


def reference_unit() -> float:
    """Seconds taken by one fixed unit of bigint and interpreter work."""
    t0 = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15F39CC0605CEDC834, {}
    for i in range(1, 150):
        x = x * (2 * i + 1) % _REFERENCE_MODULUS
        acc[i & 15] = math.gcd(x & 0xFFFFFFFFFFFF, 3 * i + 7)
    return time.perf_counter() - t0


def speed_scaled(timed, refs):
    """Each (time, i) scaled to the nominal host by the median of the
    reference units timed around refs[i]."""
    w = REFERENCE_WINDOW
    return [
        t * REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - w): i + w + 1])
        for t, i in timed
    ]


def first_line(exc: BaseException) -> str:
    lines = str(exc).splitlines()
    return f"{type(exc).__name__}: {lines[0] if lines else ''}"


def run_ops(workload, inputs, seconds=None, tracer=None, spawns=0):
    """Closed loop over inputs: once, or in whole passes until ``seconds``
    have elapsed.  Ending on a pass boundary keeps the input mix of every
    run the same, whatever the speed of the host.  ``spawns`` import timings
    are taken between ops, spread evenly over ``seconds``, so that they see
    the same host speeds as the ops.

    Returns (latencies, imports, reference unit times, failure messages);
    latencies and imports are (seconds, index of the next reference unit).
    Checks run outside the timed region, with the tracer paused.
    """
    latencies, imports, refs, failures = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < len(inputs) or (
        seconds is not None and (i % len(inputs) or time.perf_counter() - start < seconds)
    ):
        if len(imports) < spawns and time.perf_counter() - start >= len(imports) * seconds / spawns:
            imports.append((time_import(), len(refs)))
        inp = inputs[i % len(inputs)]
        i += 1
        error = None
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
        except Exception as exc:  # any exception fails the op; the loop goes on
            error = exc
        latencies.append((time.perf_counter() - t0, len(refs)))
        if error is None:
            if tracer is not None:
                tracer.paused = True
            try:
                workload.check(inp, out)
            except Exception as exc:  # a check that cannot run fails the op too
                error = exc
            finally:
                if tracer is not None:
                    tracer.paused = False
        if error is not None:
            failures.append(f"op {i - 1}: {first_line(error)}")
        refs.append(reference_unit())
    while len(imports) < spawns:
        imports.append((time_import(), len(refs) - 1))
    return latencies, imports, refs, failures


def latency_metrics(latencies, correct) -> dict:
    return {
        "ops_per_s": correct / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def end_to_end(workload, inputs, seconds):
    time_import()  # warms the bytecode and file caches
    latencies, imports, refs, failures = run_ops(
        workload, inputs, seconds=seconds, spawns=SETUP_SPAWNS
    )
    attempted = len(latencies)
    correct = attempted - len(failures)
    values = {
        **latency_metrics(speed_scaled(latencies, refs), correct),
        "ok_op_ratio": correct / attempted,
        "setup_s": statistics.median(speed_scaled(imports, refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "samples": attempted,
        "failed_op_ratio": len(failures) / attempted,
        "unscaled": {
            **latency_metrics([t for t, _ in latencies], correct),
            "setup_s": statistics.median(t for t, _ in imports),
        },
        "reference_unit_us": statistics.median(refs) * 1e6,
    }
    return attempted, failures, values, END_TO_END_UNITS, extra


def one_pass(workload, inputs, traced: bool) -> dict:
    """One pass over the fixed trace op list, run in a child interpreter."""
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        latencies, _, refs, failures = run_ops(workload, inputs, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"op_s": sum(speed_scaled(latencies, refs)), "attempted": len(latencies),
              "failures": failures}
    if tracer is not None:
        values, absent = tracer.metrics()
        values["asymptotics.log_path.max_rel_err"] = getattr(workload, "log_path_max_rel_err", 0.0)
        result.update(values=values, absent=absent, absent_targets=tracer.absent_targets)
    return result


def spawn_pass(args, kind: str) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--pass", kind]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer(args):
    from spans import EXACT_METRICS, metric_units

    plain = spawn_pass(args, "plain")
    first = spawn_pass(args, "traced")
    second = spawn_pass(args, "traced")
    failures = plain["failures"] + first["failures"] + second["failures"]
    attempted = plain["attempted"] + first["attempted"] + second["attempted"]
    values = dict(first["values"])
    values["trace.overhead_ratio"] = first["op_s"] / plain["op_s"] - 1
    mismatched = [m for m in EXACT_METRICS if first["values"][m] != second["values"][m]]
    extra = {"absent": first["absent"], "absent_targets": first["absent_targets"],
             "trace_ops": first["attempted"], "count_mismatches": mismatched}
    return attempted, failures, values, metric_units(), extra


def report(args, attempted, failures, values, units, extra):
    print(f"workload {args.workload}  seed {args.seed}  attempted {attempted}  failed {len(failures)}")
    for name, value in values.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")
    detail = {"workload": args.workload, "env": environment(args.seed), **extra,
              "failures": failures[:MAX_FAILURES_KEPT]}
    print("report " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures and not extra.get("count_mismatches"),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))


def run_all(args) -> int:
    """Every workload in its own process, then one table of all metrics."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass", dest="pass_kind", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "betticone" / "__init__.py").is_file():
        print(f"betticone sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV, None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        rng = random.Random(f"{args.workload}/{args.seed}")
        if args.pass_kind is not None:
            inputs = workload.inputs(rng, workload.trace_ops, tmpdir)
            print(json.dumps(one_pass(workload, inputs, args.pass_kind == "traced")))
            return 0
        if args.trace:
            result = per_layer(args)
        else:
            inputs = workload.inputs(rng, workload.pool, tmpdir)
            result = end_to_end(workload, inputs, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    report(args, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
