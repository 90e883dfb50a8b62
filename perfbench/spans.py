"""Per-layer spans around betticone's public functions, installed from outside.

The tracer wraps each target function and records, per span label, the
number of calls and the self time: the span's duration minus the time its
child spans cover.  Counts (columns built, division steps, tuples scanned,
...) are derived from each call's arguments and result, after the span has
closed, and the bookkeeping is charged to no span.

A function is wrapped in every namespace that holds it: ``from .diagrams
import pure_diagram`` gives ``secant`` and ``decomposition`` bindings of
their own, and patching only ``diagrams.pure_diagram`` would miss both.  A
target that no longer exists (a deleted module, a method folded away) is
recorded as absent instead of raising, so the benchmark keeps running on
later versions of the library.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

PACKAGE = "betticone"


def _max_entry_bits(diagram) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for _, v in diagram.items()),
        default=0,
    )


def _pure_counts(tracer, args, kwargs, result):
    e = args[0] if args else kwargs["e"]
    tracer.counts["diagrams.pure_diagram.columns"] += len(tuple(e))
    bits = _max_entry_bits(result)
    if bits > tracer.counts["diagrams.max_entry_bits"]:
        tracer.counts["diagrams.max_entry_bits"] = bits


def _division_counts(tracer, args, kwargs, result):
    diagram = args[0] if args else kwargs["b"]
    tracer.counts["diagrams.division_steps"] += max(p for p, _ in diagram.support())


def _summand_counts(tracer, args, kwargs, result):
    tracer.counts["decomposition.summands"] += len(result.summands)


def _verify_counts(tracer, args, kwargs, result):
    tracer.counts["decomposition.verify.ok"] += bool(result.ok)


def _purity_counts(tracer, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    tracer.counts["asymptotics.purity.tuples_scanned"] += math.comb(
        params.g + params.k + 1, params.k + 1
    )


def _dist_point_label(args, kwargs) -> str:
    """Which path normal_dist_point takes, judged by r against EXACT_CROSSOVER."""
    params = args[0] if args else kwargs["params"]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    crossover = getattr(sys.modules.get(PACKAGE + ".asymptotics"), "EXACT_CROSSOVER", None)
    exact = method == "exact" or (
        method == "auto" and crossover is not None and params.r <= crossover
    )
    return "asymptotics.dist_point.exact" if exact else "asymptotics.dist_point.log"


# (module, attribute or Class.attribute, span label or label function, count hook)
TARGETS = [
    ("diagrams", "pure_diagram", "diagrams.pure_diagram", _pure_counts),
    ("diagrams", "hilbert_numerator", "diagrams.hilbert_numerator", _division_counts),
    ("diagrams", "multiplicity", "diagrams.multiplicity", _division_counts),
    ("diagrams", "top_strand", "diagrams.cone_ops", None),
    ("diagrams", "scale", "diagrams.cone_ops", None),
    ("diagrams", "add", "diagrams.cone_ops", None),
    ("diagrams", "subtract", "diagrams.cone_ops", None),
    ("diagrams", "BettiDiagram.to_json_obj", "diagrams.json", None),
    ("diagrams", "BettiDiagram.from_json_obj", "diagrams.json", None),
    ("decomposition", "decompose", "decomposition.decompose", _summand_counts),
    ("decomposition", "verify", "decomposition.verify", _verify_counts),
    ("decomposition", "Decomposition.reconstruct", "decomposition.reconstruct", None),
    ("secant", "degree_sequence", "secant.degree_sequence", None),
    ("secant", "kappa_dominant", "secant.closed_forms", None),
    ("secant", "hn_leading_coefficient", "secant.closed_forms", None),
    ("secant", "secant_degree", "secant.closed_forms", None),
    ("secant", "normalized_hn_leading", "secant.closed_forms", None),
    ("asymptotics", "purity_lower_bound", "asymptotics.purity_lower_bound", _purity_counts),
    ("asymptotics", "normal_dist_point", _dist_point_label, None),
    ("asymptotics", "write_purity_csv", "asymptotics.csv", None),
    ("asymptotics", "write_distribution_csv", "asymptotics.csv", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("parallel", "map_ordered", "parallel.map_ordered", None),
]

# per-layer metric -> the span labels it needs; absent when none was installed
_CALLS = [
    "diagrams.pure_diagram",
    "diagrams.hilbert_numerator",
    "diagrams.multiplicity",
    "decomposition.decompose",
    "decomposition.verify",
    "secant.degree_sequence",
    "secant.closed_forms",
    "asymptotics.purity_lower_bound",
    "asymptotics.dist_point.exact",
    "asymptotics.dist_point.log",
    "cli.main",
    "parallel.map_ordered",
]
_SELF = _CALLS + [
    "diagrams.cone_ops",
    "diagrams.json",
    "decomposition.reconstruct",
    "asymptotics.csv",
    "cli.build_parser",
]
_DIST = ("asymptotics.dist_point.exact", "asymptotics.dist_point.log")
_COUNTS = {
    "diagrams.pure_diagram.columns": ("diagrams.pure_diagram",),
    "diagrams.division_steps": ("diagrams.hilbert_numerator", "diagrams.multiplicity"),
    "diagrams.max_entry_bits": ("diagrams.pure_diagram",),
    "decomposition.summands": ("decomposition.decompose",),
    "asymptotics.purity.tuples_scanned": ("asymptotics.purity_lower_bound",),
}

# metrics that must repeat exactly between two traced passes over one seed
EXACT_METRICS = [name + ".calls" for name in _CALLS] + list(_COUNTS)


def metric_units() -> dict:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name in _CALLS:
        units[name + ".calls"] = "count"
    for name in _SELF:
        units[name + ".self_s"] = "s"
    for name in _COUNTS:
        units[name] = "count" if name != "diagrams.max_entry_bits" else "bits"
    units["decomposition.verify.ok_ratio"] = "ratio"
    units["asymptotics.log_path.max_rel_err"] = "ratio"
    units["parallel.workers"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Span recorder; install() patches the library, uninstall() undoes it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.paused = False
        self.installed_labels = set()
        self.absent_targets = []
        self._stack = []
        self._undo = []

    def _wrap(self, fn, label, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            enter = clock()
            name = label(args, kwargs) if callable(label) else label
            frame = [0.0]
            stack.append(frame)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[0]
                if done and hook is not None:
                    hook(self, args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - enter

        return traced

    def install(self):
        for module_name, attr, label, hook in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent_targets.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                ok = self._patch_method(module, attr, label, hook)
            else:
                ok = self._patch_function(module, attr, label, hook)
            if not ok:
                self.absent_targets.append(f"{module_name}.{attr}")
                continue
            if callable(label):
                self.installed_labels.update(_DIST)
            else:
                self.installed_labels.add(label)

    def _patch_function(self, module, attr, label, hook) -> bool:
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self._wrap(original, label, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
        return True

    def _patch_method(self, module, attr, label, hook) -> bool:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, label, hook))
        elif callable(raw):
            new = self._wrap(raw, label, hook)
        else:
            return False
        setattr(cls, meth, new)
        self._undo.append((cls, meth, raw))
        return True

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self) -> tuple:
        """(values, absent names) for every per-layer metric but the two
        that come from outside the spans (max_rel_err, overhead_ratio)."""
        values = {}
        absent = []

        def put(name, value, needs):
            if any(label in self.installed_labels for label in needs):
                values[name] = value
            else:
                values[name] = 0
                absent.append(name)

        for name in _CALLS:
            put(name + ".calls", self.calls[name], (name,))
        for name in _SELF:
            put(name + ".self_s", self.self_s[name], (name,))
        for name, needs in _COUNTS.items():
            put(name, self.counts[name], needs)
        verifies = self.calls["decomposition.verify"]
        put(
            "decomposition.verify.ok_ratio",
            self.counts["decomposition.verify.ok"] / verifies if verifies else 0.0,
            ("decomposition.verify",),
        )
        parallel = sys.modules.get(PACKAGE + ".parallel")
        worker_count = getattr(parallel, "worker_count", None)
        if callable(worker_count):
            values["parallel.workers"] = worker_count()
        else:
            values["parallel.workers"] = 0
            absent.append("parallel.workers")
        return values, absent
