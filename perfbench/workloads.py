"""The four workloads: seeded inputs, the timed op, and an independent check.

Each workload is driven as a closed loop with one caller: the next op
starts only after the previous one has returned.  ``inputs`` builds (and,
for the CLI workloads, writes) every input before timing starts; ``op`` is
the timed region; ``check`` runs outside it.  Ops reach the library only
through module attributes (``secant.secant_pure_diagram``, never a name
bound at import), so the tracer's patched bindings see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from fractions import Fraction

from betticone import asymptotics, cli, decomposition, diagrams, secant

# Distribution rows up to this r are checked against the exact twin path
# (about 10 ms at 2*10^4, 373 ms at 10^5, 21 s at 10^6); rows above it are
# checked by the collapse identity, as acceptance check c09 does.
EXACT_TWIN_MAX_R = 2 * 10**4
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class OpFailed(Exception):
    """The CLI exited nonzero; the message is the exit code and first stderr line."""


def _run_cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    if code != 0:
        lines = err.getvalue().splitlines()
        raise OpFailed(f"exit {code}: {lines[0] if lines else ''}")
    return out.getvalue()


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# Inputs are stratified rather than drawn independently: op cost depends
# mostly on (g, k) and on the length of the sequence, and a pool that covers
# both evenly keeps the mean cost of a run nearly the same from seed to seed.


def _strata(rng, count):
    """count numbers in [0, 1), one in each of count equal strata, shuffled."""
    u = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(u)
    return u


def _uniform_int(u, lo, hi):
    return lo + int(u * (hi - lo + 1))


def _balanced(rng, items, count):
    """count items, cycling evenly through items, shuffled."""
    out = [items[j % len(items)] for j in range(count)]
    rng.shuffle(out)
    return out


def _genus_index_pairs(g_max, k_max):
    return [(g, k) for g in range(1, g_max + 1) for k in range(k_max + 1)]


class FamilyOracle:
    """One op: the family diagram of (g, k, d, tuple) and the c02-c04 checks
    on it (multiplicity, leading numerator coefficient, dominant column)."""

    name = "family_oracle"
    pool = 900
    trace_ops = 300

    def inputs(self, rng, count, tmpdir):
        out = []
        pairs = _balanced(rng, _genus_index_pairs(6, 4), count)
        for (g, k), u, v in zip(pairs, _strata(rng, count), _strata(rng, count)):
            tuples = secant.jump_tuples(g, k)
            d = _uniform_int(u, 2 * g + 2 * k + 1, 300)
            out.append((g, k, d, tuples[int(v * len(tuples))]))
        return out

    def op(self, inp):
        g, k, d, tup = inp
        params = secant.SecantParams(g, k, d)
        table = secant.secant_pure_diagram(params, tup)
        mult = diagrams.multiplicity(table)
        leading = None
        if tup[0] >= 1:
            leading = (
                diagrams.hilbert_numerator(table).coefficient(2 * k + 2),
                secant.hn_leading_coefficient(params, tup),
            )
        kappas = None
        if tup == (g,) * (k + 1):
            kappas = [
                (p, secant.kappa_dominant(params, p), table.get(p, k + 1))
                for p in range(1, params.r - g - 2 * k)
            ]
        return mult, leading, kappas

    def check(self, inp, out):
        mult, leading, kappas = out
        _expect(mult == 1, f"{inp}: multiplicity {mult}")
        if leading is not None:
            _expect(leading[0] == leading[1], f"{inp}: HN leading {leading[0]} != {leading[1]}")
        for p, closed, entry in kappas or ():
            _expect(closed == entry, f"{inp}: kappa_dominant({p}) {closed} != table {entry}")


class GappedDegseq:
    """One op: pure_diagram and multiplicity of a sequence with gaps 2..5."""

    name = "gapped_degseq"
    pool = 600
    trace_ops = 300

    def inputs(self, rng, count, tmpdir):
        out = []
        for u in _strata(rng, count):
            seq = [0]
            for _ in range(_uniform_int(u, 30, 150) - 1):
                seq.append(seq[-1] + rng.randint(2, 5))
            out.append(tuple(seq))
        return out

    def op(self, seq):
        table = diagrams.pure_diagram(seq)
        return table, diagrams.multiplicity(table)

    def check(self, seq, out):
        table, mult = out
        _expect(mult == 1, f"n={len(seq)}: multiplicity {mult}")
        support = {(p, e - p) for p, e in enumerate(seq)}
        _expect(table.support() == support, f"n={len(seq)}: support is not pure")


class DecomposeCli:
    """One op: ``betticone decompose`` on a convex combination of family
    diagrams, ``verify`` on its parsed output, and the c05 purity bound."""

    name = "decompose_cli"
    pool = 900
    trace_ops = 120

    def inputs(self, rng, count, tmpdir):
        out = []
        pairs = _balanced(rng, _genus_index_pairs(5, 3), count)
        strata = zip(pairs, _strata(rng, count), _strata(rng, count))
        for idx, ((g, k), u, v) in enumerate(strata):
            params = secant.SecantParams(g, k, _uniform_int(u, 2 * g + 2 * k + 1, 120))
            tuples = secant.jump_tuples(g, k)
            chosen = rng.sample(tuples, _uniform_int(v, 2, min(6, len(tuples))))
            weights = [rng.randint(1, 20) for _ in chosen]
            total = sum(weights)
            combo = diagrams.BettiDiagram()
            for tup, w in zip(chosen, weights):
                term = diagrams.scale(secant.secant_pure_diagram(params, tup), Fraction(w, total))
                combo = diagrams.add(combo, term)
            path = os.path.join(tmpdir, f"decompose_{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(combo.to_json_obj(), indent=2) + "\n")
            leading = diagrams.hilbert_numerator(combo).coefficient(2 * k + 2)
            dominant = secant.degree_sequence(params, (g,) * (k + 1))
            out.append((path, params, combo, leading, dominant))
        return out

    def op(self, inp):
        path, params, combo, leading, dominant = inp
        dec = decomposition.Decomposition.from_json_obj(
            json.loads(_run_cli(["decompose", "--input", path]))
        )
        result = decomposition.verify(combo, dec)
        c_dom = sum((s.coefficient for s in dec.summands if s.degrees == dominant), Fraction(0))
        bound = asymptotics.purity_lower_bound(params, leading_coefficient=leading)
        return dec, result, c_dom, bound

    def check(self, inp, out):
        dec, result, c_dom, bound = out
        where = f"{inp[1]} from {os.path.basename(inp[0])}"
        _expect(result.ok, f"{where}: verify failed: {result.reason}")
        _expect(not dec.residual, f"{where}: residual left")
        coefficients = [s.coefficient for s in dec.summands]
        _expect(all(c > 0 for c in coefficients), f"{where}: nonpositive coefficient")
        # multiplicity is linear and every pure summand has multiplicity 1
        _expect(sum(coefficients) == 1, f"{where}: coefficients sum to {sum(coefficients)}")
        _expect(c_dom >= bound, f"{where}: dominant coefficient {c_dom} < bound {bound}")


PURITY_HEADER = ["g", "k", "d", "r", "quantity", "value_num", "value_den"]
DIST_HEADER = ["g", "k", "d", "r", "a", "p", "value", "limit"]
DIST_A = (0.0, 0.5, 1.0)


class SweepCli:
    """Ops alternate ``sweep purity`` over ten consecutive d and ``sweep
    distribution`` over a in {0, 0.5, 1} and ten d spread over r in
    [30, 10^6]; each CSV is read back and checked against the benchmark's
    own oracles."""

    name = "sweep_cli"
    pool = 480
    trace_ops = 240

    def __init__(self):
        self._oracle = {}
        self.log_path_max_rel_err = 0.0

    def inputs(self, rng, count, tmpdir):
        path = os.path.join(tmpdir, "sweep.csv")
        out = []
        half = (count + 1) // 2
        purity = iter(_balanced(rng, _genus_index_pairs(6, 4), half))
        distribution = iter(_balanced(rng, _genus_index_pairs(6, 4), half))
        log_lo, log_hi = math.log(30), math.log(10**6)
        for idx in range(count):
            if idx % 2 == 0:
                g, k = next(purity)
                d0 = rng.randint(2 * g + 2 * k + 1, 3000)
                ds = tuple(range(d0, d0 + 10))
                argv = ["sweep", "purity", "-g", str(g), "-k", str(k),
                        "--d-min", str(d0), "--d-max", str(d0 + 9), "--out", path]
            else:
                g, k = next(distribution)
                # one r from each of ten log-spaced bands across [30, 10^6]
                ds = tuple(
                    g + round(math.exp(log_lo + (j + rng.random()) * (log_hi - log_lo) / 10))
                    for j in range(10)
                )
                argv = ["sweep", "distribution", "-g", str(g), "-k", str(k),
                        "--a", ",".join(str(a) for a in DIST_A),
                        "--d", ",".join(str(d) for d in ds), "--out", path]
            out.append((argv[1], g, k, ds, path, argv))
        return out

    def op(self, inp):
        _run_cli(inp[5])

    def check(self, inp, out):
        kind, g, k, ds, path, _ = inp
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if kind == "purity":
            self._check_purity(g, k, ds, rows)
        else:
            self._check_distribution(g, k, ds, rows)

    def _purity_bound(self, g, k, d) -> Fraction:
        """The enumerating definition: best non-dominant leading coefficient
        M against the dominant L*, clamped (A - M) / (L* - M)."""
        key = ("purity", g, k, d)
        if key not in self._oracle:
            params = secant.SecantParams(g, k, d)
            dominant = (g,) * (k + 1)
            l_star = secant.hn_leading_coefficient(params, dominant)
            m_best = max(
                (secant.hn_leading_coefficient(params, t)
                 for t in secant.jump_tuples(g, k) if t != dominant and t[0] >= 1),
                default=Fraction(0),
            )
            bound = (secant.normalized_hn_leading(params) - m_best) / (l_star - m_best)
            self._oracle[key] = min(Fraction(1), max(Fraction(0), bound))
        return self._oracle[key]

    def _check_purity(self, g, k, ds, rows):
        _expect(rows[:1] == [PURITY_HEADER], f"purity header {rows[:1]}")
        expected = []
        for d in ds:
            bound = self._purity_bound(g, k, d)
            r = d - g
            for name, v in (("lower_bound", bound), ("gap", 1 - bound), ("r_gap", r * (1 - bound))):
                expected.append([str(g), str(k), str(d), str(r), name, str(v.numerator), str(v.denominator)])
        for got, want in zip(rows[1:], expected):
            _expect(got == want, f"purity row {got} != {want}")
        _expect(len(rows) - 1 == len(expected), f"purity rows {len(rows) - 1} != {len(expected)}")

    def _reference(self, g, k, d, a):
        """(kind, reference value, expected column) for one distribution point."""
        key = ("dist", g, k, d, a)
        if key not in self._oracle:
            params = secant.SecantParams(g, k, d)
            if params.r <= EXACT_TWIN_MAX_R:
                row = asymptotics.normal_dist_point(params, a, method="exact")
                self._oracle[key] = ("exact", row.value, row.p)
            else:
                _, refactored, _ = asymptotics.collapse_identity(params, a)
                self._oracle[key] = ("collapse", refactored, asymptotics.realized_column(params, a))
        return self._oracle[key]

    def _check_distribution(self, g, k, ds, rows):
        _expect(rows[:1] == [DIST_HEADER], f"distribution header {rows[:1]}")
        points = [(d, a) for d in ds for a in DIST_A]
        _expect(len(rows) - 1 == len(points), f"distribution rows {len(rows) - 1} != {len(points)}")
        crossover = getattr(asymptotics, "EXACT_CROSSOVER", 0)
        for row, (d, a) in zip(rows[1:], points):
            where = f"g={g} k={k} d={d} a={a}"
            _expect(
                [int(x) for x in row[:4]] == [g, k, d, d - g] and float(row[4]) == a,
                f"{where}: row key {row[:5]}",
            )
            kind, reference, column = self._reference(g, k, d, a)
            value, limit = float(row[6]), float(row[7])
            _expect(int(row[5]) == column, f"{where}: column {row[5]} != {column}")
            _expect(limit == math.exp(-(a * a)), f"{where}: limit {limit}")
            err = _rel_err(value, reference)
            _expect(err <= REL_TOL, f"{where}: value {value} vs {kind} {reference} (rel {err:.2e})")
            if kind == "exact" and d - g > crossover:
                self.log_path_max_rel_err = max(self.log_path_max_rel_err, err)


WORKLOADS = {w.name: w for w in (FamilyOracle, GappedDegseq, DecomposeCli, SweepCli)}
