"""Time both pure-diagram kernels and both multiplicity kernels on degrees
placed at random, and print their crossover tables:

    PYTHONPATH=src python tests/kernel_crossovers.py

The pure kernels, _pure_over_holes and _pure_over_runs, are timed on n + 1
degrees spread over a span of n + H (H holes), the n - 1 inner degrees
placed at random. multiplicity's kernels are timed on the alternating
polynomial of such a pure diagram with s = n: the product check
(_product_moment on its s + 1 terms) against the long division (the
span's coefficients listed, divided by _quotient and summed), the half
row warm. A polynomial of m + s coefficients has m - 1 holes.

Each point takes SEQUENCES seeded sequences; on each, the two kernels are
timed in turn, best of REPEATS, and a kernel's time at the point is the
median of its best times over the sequences. The script prints the
interpreter, then one table per kernel pair in the docstrings' format:
the crossover, where both take the same time (interpolated between the
measured points, "<" or ">" past them), against the rule
_pure_checked or multiplicity picks by; then each measured point's
ratio, and whether the rule passes its gate:

    pure: at every n >= 8, the kernel the rule picks takes at most
          1.25x the faster one's time;
    multiplicity: the rule picks the product check only where it takes
          no longer than the long division.

The gates are measurements, not tests: the script always exits 0. Small
inputs keep the whole run to a few minutes on one core.
"""

import platform
import random
import statistics
import sys
import time

from betticone import diagrams

REPEATS = 5
SEQUENCES = 9  # seeded sequences per point

PURE_N = (3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256, 512)
PURE_H = (1 / 8, 1 / 4, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 1, 5 / 4, 3 / 2)  # H as fractions of n
PURE_SLOWEST = 1.25  # the gate: the picked kernel's time over the faster one's

PRODUCT_S = (1, 2, 3, 4, 8, 16, 30, 60, 90, 150, 250, 400)
PRODUCT_M = (1 / 8, 1 / 4, 1 / 2, 3 / 4, 1, 3 / 2, 2, 3, 4)  # m as fractions of s


def picks_holes(n: int, holes: int) -> bool:
    """_pure_checked's rule: the hole kernel iff 2H <= n."""
    return 2 * holes <= n


def picks_products(m: int, s: int) -> bool:
    """multiplicity's rule on s + 1 nonzero terms: the product check iff
    m > 2s."""
    return m > 2 * s


def _spread(rng, n, holes):
    """n + 1 degrees from 0 to n + holes, the n - 1 inner ones at random."""
    inner = sorted(rng.sample(range(1, n + holes), n - 1))
    return diagrams.DegreeSequence((0, *inner, n + holes))


def _once(fn, args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _timed(pair, cases):
    """The median over cases of each function's best of REPEATS timings on
    it, the two timed in turn: [t_first, t_second]."""
    best = [[], []]
    for args in cases:
        times = [[], []]
        for _ in range(REPEATS):
            for j, fn in enumerate(pair):
                times[j].append(_once(fn, args[j]))
        for j in (0, 1):
            best[j].append(min(times[j]))
    return [statistics.median(b) for b in best]


def _crossover(points):
    """The x at which a ratio that grows with x passes 1, from the sorted
    (x, ratio) points, interpolated linearly; '<x' or '>x' past them."""
    if points[0][1] > 1:
        return f"<{points[0][0]}"
    for (x0, r0), (x1, r1) in zip(points, points[1:]):
        if r1 > 1 >= r0:
            x = x0 + (1 - r0) * (x1 - x0) / (r1 - r0)
            return f"{x:.1f}".rstrip("0").rstrip(".")
    return f">{points[-1][0]}"


def _points(x, fractions, boundary):
    """The measured points: the fractions of x, at least 1, and the rule's
    boundary with one step past it."""
    return sorted({max(1, round(f * x)) for f in fractions} | {boundary, boundary + 1})


def pure_table(rng):
    """{n: [(H, t_holes, t_runs)]}."""
    kernels = (diagrams._pure_over_holes, diagrams._pure_over_runs)
    table = {}
    for n in PURE_N:
        rows = []
        for holes in _points(n, PURE_H, n // 2):
            cases = []
            for _ in range(SEQUENCES):
                e = _spread(rng, n, holes)
                args = (e, *diagrams._runs(e))
                cases.append((args, args))
            rows.append((holes, *_timed(kernels, cases)))
        table[n] = rows
    return table


def _product_check(terms, s):
    return diagrams._product_moment(terms, sorted(terms), s)


def _long_division(terms, lo, hi, s):
    return sum(diagrams._quotient([terms.get(t, 0) for t in range(lo, hi + 1)], s))


def product_table(rng):
    """{s: [(m, t_products, t_division)]}."""
    kernels = (_product_check, _long_division)
    table = {}
    for s in PRODUCT_S:
        rows = []
        diagrams._binomial_row(s)
        for m in _points(s, PRODUCT_M, 2 * s):
            cases = []
            for _ in range(SEQUENCES):
                b = diagrams.pure_diagram(_spread(rng, s, m - 1))
                terms, lo, hi, _ = diagrams._alternating(b)
                assert hi - lo + 1 - s == m and len(terms) == s + 1
                cases.append(((terms, s), (terms, lo, hi, s)))
            rows.append((m, *_timed(kernels, cases)))
        table[s] = rows
    return table


def _row(label, cells, width=6):
    return f"    {label:<6}" + "".join(f"{c:>{width}}" for c in cells)


def report_pure(table):
    print("pure kernels: H* (holes at which both take the same time) against 2H <= n")
    print(_row("n", table))
    points = {n: [(h, th / tr) for h, th, tr in rows] for n, rows in table.items()}
    print(_row("H*", [_crossover(points[n]) for n in table]))
    print(_row("rule", [f"{n / 2:g}" for n in table]))
    worst = None
    for n, rows in table.items():
        cells = []
        for h, th, tr in rows:
            chosen = th if picks_holes(n, h) else tr
            ratio = chosen / min(th, tr)
            cells.append(f"{h}:{th / tr:.2f}{'*' if picks_holes(n, h) else ''}")
            if n >= 8 and (worst is None or ratio > worst[0]):
                worst = (ratio, n, h)
        print(f"    n={n:<4} holes/runs at H: " + " ".join(cells))
    ratio, n, h = worst
    verdict = "passes" if ratio <= PURE_SLOWEST else "fails"
    print(
        f"    gate (n >= 8, picked <= {PURE_SLOWEST}x the faster; * marks the hole kernel): "
        f"{verdict}, worst {ratio:.2f}x at n={n}, H={h}"
    )


def report_products(table):
    print("multiplicity kernels: m* (length at which both take the same time) against m > 2s")
    print(_row("s", table))
    points = {s: [(m, td / tp) for m, tp, td in rows] for s, rows in table.items()}
    print(_row("m*", [_crossover(points[s]) for s in table]))
    print(_row("rule", [2 * s for s in table]))
    worst = None
    for s, rows in table.items():
        cells = []
        for m, tp, td in rows:
            cells.append(f"{m}:{tp / td:.2f}{'*' if picks_products(m, s) else ''}")
            if picks_products(m, s) and (worst is None or tp / td > worst[0]):
                worst = (tp / td, s, m)
        print(f"    s={s:<4} products/division at m: " + " ".join(cells))
    ratio, s, m = worst
    verdict = "passes" if ratio <= 1 else "fails"
    print(
        f"    gate (the product check, marked *, no slower where picked): "
        f"{verdict}, slowest pick {ratio:.2f}x at s={s}, m={m}"
    )


def main() -> int:
    print(f"{platform.python_implementation()} {platform.python_version()}, {platform.machine()}")
    rng = random.Random(2024)
    report_pure(pure_table(rng))
    report_products(product_table(rng))
    return 0


if __name__ == "__main__":
    sys.exit(main())
