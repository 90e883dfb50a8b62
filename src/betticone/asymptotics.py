"""Certified asymptotics: purity lower bounds and the distribution limit.

Two kinds of quantity live here. The purity lower bound is exact rational
arithmetic end to end: each printed value is combined from the closed
forms' numerators and denominators as integers and becomes one Fraction.
The distribution quantities involve 2^r and
binomial(r, p) at r up to 10^6. Each is written once, as secant.Factors
lists, and _evaluate turns the lists into a float: as an exact rational up
to EXACT_CROSSOVER, as a sum of logs above it. The log sum stays within
1e-10 relative of the exact value for r up to 2*10^4, and within 1e-9 at
r = 10^5 (both tested; measured worst 1.9e-10 there). Its error grows
like r * eps, to about 1e-9 at r = 10^6, and the log path refuses a
larger r (_LOG_R_MAX).

The distribution rows of one d come from one kernel, _distribution_rows:
what depends on d alone (r, the degree factor, 2*pi/r, the column's
constants) once, then per a the column, the factor lists and one
_evaluate. normal_dist_point is its one-a case and distribution_sweep
calls it once per d. The sweep writers format a whole CSV text with
f-strings and write it in one call, the bytes csv.writer would give.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidRange, OutOfRange, require_int, require_rational
from .secant import (
    Factors,
    SecantParams,
    bottom_right_betti,
    dominant_tuple,
    _hn_leading_pair,
    kappa_dominant_factors,
    secant_degree,
)

# above this r, exact binomial/power arithmetic is wasteful; use lgamma
EXACT_CROSSOVER = 300

# The largest r the log path takes, the last r at which its error budget is
# stated (about 1e-9 relative). Its lgamma differences cancel at r * eps:
# at g = k = 1, a = 0 the value reads 0.9977 at r = 10^12, 4e24 at 10^16
# against a limit of 1, and raises OverflowError from 10^18.
_LOG_R_MAX = 10**6

# The most rows purity_sweep builds; it counts them from its arguments
# first. 10^6 rows of g=2, k=1 took 33 s and 376 MB through `sweep purity`
# (2-CPU x86_64, Python 3.11.7); 10^9 would take hours.
_PURITY_ROWS_MAX = 10**6


class PuritySweepRow(NamedTuple):
    d: int
    r: int
    lower_bound: Fraction
    gap: Fraction

    @property
    def r_gap(self) -> Fraction:
        return Fraction(self.r * self.gap.numerator, self.gap.denominator)


class DistributionRow(NamedTuple):
    d: int
    r: int
    p: int
    a_target: float
    value: float
    limit: float


def realized_column(params: SecantParams, a: float) -> int:
    """The integer column tracking r/2 + a*sqrt(r/2), ties rounded half-up.

    Clamped into [1, r - g - 2k - 1], the window where the dominant closed
    form is defined. A non-finite a has no column and raises OutOfRange; a
    finite a so large that the float position overflows just clamps. At
    d = 2g + 2k + 1 the window is empty, and OutOfRange names the first d
    that has a column. An r past the float range has no column either, and
    raises OutOfRange after those two checks.
    """
    return _columns(params)[0](a)


def _columns(params: SecantParams) -> tuple:
    """(column, float(r)): realized_column at params as a function of a
    alone, with r/2, its square root and the window taken once for every a.

    An r past the float range makes those floats nan, and column then
    refuses every a after a's own checks, so the refusals keep
    realized_column's order.
    """
    r = params.r
    hi = r - params.g - 2 * params.k - 1
    try:
        half, root, top = r / 2, math.sqrt(r / 2), float(r)
    except OverflowError:
        half = root = top = math.nan

    def column(a) -> int:
        if not math.isfinite(a):
            raise OutOfRange(f"a must be finite, got {a!r}")
        if hi < 1:
            raise OutOfRange(f"no dominant column at d={params.d}; the first is at d={params.d - hi + 1}")
        if top != top:
            raise OutOfRange(f"r of {r.bit_length()} bits is past the float range")
        return max(1, min(hi, math.floor(min(max(half + a * root + 0.5, 0.0), top))))

    return column, top


def _log_sum(f: Factors) -> float:
    """log of the product f.

    The power of two and the binomials mostly cancel, so they go first;
    the integer factors enter as one log per side.
    """
    out = f.two * math.log(2)
    for n, p, sign in f.binoms:
        out += sign * (math.lgamma(n + 1) - math.lgamma(p + 1) - math.lgamma(n - p + 1))
    return out + math.log(math.prod(f.num)) - math.log(math.prod(f.den))


def _evaluate(f: Factors, root: float, r: int, method: str) -> float:
    """f * sqrt(root): exact rationals up to EXACT_CROSSOVER, logs above.

    method "exact" or "log" forces a path; "auto" picks by r. The log path
    refuses an r above _LOG_R_MAX with OutOfRange; "exact" takes any r.
    """
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" or (method == "auto" and r <= EXACT_CROSSOVER):
        num, den = f.ratio()
        return num / den * math.sqrt(root)  # int / int is float(Fraction(num, den))
    if r > _LOG_R_MAX:  # no caller gets here with an r past the float range
        raise OutOfRange(
            f"r={r} is above the log path's ceiling of r = 10^6, "
            "the last r at which its error budget is stated"
        )
    return math.exp(_log_sum(f) + 0.5 * math.log(root))


def stirling_ratio(r: int, p: int, method: str = "auto") -> float:
    """sqrt(2*pi*r) / 2^(r+1) * binomial(r, p).

    Centered columns p ~ r/2 + a*sqrt(r/2) send this to exp(-a^2) as r
    grows. An r past the float range raises OutOfRange, whatever the
    method, after the checks of r and p.
    """
    if require_int(r, "r", OutOfRange) < 1 or require_int(p, "p", OutOfRange) < 0 or p > r:
        raise OutOfRange(f"need 1 <= r and 0 <= p <= r, got r={r}, p={p}")
    try:
        root = 2 * math.pi * r
    except OverflowError:  # refused before any path builds 2^(r+1)
        raise OutOfRange(f"r of {r.bit_length()} bits is past the float range") from None
    return _evaluate(Factors(binoms=((r, p, 1),), two=-(r + 1)), root, r, method)


def kappa_dominant_log(params: SecantParams, p: int) -> float:
    """log of kappa_dominant(params, p), from the same factor lists."""
    return _log_sum(kappa_dominant_factors(params, p))


def dominant_binomial_ratio(params: SecantParams, a: float, method: str = "auto") -> float:
    """kappa_dominant(p) / (binomial(r, p) / 2^(2k+1)) at the realized column.

    Tends to 1 as d grows with a fixed; how fast is an empirical question
    the tests pin down.
    """
    r = params.r
    p = realized_column(params, a)
    f = kappa_dominant_factors(params, p).times(Factors(binoms=((r, p, -1),), two=2 * params.k + 1))
    return _evaluate(f, 1.0, r, method)


def _degree_factors(params: SecantParams, r_power: int, two: int = 0) -> Factors:
    """secant_degree * (k+1)! / r^r_power * 2^two."""
    return Factors((secant_degree(params), *range(2, params.k + 2)), (params.r,) * r_power, (), two)


def normal_dist_point(params: SecantParams, a: float, method: str = "auto") -> DistributionRow:
    """Scaled dominant entry at the column realizing a; limit exp(-a^2).

    value = scale * secant_degree * kappa_dominant(p) where the scale is
    (k+1)!/(2^(r-2k) r^k) * sqrt(2*pi/r).

    `limit` is the r -> infinity profile exp(-a^2), not a finite-r
    prediction. kappa_dominant(p) ~ binomial(r-2k, p)(r-p)/(r-2k) is
    centred at (r-2k-1)/2, not r/2, so at the r/2-centred column the value
    sits (2k+1)*a*sqrt(2/r) + O(1/r) below the limit (5.1% at g=k=1,
    r=10^4, a=1). Measured from the strand's own centre, x = (p -
    (r-2k-1)/2)/sqrt(r/2), the value is exp(-x^2) up to O(1/r).
    """
    return _distribution_rows(params, (a,), method)[0]


def _distribution_rows(params: SecantParams, a_list, method: str = "auto") -> list:
    """normal_dist_point(params, a, method) for each a of a_list, in order.

    What depends on d alone (r, the degree factor, 2*pi/r and the column's
    constants) is computed once; each a costs its column, its kappa_dominant
    factors and one _evaluate.
    """
    g, k, d = params
    r = d - g
    column, top = _columns(params)
    degree = _degree_factors(params, k, two=2 * k - r)
    root = 2 * math.pi / top  # 2*pi/r: an int divisor is rounded to float(r) first
    rows = []
    for a in a_list:
        p = column(a)
        value = _evaluate(kappa_dominant_factors(params, p).times(degree), root, r, method)
        rows.append(DistributionRow(d, r, p, float(a), value, math.exp(-(a * a))))
    return rows


def collapse_identity(params: SecantParams, a: float) -> tuple:
    """The distribution value refactored through the centered binomial.

    Returns (value, stirling_ratio * correction, correction) where
    correction = (secant_degree * (k+1)! / r^(k+1)) * dominant_binomial_ratio.
    The first two are the same number up to float rounding, for every d,
    and the correction tends to 1; this is the checkable skeleton of the
    limit statement.
    """
    row = normal_dist_point(params, a)
    degree_factor = _evaluate(_degree_factors(params, params.k + 1), 1.0, row.r, "exact")
    correction = degree_factor * dominant_binomial_ratio(params, a)
    return row.value, stirling_ratio(row.r, row.p, method="log") * correction, correction


def purity_lower_bound(params: SecantParams, leading_coefficient: Fraction | None = None) -> Fraction:
    """Exact lower bound on the dominant coefficient of any decomposition.

    Every decomposition of a multiplicity-1 diagram of this family shape
    has coefficients summing to 1, and its degree-(2k+2) numerator
    coefficient A is the same mix of the per-tuple leading coefficients.
    With L* the dominant tuple's leading coefficient and M the best the
    rest can do, A <= c*L* + (1-c*)M forces c* >= (A - M)/(L* - M).

    M = L*(g-1)/g in closed form. The leading coefficients share one
    denominator, so compare the numerators prod_l (i_l + l). A non-dominant
    tuple has some i_j <= g-1, weak monotonicity caps i_0..i_j at g-1, and
    the product telescopes: prod_{l<=j} (g-1+l)/(g+l) = (g-1)/(g+j) <= (g-1)/g.
    The tuple (g-1, g, ..., g) attains it. For g = 1 the dominant tuple is
    the only one with i_0 >= 1, so M = 0, which the formula also gives.
    Substituting M, the bound is g*A/L* - (g-1), clamped to [0, 1]. Neither
    A nor L* is built as a Fraction: each is an unreduced pair of integers
    with a positive denominator (A is (bottom_right_betti, secant_degree),
    or the given coefficient's own pair; L* is secant._hn_leading_pair's,
    both positive). The bound is combined from them as one integer ratio,
    clamped by comparing integers, which scaling the pairs does not change,
    and built as one Fraction.

    With the default A the bound never decreases in d. Let
    W = prod_{j=k+1}^{2k} (r-j), A' = (g-1)(k+1) and
    eps(r) = sum_{i=2}^{min(k+1,g)} C(g,i) (k+1)!/(k+1-i)! / prod_{j=k+1}^{k+i-1} (r-j).
    The degree's term i is C(g,i) C(r-k-i, k+1-i), and (k+1)! times it is
    C(g,i) (k+1)!/(k+1-i)! prod_{j=k+i}^{2k} (r-j): W (r-k) for i = 0,
    W g(k+1) for i = 1, and W times the i-th term of eps for i >= 2. So
    (k+1)! deg = W (r + 1 + A' + eps(r)). Since prod_l (g+l) = C(g+k,k+1)
    (k+1)!, g*A/L* = g(r+1)W / ((k+1)! deg), and the bound is
    g(r+1)/(r+1+A'+eps(r)) - (g-1), clamped. From d >= 2g+2k+1,
    r >= g+2k+1, every r-j above is positive, so eps >= 0 and no term of
    eps grows with r; then (A'+eps)/(r+1) never increases, the unclamped
    bound never decreases, and neither does the clamp of it. For g = 1,
    A' = 0 and eps has no term, so the bound is exactly 1.

    A defaults to the family target binomial(g+k,k+1)/degree; pass the
    diagram's own coefficient to bound a specific synthetic diagram. It is
    read by require_rational, so a float such as 0.015 is refused, not
    taken as the binary fraction nearest it.
    """
    if leading_coefficient is None:
        a_num, a_den = bottom_right_betti(params), secant_degree(params)
    else:
        a_coeff = require_rational(leading_coefficient, "leading coefficient")
        a_num, a_den = a_coeff.numerator, a_coeff.denominator
    l_num, l_den = _hn_leading_pair(params, dominant_tuple(params))
    # g*A/L* - (g-1) = num/den with den > 0
    den = a_den * l_num
    num = params.g * a_num * l_den - (params.g - 1) * den
    if num <= 0:
        return Fraction(0)
    if num >= den:
        return Fraction(1)
    return Fraction(num, den)


def purity_sweep(g: int, k: int, d_min: int, d_max: int, step: int = 1):
    """Purity rows for d = d_min, d_min+step, ..., capped at d_max.

    More than _PURITY_ROWS_MAX rows raise InvalidRange before any is built.
    """
    for name, v in (("g", g), ("k", k), ("d_min", d_min), ("d_max", d_max), ("step", step)):
        require_int(v, name, InvalidRange)
    if step < 1:
        raise InvalidRange(f"step must be positive, got {step}")
    if d_min < 2 * g + 2 * k + 1:
        raise InvalidRange(f"d_min={d_min} below the valid range start {2 * g + 2 * k + 1}")
    count = max(0, (d_max - d_min) // step + 1)
    if count > _PURITY_ROWS_MAX:
        raise InvalidRange(
            f"purity sweep of {count} rows exceeds the ceiling of {_PURITY_ROWS_MAX} rows"
        )
    rows = []
    for d in range(d_min, d_max + 1, step):
        bound = purity_lower_bound(SecantParams(g, k, d))
        gap = Fraction(bound.denominator - bound.numerator, bound.denominator)
        # positional, as SecantParams builds itself: the fields are known good
        rows.append(tuple.__new__(PuritySweepRow, (d, d - g, bound, gap)))
    return rows


def distribution_sweep(g: int, k: int, a_list, d_list):
    """normal_dist_point over the cartesian grid, d-major order. a_list is
    read once, so any iterable serves every d."""
    a_list = tuple(a_list)
    rows = []
    for d in d_list:
        rows += _distribution_rows(SecantParams(g, k, d), a_list)
    return rows


def _write_csv(out, text: str) -> None:
    """text to the path out as UTF-8, its line ends kept as they are.

    The sweep writers build the whole text before the file is opened, so a
    value that cannot be formatted (an int past the digit limit) leaves the
    file as it was. Their text is what csv.writer with a newline line
    terminator writes for the same rows: every field is an int, a fixed
    name or a float repr, none of which holds a comma, a quote or a line
    break, so csv would quote none of them.
    """
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_purity_csv(g: int, k: int, rows, out) -> None:
    """Exact CSV at the path out: one row per (d, quantity), quantities as
    num/den columns."""
    _write_csv(out, "g,k,d,r,quantity,value_num,value_den\n" + "".join(
        f"{g},{k},{row.d},{row.r},{name},{v.numerator},{v.denominator}\n"
        for row in rows
        for name, v in (("lower_bound", row.lower_bound), ("gap", row.gap), ("r_gap", row.r_gap))
    ))


def write_distribution_csv(g: int, k: int, rows, out) -> None:
    _write_csv(out, "g,k,d,r,a,p,value,limit\n" + "".join(
        f"{g},{k},{row.d},{row.r},{row.a_target!r},{row.p},{row.value!r},{row.limit!r}\n"
        for row in rows
    ))


def calibrate_purity(g: int, k: int, d_max: int, threshold: Fraction = Fraction(99, 100)) -> dict:
    """Scan the full range once and freeze the thresholds the tests assert.

    Returns the d after which the bound stays at or above the threshold
    through d_max, the maximal r*gap seen, and an integer ceiling for it.
    The threshold is read by require_rational before anything else.
    """
    threshold = require_rational(threshold, "threshold")
    d_min = 2 * g + 2 * k + 1
    rows = purity_sweep(g, k, d_min, d_max)
    if not rows:
        raise InvalidRange(f"d_max={d_max} below the valid range start {d_min}")
    # the bound never decreases in d (proved in purity_lower_bound)
    d_star = next((row.d for row in rows if row.lower_bound >= threshold), None)
    if d_star is None:
        raise InvalidRange(f"bound never holds through d_max={d_max}; last failure at {d_max}")
    max_r_gap = max(row.r_gap for row in rows)
    return {
        "g": g,
        "k": k,
        "d_min": d_min,
        "d_max": d_max,
        "threshold": f"{threshold.numerator}/{threshold.denominator}",
        "purity_d_star": d_star,
        "max_r_gap": f"{max_r_gap.numerator}/{max_r_gap.denominator}",
        "r_gap_limit": math.floor(max_r_gap) + 1,
    }
