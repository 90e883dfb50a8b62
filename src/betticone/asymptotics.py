"""Certified asymptotics: purity lower bounds and the distribution limit.

Two kinds of quantity live here. The purity lower bound is exact rational
arithmetic end to end. The distribution quantities involve 2^r and
binomial(r, p) at r up to 10^6. Each is written once, as secant.Factors
lists, and _evaluate turns the lists into a float: as an exact rational up
to EXACT_CROSSOVER, as a sum of logs above it. The log sum stays within
1e-10 relative of the exact value for r up to 2*10^4 (tested).
"""

from __future__ import annotations

import contextlib
import csv
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidRange, OutOfRange, require_int
from .secant import (
    Factors,
    SecantParams,
    dominant_tuple,
    hn_leading_coefficient,
    kappa_dominant_factors,
    normalized_hn_leading,
    secant_degree,
)

# above this r, exact binomial/power arithmetic is wasteful; use lgamma
EXACT_CROSSOVER = 300


class PuritySweepRow(NamedTuple):
    d: int
    r: int
    lower_bound: Fraction
    gap: Fraction

    @property
    def r_gap(self) -> Fraction:
        return self.r * self.gap


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
    finite a so large that the float position overflows just clamps.
    """
    if not math.isfinite(a):
        raise OutOfRange(f"a must be finite, got {a!r}")
    r = params.r
    raw = min(max(r / 2 + a * math.sqrt(r / 2) + 0.5, 0.0), float(r))
    hi = r - params.g - 2 * params.k - 1
    return max(1, min(hi, math.floor(raw)))


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

    method "exact" or "log" forces a path; "auto" picks by r.
    """
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" or (method == "auto" and r <= EXACT_CROSSOVER):
        num, den = f.ratio()
        return num / den * math.sqrt(root)  # int / int is float(Fraction(num, den))
    return math.exp(_log_sum(f) + 0.5 * math.log(root))


def stirling_ratio(r: int, p: int, method: str = "auto") -> float:
    """sqrt(2*pi*r) / 2^(r+1) * binomial(r, p).

    Centered columns p ~ r/2 + a*sqrt(r/2) send this to exp(-a^2) as r
    grows.
    """
    if require_int(r, "r", OutOfRange) < 1 or require_int(p, "p", OutOfRange) < 0 or p > r:
        raise OutOfRange(f"need 1 <= r and 0 <= p <= r, got r={r}, p={p}")
    return _evaluate(Factors(binoms=((r, p, 1),), two=-(r + 1)), 2 * math.pi * r, r, method)


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
    r, k = params.r, params.k
    p = realized_column(params, a)
    f = kappa_dominant_factors(params, p).times(_degree_factors(params, k, two=2 * k - r))
    value = _evaluate(f, 2 * math.pi / r, r, method)
    return DistributionRow(
        d=params.d, r=r, p=p, a_target=float(a), value=value, limit=math.exp(-(a * a))
    )


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
    Substituting M, the bound is g*A/L* - (g-1), clamped to [0, 1].

    A defaults to the family target binomial(g+k,k+1)/degree; pass the
    diagram's own coefficient to bound a specific synthetic diagram.
    """
    a_coeff = leading_coefficient
    if a_coeff is None:
        a_coeff = normalized_hn_leading(params)
    l_star = hn_leading_coefficient(params, dominant_tuple(params))
    bound = params.g * Fraction(a_coeff) / l_star - (params.g - 1)
    return max(Fraction(0), min(Fraction(1), bound))


def purity_sweep(g: int, k: int, d_min: int, d_max: int, step: int = 1):
    """Purity rows for d = d_min, d_min+step, ..., capped at d_max."""
    for name, v in (("g", g), ("k", k), ("d_min", d_min), ("d_max", d_max), ("step", step)):
        require_int(v, name, InvalidRange)
    if step < 1:
        raise InvalidRange(f"step must be positive, got {step}")
    if d_min < 2 * g + 2 * k + 1:
        raise InvalidRange(f"d_min={d_min} below the valid range start {2 * g + 2 * k + 1}")
    rows = []
    for d in range(d_min, d_max + 1, step):
        params = SecantParams(g, k, d)
        bound = purity_lower_bound(params)
        rows.append(PuritySweepRow(d=d, r=params.r, lower_bound=bound, gap=1 - bound))
    return rows


def distribution_sweep(g: int, k: int, a_list, d_list):
    """normal_dist_point over the cartesian grid, d-major order."""
    return [normal_dist_point(SecantParams(g, k, d), a) for d in d_list for a in a_list]


@contextlib.contextmanager
def _opened(out):
    """A path (str or bytes) opened for writing and closed on exit; a file object as is."""
    if isinstance(out, (str, bytes)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield out


def write_purity_csv(g: int, k: int, rows, out) -> None:
    """Exact CSV: one row per (d, quantity), quantities as num/den columns."""
    with _opened(out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["g", "k", "d", "r", "quantity", "value_num", "value_den"])
        for row in rows:
            for name, v in (("lower_bound", row.lower_bound), ("gap", row.gap), ("r_gap", row.r_gap)):
                w.writerow([g, k, row.d, row.r, name, v.numerator, v.denominator])


def write_distribution_csv(g: int, k: int, rows, out) -> None:
    with _opened(out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["g", "k", "d", "r", "a", "p", "value", "limit"])
        for row in rows:
            w.writerow([g, k, row.d, row.r, row.a_target, row.p, repr(row.value), repr(row.limit)])


def calibrate_purity(g: int, k: int, d_max: int, threshold: Fraction = Fraction(99, 100)) -> dict:
    """Scan the full range once and freeze the thresholds the tests assert.

    Returns the d after which the bound stays at or above the threshold
    through d_max, the maximal r*gap seen, and an integer ceiling for it.
    """
    d_min = 2 * g + 2 * k + 1
    rows = purity_sweep(g, k, d_min, d_max)
    if not rows:
        raise InvalidRange(f"d_max={d_max} below the valid range start {d_min}")
    last_below = None
    max_r_gap = Fraction(0)
    for row in rows:
        if row.lower_bound < threshold:
            last_below = row.d
        max_r_gap = max(max_r_gap, row.r_gap)
    d_star = d_min if last_below is None else last_below + 1
    if d_star > d_max:
        raise InvalidRange(
            f"bound never holds through d_max={d_max}; last failure at {last_below}"
        )
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
