"""Certified asymptotics: purity lower bounds and the distribution limit.

Two kinds of quantity live here. The purity lower bound is exact rational
arithmetic end to end. The distribution quantities involve 2^r and
binomial(r, p) at r up to 10^6, so they evaluate in log-gamma space once r
crosses EXACT_CROSSOVER; below that an exact big-rational path exists too,
and the two must agree to well below any test tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidRange, OutOfRange
from .secant import (
    SecantParams,
    dominant_tuple,
    hn_leading_coefficient,
    kappa_dominant,
    normalized_hn_leading,
    secant_degree,
)

# above this r, exact binomial/power arithmetic is wasteful; use lgamma
EXACT_CROSSOVER = 300


@dataclass(frozen=True)
class PuritySweepRow:
    d: int
    r: int
    lower_bound: Fraction
    gap: Fraction

    @property
    def r_gap(self) -> Fraction:
        return self.r * self.gap


@dataclass(frozen=True)
class DistributionRow:
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


def _log_comb(r: int, p: int) -> float:
    return math.lgamma(r + 1) - math.lgamma(p + 1) - math.lgamma(r - p + 1)


def stirling_ratio(r: int, p: int, method: str = "auto") -> float:
    """sqrt(2*pi*r) / 2^(r+1) * binomial(r, p).

    Centered columns p ~ r/2 + a*sqrt(r/2) send this to exp(-a^2) as r
    grows.
    """
    if not isinstance(r, int) or not isinstance(p, int):
        raise OutOfRange(f"r and p must be integers, got {r!r}, {p!r}")
    if r < 1 or p < 0 or p > r:
        raise OutOfRange(f"need 1 <= r and 0 <= p <= r, got r={r}, p={p}")
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" or (method == "auto" and r <= EXACT_CROSSOVER):
        return float(Fraction(math.comb(r, p), 2 ** (r + 1))) * math.sqrt(2 * math.pi * r)
    return math.exp(
        0.5 * math.log(2 * math.pi * r) - (r + 1) * math.log(2) + _log_comb(r, p)
    )


def kappa_dominant_log(params: SecantParams, p: int) -> float:
    """log of kappa_dominant(params, p), assembled factor by factor."""
    g, k, r = params.g, params.k, params.r
    if not isinstance(p, int) or isinstance(p, bool):
        raise OutOfRange(f"p must be an integer, got {p!r}")
    if p < 1 or p > r - g - 2 * k - 1:
        raise OutOfRange(f"p={p} outside [1, {r - g - 2 * k - 1}]")
    out = _log_comb(r - 2 * k, p)
    out += math.log(p) - math.log(p + k + 1)
    for i in range(k, 2 * k + 1):
        out += math.log(r - p - g - i)
    out -= math.log(r - 2 * k)
    for i in range(k, 2 * k):
        out -= math.log(r - p - i)
    return out


def dominant_binomial_ratio(params: SecantParams, a: float, method: str = "auto") -> float:
    """kappa_dominant(p) / (binomial(r, p) / 2^(2k+1)) at the realized column.

    Tends to 1 as d grows with a fixed; how fast is an empirical question
    the tests pin down.
    """
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    r = params.r
    p = realized_column(params, a)
    if method == "exact" or (method == "auto" and r <= EXACT_CROSSOVER):
        exact = kappa_dominant(params, p) * 2 ** (2 * params.k + 1) / math.comb(r, p)
        return float(exact)
    return math.exp(
        kappa_dominant_log(params, p) + (2 * params.k + 1) * math.log(2) - _log_comb(r, p)
    )


def _log_scale_factor(params: SecantParams) -> float:
    """log of (k+1)! / (2^(r-2k) r^k) * sqrt(2*pi/r)."""
    k, r = params.k, params.r
    return (
        math.lgamma(k + 2)
        - (r - 2 * k) * math.log(2)
        - k * math.log(r)
        + 0.5 * math.log(2 * math.pi / r)
    )


def normal_dist_point(params: SecantParams, a: float, method: str = "auto") -> DistributionRow:
    """Scaled dominant entry at the column realizing a; limit exp(-a^2).

    value = scale * secant_degree * kappa_dominant(p) where the scale is
    (k+1)!/(2^(r-2k) r^k) * sqrt(2*pi/r).
    """
    if method not in ("auto", "exact", "log"):
        raise ValueError(f"unknown method {method!r}")
    r = params.r
    p = realized_column(params, a)
    deg = secant_degree(params)
    if method == "exact" or (method == "auto" and r <= EXACT_CROSSOVER):
        k = params.k
        rational = (
            Fraction(math.factorial(k + 1), 2 ** (r - 2 * k) * r**k)
            * deg
            * kappa_dominant(params, p)
        )
        value = float(rational) * math.sqrt(2 * math.pi / r)
    else:
        value = math.exp(
            _log_scale_factor(params) + math.log(deg) + kappa_dominant_log(params, p)
        )
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
    r, k = params.r, params.k
    p = realized_column(params, a)
    value = normal_dist_point(params, a).value
    degree_factor = math.exp(
        math.log(secant_degree(params)) + math.lgamma(k + 2) - (k + 1) * math.log(r)
    )
    correction = degree_factor * dominant_binomial_ratio(params, a)
    return value, stirling_ratio(r, p, method="log") * correction, correction


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


def write_purity_csv(g: int, k: int, rows, out) -> None:
    """Exact CSV: one row per (d, quantity), quantities as num/den columns."""
    close = False
    if isinstance(out, (str, bytes)):
        out = open(out, "w", encoding="utf-8", newline="")
        close = True
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["g", "k", "d", "r", "quantity", "value_num", "value_den"])
        for row in rows:
            for name, v in (
                ("lower_bound", row.lower_bound),
                ("gap", row.gap),
                ("r_gap", row.r_gap),
            ):
                w.writerow([g, k, row.d, row.r, name, v.numerator, v.denominator])
    finally:
        if close:
            out.close()


def write_distribution_csv(g: int, k: int, rows, out) -> None:
    close = False
    if isinstance(out, (str, bytes)):
        out = open(out, "w", encoding="utf-8", newline="")
        close = True
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["g", "k", "d", "r", "a", "p", "value", "limit"])
        for row in rows:
            w.writerow([g, k, row.d, row.r, row.a_target, row.p, repr(row.value), repr(row.limit)])
    finally:
        if close:
            out.close()


def calibrate_purity(g: int, k: int, d_max: int, threshold: Fraction = Fraction(99, 100)) -> dict:
    """Scan the full range once and freeze the thresholds the tests assert.

    Returns the d after which the bound stays at or above the threshold
    through d_max, the maximal r*gap seen, and an integer ceiling for it.
    """
    d_min = 2 * g + 2 * k + 1
    rows = purity_sweep(g, k, d_min, d_max)
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
