"""Purity bounds and distribution-limit numerics.

Claims pinned here:
    - the exact and log-domain evaluation paths agree far below tolerance,
      and within 1e-10 relative at the r where "auto" takes the log path
    - purity_lower_bound frozen rational values, the g = 1 identity
      (bound exactly 1), and the clamp to 0 when the default target is weak
    - purity_lower_bound's closed form equals the bound from enumerating
      every jump tuple, and M = L*(g-1)/g holds on the same grid
    - (k+1)! * degree = W * (r + 1 + A + eps(r)) exactly, with eps >= 0 and
      never increasing, so the default bound never decreases in d
    - the g=2, k=1 calibration constants match the checked-in fixture, and
      calibrate_purity's first crossing equals a scan for the last failure
    - purity_lower_bound's leading coefficient and calibrate_purity's
      threshold are read by require_rational: "3/200" is 3/200, and a
      float, a bool or 1/0 is refused
    - at d = 2g + 2k + 1 no column is dominant, and the distribution
      quantities say so
    - dominant_binomial_ratio approaches 1 from below, deviation shrinking
    - normal_dist_point satisfies the collapse identity at float precision
    - its deviation from exp(-a^2) is the first-order shift of the strand's
      centre to (r-2k-1)/2, up to O(1/r); about that centre the residual
      from the Gaussian profile is O(1/r)
    - sweep CSV writers emit the documented headers and exact columns
    - purity rows hold reduced Fractions with the enumerating oracle's
      bound, gap = 1 - bound and r_gap = r * gap, and a sweep of more rows
      than the ceiling is refused before any is built
    - distribution rows equal normal_dist_point float for float, before and
      after another distribution quantity is evaluated, and a one-shot
      iterable of a serves every d; past the float range of r a non-finite a
      is refused first, then every a, and stirling_ratio refuses such an r
      on every method
    - the log path refuses an r above 10^6, the last r its error budget is
      stated at, while method "exact" takes it
    - both CSV writers give the bytes csv.writer(lineterminator="\\n")
      writes for the same rows (the oracle), on seeded grids, and a value
      that cannot be formatted leaves the file as it was
"""

import csv
import io
import json
import math
import pathlib
import random
import re
import sys
from fractions import Fraction

import pytest

from betticone import asymptotics, secant
from betticone.errors import InvalidRange, OutOfRange

F = Fraction
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "purity_calibration.json"


def test_realized_column_centering():
    params = secant.SecantParams(1, 1, 10**4 + 1)
    r = params.r
    assert asymptotics.realized_column(params, 0.0) == r // 2
    p1 = asymptotics.realized_column(params, 1.0)
    assert p1 == math.floor(r / 2 + math.sqrt(r / 2) + 0.5)
    # clamping kicks in for extreme a
    tiny = secant.SecantParams(1, 1, 7)
    assert asymptotics.realized_column(tiny, -50.0) == 1
    assert asymptotics.realized_column(tiny, 50.0) == tiny.r - 1 - 2 - 1
    # ... also when the float position overflows
    assert asymptotics.realized_column(tiny, 1e308) == tiny.r - 1 - 2 - 1
    assert asymptotics.realized_column(tiny, -1e308) == 1
    # a non-finite a has no column
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(OutOfRange):
            asymptotics.realized_column(tiny, a)


def test_smallest_d_has_no_dominant_column():
    # at d = 2g + 2k + 1 the window [1, r - g - 2k - 1] is empty
    for g, k in ((1, 1), (2, 0), (3, 2)):
        first = secant.SecantParams(g, k, 2 * g + 2 * k + 1)
        message = f"no dominant column at d={first.d}; the first is at d={first.d + 1}"
        for quantity in (
            asymptotics.realized_column,
            asymptotics.normal_dist_point,
            asymptotics.dominant_binomial_ratio,
            asymptotics.collapse_identity,
        ):
            with pytest.raises(OutOfRange, match=f"^{message}$"):
                quantity(first, 0.0)
        second = secant.SecantParams(g, k, first.d + 1)
        assert asymptotics.realized_column(second, 0.0) == 1
        assert asymptotics.normal_dist_point(second, 0.0).p == 1


def test_stirling_ratio_exact_matches_log():
    for r in (4, 40, 200, 300):
        for p in (0, r // 3, r // 2, r):
            e = asymptotics.stirling_ratio(r, p, method="exact")
            l = asymptotics.stirling_ratio(r, p, method="log")
            assert l == pytest.approx(e, rel=1e-12), (r, p)


def test_stirling_ratio_frozen_value():
    # sqrt(8*pi) * 6 / 32 at (r, p) = (4, 2)
    got = asymptotics.stirling_ratio(4, 2)
    assert got == pytest.approx(math.sqrt(8 * math.pi) * 6 / 32, rel=1e-15)
    assert got == pytest.approx(0.9399856029866251, rel=1e-12)


def test_stirling_ratio_validation():
    with pytest.raises(OutOfRange):
        asymptotics.stirling_ratio(0, 0)
    with pytest.raises(OutOfRange):
        asymptotics.stirling_ratio(10, 11)
    with pytest.raises(ValueError):
        asymptotics.stirling_ratio(10, 5, method="fast")


def test_stirling_ratio_refuses_r_past_the_float_range():
    # refused before any float or power of two is built, on every path;
    # the r/p checks still come first
    for method in ("auto", "exact", "log"):
        with pytest.raises(OutOfRange, match="^r of 1329 bits is past the float range$"):
            asymptotics.stirling_ratio(10**400, 10, method=method)
    with pytest.raises(OutOfRange, match="need 1 <= r"):
        asymptotics.stirling_ratio(10**400, -1)


def test_stirling_ratio_rejects_bools():
    # True is an int to isinstance, but not an integer argument here
    for r, p in ((True, 1), (10, False)):
        with pytest.raises(OutOfRange):
            asymptotics.stirling_ratio(r, p)


def test_kappa_dominant_log_matches_exact():
    for (g, k, d) in [(1, 1, 30), (2, 1, 41), (3, 2, 60)]:
        params = secant.SecantParams(g, k, d)
        hi = params.r - g - 2 * k - 1
        for p in (1, hi // 2 or 1, hi):
            want = math.log(secant.kappa_dominant(params, p))
            got = asymptotics.kappa_dominant_log(params, p)
            assert got == pytest.approx(want, rel=1e-12), (g, k, d, p)


def test_dominant_binomial_ratio_paths_agree():
    params = secant.SecantParams(1, 1, 250)
    e = asymptotics.dominant_binomial_ratio(params, 0.0, method="exact")
    l = asymptotics.dominant_binomial_ratio(params, 0.0, method="log")
    assert l == pytest.approx(e, rel=1e-11)


def test_dominant_binomial_ratio_tends_to_one_from_below():
    values = [
        asymptotics.dominant_binomial_ratio(secant.SecantParams(1, 1, 10**e + 1), 0.0)
        for e in (2, 3, 4)
    ]
    assert all(0 < v < 1 for v in values)
    devs = [abs(1 - v) for v in values]
    assert devs[0] > devs[1] > devs[2]


def test_normal_dist_point_exact_matches_log():
    params = secant.SecantParams(1, 1, 250)
    e = asymptotics.normal_dist_point(params, 0.0, method="exact")
    l = asymptotics.normal_dist_point(params, 0.0, method="log")
    assert e.p == l.p
    assert l.value == pytest.approx(e.value, rel=1e-11)


# Log-path budget where "auto" takes it, r above EXACT_CROSSOVER: 1e-10
# relative (measured worst 5.1e-11, from lgamma cancellation ~ r*eps).
LOG_BUDGET = 1e-10
LOG_RS = (10**3, 10**4, 2 * 10**4)


def _log_exact(x: Fraction) -> float:
    """log of a positive rational too large for a float."""
    return math.log(x.numerator) - math.log(x.denominator)


def test_log_path_within_budget_where_it_runs():
    for (g, k) in [(1, 1), (3, 2)]:
        for r in LOG_RS:
            assert r > asymptotics.EXACT_CROSSOVER
            params = secant.SecantParams(g, k, r + g)
            for a in (0.0, 1.0):
                e = asymptotics.normal_dist_point(params, a, method="exact").value
                l = asymptotics.normal_dist_point(params, a).value
                assert abs(l - e) <= LOG_BUDGET * e, (g, k, r, a, "normal_dist_point")
                e = asymptotics.dominant_binomial_ratio(params, a, method="exact")
                l = asymptotics.dominant_binomial_ratio(params, a)
                assert abs(l - e) <= LOG_BUDGET * e, (g, k, r, a, "dominant_binomial_ratio")
                p = asymptotics.realized_column(params, a)
                e = asymptotics.stirling_ratio(r, p, method="exact")
                l = asymptotics.stirling_ratio(r, p)
                assert abs(l - e) <= LOG_BUDGET * e, (r, p, "stirling_ratio")
                # an absolute error in the log is the relative error of the value
                want = _log_exact(secant.kappa_dominant(params, p))
                got = asymptotics.kappa_dominant_log(params, p)
                assert abs(got - want) <= LOG_BUDGET, (g, k, r, p, "kappa_dominant_log")


def test_log_path_within_budget_at_r_1e5():
    # sweep distribution takes the log path up to r = 10^6; its error grows
    # like r * eps, and at r = 10^5 it stays within 1e-9 relative (measured
    # 1.9e-10 and 4.8e-11 at these two points). Each exact point takes about
    # 0.15 s
    for g, k, a in ((1, 1, 0.0), (3, 2, 1.0)):
        params = secant.SecantParams(g, k, 10**5 + g)
        assert params.r == 10**5
        e = asymptotics.normal_dist_point(params, a, method="exact").value
        l = asymptotics.normal_dist_point(params, a, method="log").value
        assert abs(l - e) <= 1e-9 * e, (g, k, a)


def test_collapse_identity_holds_everywhere():
    for (g, k) in [(1, 1), (2, 1), (1, 2)]:
        for d in (2 * g + 2 * k + 9, 500 + g, 10**4 + g):
            params = secant.SecantParams(g, k, d)
            for a in (0.0, 0.7, 1.0):
                value, rhs, corr = asymptotics.collapse_identity(params, a)
                assert rhs == pytest.approx(value, rel=1e-9), (g, k, d, a)
                assert corr > 0


def _strand_profile(params, p):
    """exp(-x^2) at x = (p - (r-2k-1)/2)/sqrt(r/2), the strand's own centre."""
    r, k = params.r, params.k
    x = (p - (r - 2 * k - 1) / 2) / math.sqrt(r / 2)
    return math.exp(-x * x)


def test_distribution_deviation_is_first_order_centre_shift():
    # At the r/2-centred column the value sits below exp(-a^2) by the
    # rounding of p and the strand's centre shift, to first order:
    # value/exp(-a^2) = exp(a^2 - a_eff^2)(1 - (2k+1) a_eff sqrt(2/r)) + O(1/r).
    # The largest measured r*|residual| is 12.25, at a = 0.
    k = 1
    for r in (10**3, 10**4, 10**5, 10**6):
        params = secant.SecantParams(1, k, r + 1)
        for a in (0.0, 1.0):
            row = asymptotics.normal_dist_point(params, a)
            a_eff = (row.p - r / 2) / math.sqrt(r / 2)
            predicted = (
                math.exp(a * a - a_eff * a_eff)
                * (1 - (2 * k + 1) * a_eff * math.sqrt(2 / r))
                - 1
            )
            measured = row.value / row.limit - 1
            assert abs(measured - predicted) <= 16 / r, (r, a, measured, predicted)


def test_distribution_strand_centred_residual_is_order_one_over_r():
    # An O(1/sqrt(r)) error would shrink only sqrt(10) ~ 3.2x per decade of r.
    for (g, k) in [(1, 0), (1, 1), (2, 1), (3, 2), (4, 3)]:
        worst = {}
        for r in (10**4, 10**5):
            params = secant.SecantParams(g, k, r + g)
            worst[r] = max(
                abs(row.value / _strand_profile(params, row.p) - 1)
                for row in (
                    asymptotics.normal_dist_point(params, float(a))
                    for a in (-2, -1, 0, 1, 2)
                )
            )
        assert worst[10**4] >= 5 * worst[10**5], (g, k, worst)


def test_purity_lower_bound_frozen_values():
    assert asymptotics.purity_lower_bound(secant.SecantParams(2, 1, 7)) == F(5, 13)
    assert asymptotics.purity_lower_bound(secant.SecantParams(2, 1, 20)) == F(135, 169)
    assert asymptotics.purity_lower_bound(secant.SecantParams(2, 1, 100)) == F(4655, 4849)
    # default target weaker than the best non-dominant tuple: clamp to 0
    assert asymptotics.purity_lower_bound(secant.SecantParams(3, 1, 11)) == 0


def test_purity_lower_bound_genus_one_is_exactly_one():
    for k in (0, 1, 2, 3):
        for d in (2 * k + 3, 2 * k + 10, 2 * k + 61):
            assert asymptotics.purity_lower_bound(secant.SecantParams(1, k, d)) == 1


def test_purity_lower_bound_custom_leading_coefficient():
    params = secant.SecantParams(2, 1, 20)
    l_star = secant.hn_leading_coefficient(params, secant.dominant_tuple(params))
    assert asymptotics.purity_lower_bound(params, leading_coefficient=l_star) == 1
    assert asymptotics.purity_lower_bound(params, leading_coefficient=0) == 0


def test_purity_lower_bound_reads_leading_coefficient_as_a_rational():
    params = secant.SecantParams(2, 1, 20)
    assert asymptotics.purity_lower_bound(params, "3/200") == F(13, 25)
    assert asymptotics.purity_lower_bound(params, F(3, 200)) == F(13, 25)
    # a float is not its decimal, a bool is not 1, and 1/0 names the argument
    for value in (0.015, True, "1/0", "1e99999"):
        with pytest.raises(ValueError, match="^leading coefficient"):
            asymptotics.purity_lower_bound(params, value)


def _best_non_dominant(params):
    """M by enumeration: the best leading coefficient of a non-dominant tuple."""
    dom = secant.dominant_tuple(params)
    return max(
        (
            secant.hn_leading_coefficient(params, i)
            for i in secant.jump_tuples(params.g, params.k)
            if i != dom and i[0] >= 1
        ),
        default=F(0),
    )


def _enumerated_purity_bound(params, leading_coefficient=None):
    """The bound (A - M)/(L* - M) with M found by scanning every jump tuple."""
    a_coeff = F(
        secant.normalized_hn_leading(params) if leading_coefficient is None else leading_coefficient
    )
    l_star = secant.hn_leading_coefficient(params, secant.dominant_tuple(params))
    m_best = _best_non_dominant(params)
    assert l_star > m_best
    return max(F(0), min(F(1), (a_coeff - m_best) / (l_star - m_best)))


def _oracle_grid():
    for g in range(1, 7):
        for k in range(0, 5):
            lo = 2 * g + 2 * k + 1
            for d in (lo, lo + 1, lo + 4, lo + 17, 100 + g, 1000 + 3 * g):
                yield secant.SecantParams(g, k, d)


def test_best_non_dominant_is_closed_form():
    for params in _oracle_grid():
        l_star = secant.hn_leading_coefficient(params, secant.dominant_tuple(params))
        assert _best_non_dominant(params) == l_star * F(params.g - 1, params.g), params


def test_purity_lower_bound_matches_enumerating_oracle():
    for params in _oracle_grid():
        l_star = secant.hn_leading_coefficient(params, secant.dominant_tuple(params))
        # A = L*(g-1)/g is where the unclamped bound is exactly 0
        zero_at = l_star * F(params.g - 1, params.g)
        tiny = F(1, 10**12)
        for a_coeff in (None, F(0), l_star / 7, l_star, zero_at, zero_at - tiny, zero_at + tiny):
            want = _enumerated_purity_bound(params, a_coeff)
            got = asymptotics.purity_lower_bound(params, leading_coefficient=a_coeff)
            assert got == want, (params, a_coeff)
            assert type(got) is F and math.gcd(got.numerator, got.denominator) == 1
        assert asymptotics.purity_lower_bound(params, zero_at) == 0
        assert asymptotics.purity_lower_bound(params, zero_at + tiny) > 0


def test_purity_lower_bound_never_decreases_in_d():
    # the identity and the steps of the proof in purity_lower_bound's
    # docstring, exactly, over 150 consecutive d from the range start
    for g in range(1, 7):
        for k in range(0, 5):
            lo = 2 * g + 2 * k + 1
            shift = (g - 1) * (k + 1)
            last_bound, last_eps = F(0), None
            for d in range(lo, lo + 150):
                params = secant.SecantParams(g, k, d)
                r = params.r
                w = math.prod(r - j for j in range(k + 1, 2 * k + 1))
                eps = sum(
                    F(math.comb(g, i) * math.perm(k + 1, i),
                      math.prod(r - j for j in range(k + 1, k + i)))
                    for i in range(2, min(k + 1, g) + 1)
                )
                assert math.factorial(k + 1) * secant.secant_degree(params) == w * (
                    r + 1 + shift + eps
                ), (g, k, d)
                assert eps >= 0 and (last_eps is None or eps <= last_eps), (g, k, d)
                bound = asymptotics.purity_lower_bound(params)
                closed = F(g * (r + 1)) / (r + 1 + shift + eps) - (g - 1)
                assert bound == max(F(0), min(F(1), closed)), (g, k, d)
                assert bound >= last_bound, (g, k, d)
                if g == 1:
                    assert bound == 1
                last_bound, last_eps = bound, eps


def test_purity_sweep_grid_and_errors():
    rows = asymptotics.purity_sweep(2, 1, 7, 13, step=3)
    assert [row.d for row in rows] == [7, 10, 13]
    assert rows[0].lower_bound == F(5, 13)
    assert rows[0].gap == F(8, 13)
    assert rows[0].r_gap == 5 * F(8, 13)
    assert asymptotics.purity_sweep(2, 1, 7, 6) == []
    with pytest.raises(InvalidRange):
        asymptotics.purity_sweep(2, 1, 5, 20)
    with pytest.raises(InvalidRange):
        asymptotics.purity_sweep(2, 1, 7, 20, step=0)


def test_purity_sweep_rows_are_exact_and_reduced():
    for g in range(1, 7):
        for k in range(0, 5):
            lo = 2 * g + 2 * k + 1
            for row in asymptotics.purity_sweep(g, k, lo, lo + 40, step=2):
                params = secant.SecantParams(g, k, row.d)
                assert row.lower_bound == _enumerated_purity_bound(params, None), row
                assert row.gap == 1 - row.lower_bound, row
                assert row.r_gap == row.r * row.gap, row
                for v in (row.lower_bound, row.gap, row.r_gap):
                    assert type(v) is F and math.gcd(v.numerator, v.denominator) == 1, row


def test_purity_sweep_row_ceiling(monkeypatch):
    # the count comes from the arguments, so no row is built above it
    ceiling = asymptotics._PURITY_ROWS_MAX
    assert ceiling == 10**6
    for d_max, count in ((7 + ceiling, ceiling + 1), (10**30, 10**30 - 6)):
        message = f"^purity sweep of {count} rows exceeds the ceiling of {ceiling} rows$"
        with pytest.raises(InvalidRange, match=message):
            asymptotics.purity_sweep(2, 1, 7, d_max)
    monkeypatch.setattr(asymptotics, "_PURITY_ROWS_MAX", 5)
    assert [row.d for row in asymptotics.purity_sweep(2, 1, 7, 11)] == [7, 8, 9, 10, 11]
    assert len(asymptotics.purity_sweep(2, 1, 7, 21, step=3)) == 5
    for d_max, step in ((12, 1), (22, 3)):
        with pytest.raises(InvalidRange, match="^purity sweep of 6 rows exceeds the ceiling of 5 "):
            asymptotics.purity_sweep(2, 1, 7, d_max, step)


def test_calibration_fixture_reproduces():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        frozen = json.load(fh)
    live = asymptotics.calibrate_purity(
        frozen["g"], frozen["k"], frozen["d_max"], Fraction(frozen["threshold"])
    )
    assert live == frozen


def test_calibrate_purity_reads_threshold_as_a_rational():
    want = asymptotics.calibrate_purity(2, 1, 500, F(99, 100))
    assert want["purity_d_star"] == 401
    assert asymptotics.calibrate_purity(2, 1, 500, "99/100") == want
    for value in (0.99, True):
        with pytest.raises(ValueError, match="^threshold must be"):
            asymptotics.calibrate_purity(2, 1, 500, value)
    # read before anything else: a bad threshold is named even when d_max
    # lies below the range
    with pytest.raises(ValueError, match="^threshold must be"):
        asymptotics.calibrate_purity(2, 1, 3, 0.99)


def _calibrate_by_last_failure(g, k, d_max, threshold):
    """(d*, max r*gap) by the scan that assumes nothing of the bound's
    monotonicity: d* is one past the last d below the threshold."""
    d_min = 2 * g + 2 * k + 1
    last_below = None
    max_r_gap = F(0)
    for row in asymptotics.purity_sweep(g, k, d_min, d_max):
        if row.lower_bound < threshold:
            last_below = row.d
        max_r_gap = max(max_r_gap, row.r_gap)
    d_star = d_min if last_below is None else last_below + 1
    if d_star > d_max:
        raise InvalidRange(f"bound never holds through d_max={d_max}; last failure at {last_below}")
    return d_star, max_r_gap


def test_calibrate_purity_matches_the_last_failure_scan():
    at_start = set()
    for g in range(1, 5):
        for k in range(4):
            d_min = 2 * g + 2 * k + 1
            for threshold in (F(0), F(1, 2), F(9, 10), F(99, 100), F(1)):
                try:
                    d_star, max_r_gap = _calibrate_by_last_failure(g, k, d_min + 60, threshold)
                except InvalidRange as exc:
                    with pytest.raises(InvalidRange, match=f"^{re.escape(str(exc))}$"):
                        asymptotics.calibrate_purity(g, k, d_min + 60, threshold)
                    continue
                got = asymptotics.calibrate_purity(g, k, d_min + 60, threshold)
                assert got["purity_d_star"] == d_star
                assert got["max_r_gap"] == f"{max_r_gap.numerator}/{max_r_gap.denominator}"
                at_start.add(d_star == d_min)
    # the grid reaches both a d* at the range start and one past it
    assert at_start == {True, False}


def test_purity_csv_format(tmp_path):
    rows = asymptotics.purity_sweep(2, 1, 7, 8)
    out = tmp_path / "purity.csv"
    asymptotics.write_purity_csv(2, 1, rows, str(out))
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "g,k,d,r,quantity,value_num,value_den"
    assert lines[1] == "2,1,7,5,lower_bound,5,13"
    assert lines[2] == "2,1,7,5,gap,8,13"
    assert lines[3] == "2,1,7,5,r_gap,40,13"
    assert len(lines) == 1 + 3 * len(rows)


def test_distribution_csv_format(tmp_path):
    rows = asymptotics.distribution_sweep(1, 1, [0.0, 1.0], [101, 201])
    out = tmp_path / "dist.csv"
    asymptotics.write_distribution_csv(1, 1, rows, str(out))
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["g", "k", "d", "r", "a", "p", "value", "limit"]
    assert len(got) == 5
    # d-major order
    assert [row[2] for row in got[1:]] == ["101", "101", "201", "201"]
    # float columns round-trip through repr
    assert float(got[1][6]) == rows[0].value


def _csv_oracle(header, lines) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(lines)
    return buf.getvalue().encode("utf-8")


def test_csv_writers_match_the_csv_module(tmp_path):
    # g, k <= 6; r from the first d with a column up to 10^6, on both sides
    # of EXACT_CROSSOVER; a negative, zero (of either sign), small enough
    # for repr to write 1e-05, and large
    rng = random.Random(35)
    crossover = asymptotics.EXACT_CROSSOVER
    out = tmp_path / "sweep.csv"
    for _ in range(12):
        g, k = rng.randint(1, 6), rng.randint(0, 6)
        d_min = 2 * g + 2 * k + 1
        start = rng.choice((d_min, g + crossover - 1, g + rng.randint(d_min, 10**6)))
        rows = asymptotics.purity_sweep(g, k, start, start + rng.randint(0, 6), rng.randint(1, 3))
        asymptotics.write_purity_csv(g, k, rows, str(out))
        assert out.read_bytes() == _csv_oracle(
            ["g", "k", "d", "r", "quantity", "value_num", "value_den"],
            (
                [g, k, row.d, row.r, name, v.numerator, v.denominator]
                for row in rows
                for name, v in (
                    ("lower_bound", row.lower_bound), ("gap", row.gap), ("r_gap", row.r_gap)
                )
            ),
        )
        negative, zero, large = (-2.5, -1.0, -3e-07), (0.0, -0.0), (0.5, 7.25, 1e3)
        a_list = [rng.choice(negative), rng.choice(zero), 1e-05, rng.choice(large)]
        rng.shuffle(a_list)
        rs = (g + 2 * k + 2, rng.randint(g + 2 * k + 2, crossover), crossover, crossover + 1,
              rng.randint(crossover, 10**6), 10**6)
        rows = asymptotics.distribution_sweep(g, k, a_list, [g + r for r in rs])
        asymptotics.write_distribution_csv(g, k, rows, str(out))
        assert out.read_bytes() == _csv_oracle(
            ["g", "k", "d", "r", "a", "p", "value", "limit"],
            ([g, k, row.d, row.r, row.a_target, row.p, row.value, row.limit] for row in rows),
        )


def test_csv_writer_refusal_leaves_the_file_as_it_was(tmp_path):
    # a numerator past the int-to-str digit limit cannot be written; the
    # refusal comes before the file is opened
    out = tmp_path / "purity.csv"
    out.write_text("kept\n", encoding="utf-8")
    big = F(10 ** sys.get_int_max_str_digits(), 3)
    rows = asymptotics.purity_sweep(2, 1, 7, 8) + [asymptotics.PuritySweepRow(9, 7, big, 1 - big)]
    with pytest.raises(ValueError, match="limit"):
        asymptotics.write_purity_csv(2, 1, rows, str(out))
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_distribution_sweep_reads_a_one_shot_iterable_of_a_once():
    d_list = [101, 201]
    want = asymptotics.distribution_sweep(1, 1, [0.0, 1.0], d_list)
    assert [(row.d, row.a_target) for row in want] == [
        (101, 0.0), (101, 1.0), (201, 0.0), (201, 1.0)
    ]
    assert asymptotics.distribution_sweep(1, 1, (a for a in [0.0, 1.0]), iter(d_list)) == want


def test_distribution_refusals_past_the_float_range_keep_their_order():
    # r = 10^400 - 1 has no float: a non-finite a is still refused first, an
    # empty a list still gives no row, and a finite a is refused, not an
    # OverflowError
    d = [10**400]
    with pytest.raises(OutOfRange, match="a must be finite"):
        asymptotics.distribution_sweep(1, 1, [math.inf], d)
    assert asymptotics.distribution_sweep(1, 1, [], d) == []
    with pytest.raises(OutOfRange, match="r of 1329 bits is past the float range"):
        asymptotics.distribution_sweep(1, 1, [0.0], d)
    with pytest.raises(OutOfRange, match="past the float range"):
        asymptotics.realized_column(secant.SecantParams(1, 1, d[0]), 0.0)


def test_log_path_refuses_r_above_its_ceiling():
    # r = 10^6 is the last r with a stated budget and still evaluates; one
    # more is refused on every log-path quantity, while "exact" takes it
    ceiling = asymptotics._LOG_R_MAX
    assert ceiling == 10**6
    message = f"^r={ceiling + 1} is above the log path's ceiling of r = 10\\^6, "
    params = secant.SecantParams(1, 1, ceiling + 2)
    assert asymptotics.stirling_ratio(ceiling, ceiling // 2) > 0
    assert asymptotics.normal_dist_point(secant.SecantParams(1, 1, ceiling + 1), 0.0).value > 0
    for quantity in (
        lambda: asymptotics.normal_dist_point(params, 0.0),
        lambda: asymptotics.distribution_sweep(1, 1, [0.0], [params.d]),
        lambda: asymptotics.dominant_binomial_ratio(params, 0.0),
        lambda: asymptotics.stirling_ratio(ceiling + 1, 10, method="log"),
    ):
        with pytest.raises(OutOfRange, match=message):
            quantity()
    assert asymptotics.stirling_ratio(ceiling + 1, 10, method="exact") == 0.0


def test_distribution_rows_consistent_with_point():
    # r on both sides of EXACT_CROSSOVER, up to 10^5; the points are taken
    # a-major and the rows d-major, and collapse_identity runs between the
    # two sweeps
    a_list = [-1.0, 0.0, 0.5, 1.0, 2.0]
    crossover = asymptotics.EXACT_CROSSOVER
    for g, k in ((1, 1), (3, 2)):
        d_list = [g + r for r in (12, crossover - 1, crossover, crossover + 1, 2000, 10**5)]
        points = {
            (d, a): asymptotics.normal_dist_point(secant.SecantParams(g, k, d), a)
            for a in a_list
            for d in d_list
        }
        want = [points[d, a] for d in d_list for a in a_list]
        assert asymptotics.distribution_sweep(g, k, a_list, d_list) == want
        asymptotics.collapse_identity(secant.SecantParams(g, k, d_list[0]), 0.5)
        assert asymptotics.distribution_sweep(g, k, a_list, d_list) == want
