"""Purity bounds and distribution-limit numerics.

Claims pinned here:
    - the exact and log-domain evaluation paths agree far below tolerance,
      and within 1e-10 relative at the r where "auto" takes the log path
    - purity_lower_bound frozen rational values, the g = 1 identity
      (bound exactly 1), and the clamp to 0 when the default target is weak
    - purity_lower_bound's closed form equals the bound from enumerating
      every jump tuple, and M = L*(g-1)/g holds on the same grid
    - the g=2, k=1 calibration constants match the checked-in fixture
    - dominant_binomial_ratio approaches 1 from below, deviation shrinking
    - normal_dist_point satisfies the collapse identity at float precision
    - its deviation from exp(-a^2) is the first-order shift of the strand's
      centre to (r-2k-1)/2, up to O(1/r); about that centre the residual
      from the Gaussian profile is O(1/r)
    - sweep CSV writers emit the documented headers and exact columns
"""

import csv
import io
import json
import math
import pathlib
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
        for a_coeff in (None, F(0), l_star / 7, l_star):
            want = _enumerated_purity_bound(params, a_coeff)
            got = asymptotics.purity_lower_bound(params, leading_coefficient=a_coeff)
            assert got == want, (params, a_coeff)


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


def test_calibration_fixture_reproduces():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        frozen = json.load(fh)
    live = asymptotics.calibrate_purity(
        frozen["g"], frozen["k"], frozen["d_max"], Fraction(frozen["threshold"])
    )
    assert live == frozen


def test_purity_csv_format():
    rows = asymptotics.purity_sweep(2, 1, 7, 8)
    buf = io.StringIO()
    asymptotics.write_purity_csv(2, 1, rows, buf)
    lines = buf.getvalue().splitlines()
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


def test_distribution_rows_consistent_with_point():
    rows = asymptotics.distribution_sweep(1, 1, [0.5], [301])
    point = asymptotics.normal_dist_point(secant.SecantParams(1, 1, 301), 0.5)
    assert rows == [point]
