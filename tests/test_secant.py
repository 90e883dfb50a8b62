"""The (g, k, d) family of degree sequences and its closed forms.

Claims pinned here:
    - degree_sequence drops exactly the positions r+1-(i_j+j), equals the
      set filter that defines it on every tuple at g <= 6, k <= 4, and always
      yields length r-2k, so the whole family shares pd = r-2k-1
    - the all-zero tuple gives (0, k+2, ..., r-k) and the dominant tuple
      (g,...,g) gives (0, k+2, ..., r-k-g, r-g+2, ..., r+1)
    - every family diagram has multiplicity 1, and shape_mask is exactly
      the union of the family's supports
    - nonvanishing_range is the least and greatest column holding weight
      2k+2 in the family, also at k >= 2
    - regularity is 2k+2 exactly when i_0 >= 1, else smaller
    - kappa_dominant and hn_leading_coefficient agree with the generic
      pure-diagram computation (the closed forms are never self-certified)
    - Factors.ratio is the product its docstring defines, for every mix of
      binomial signs and powers of two; kappa_dominant_factors gives the
      lists its docstring spells and names its range in every refusal
    - Factors.ratio's binomials, stepped from the last one it took, equal
      math.comb's value or error whatever (n, p) came before, and
      kappa_dominant equals the table in any column order, memo warm or cold
    - secant_degree frozen values and the k = 0 collapse to d
    - for g = 1, degree times the dominant diagram is integral and symmetric
    - every entry point taking an outside integer refuses 1.0, True and "1"
      with its own error type, and the secant layer's with the message the
      per-value require_int loop gives
    - every entry point taking an outside rational value, the two JSON
      readers included, reads it through one check: a Fraction, an int or
      a str, never a float, a bool, None, a Decimal or an object whose str
      spells a rational, and a str's exponent past the digit limit is
      refused before it is built
    - the reader gives the value, or the message, that Fraction(str)
      gives on the canonical "n/d" and every spelling around it
"""

import importlib.util
import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from betticone import asymptotics, decomposition, diagrams, secant
from betticone.errors import (
    InvalidParams,
    InvalidRange,
    InvalidTuple,
    MalformedDegreeSequence,
    OutOfRange,
    TupleNotMaximalRegularity,
    require_rational,
)

F = Fraction


def test_params_validation():
    with pytest.raises(InvalidParams):
        secant.SecantParams(0, 1, 50)
    with pytest.raises(InvalidParams):
        secant.SecantParams(1, -1, 50)
    with pytest.raises(InvalidParams):
        secant.SecantParams(2, 1, 6)  # needs d >= 7
    p = secant.SecantParams(2, 1, 7)
    assert p.r == 5


def test_jump_tuples_counts_and_order():
    assert secant.jump_tuples(1, 0) == [(0,), (1,)]
    assert secant.jump_tuples(1, 1) == [(0, 0), (0, 1), (1, 1)]
    assert len(secant.jump_tuples(3, 1)) == 10
    for g in range(1, 5):
        for k in range(0, 4):
            assert len(secant.jump_tuples(g, k)) == math.comb(g + k + 1, k + 1)


@pytest.mark.parametrize("g, k", [(0, 1), (1, -1)])
def test_jump_tuples_outside_the_hypothesis(g, k):
    with pytest.raises(InvalidParams) as exc:
        secant.jump_tuples(g, k)
    assert str(exc.value) == f"need g >= 1 and k >= 0, got g={g}, k={k}"


def test_tuple_validation():
    params = secant.SecantParams(3, 1, 11)
    with pytest.raises(InvalidTuple):
        secant.degree_sequence(params, (1,))  # wrong length
    with pytest.raises(InvalidTuple):
        secant.degree_sequence(params, (3, 1))  # decreasing
    with pytest.raises(InvalidTuple):
        secant.degree_sequence(params, (0, 4))  # above g
    with pytest.raises(InvalidTuple):
        secant.degree_sequence(params, (-1, 0))


def test_degree_sequence_frozen_examples():
    params = secant.SecantParams(3, 1, 11)  # r = 8
    assert secant.degree_sequence(params, (1, 3)) == (0, 3, 4, 6, 7, 9)
    assert secant.degree_sequence(params, (0, 0)) == (0, 3, 4, 5, 6, 7)
    assert secant.degree_sequence(params, (3, 3)) == (0, 3, 4, 7, 8, 9)

    params = secant.SecantParams(4, 2, 15)  # r = 11
    assert secant.degree_sequence(params, (1, 3, 3)) == (0, 4, 5, 6, 9, 10, 12)


def test_dominant_sequence_general_form():
    for g in range(1, 4):
        for k in range(0, 3):
            d = 2 * g + 2 * k + 5
            params = secant.SecantParams(g, k, d)
            r = params.r
            want = (
                [0]
                + list(range(k + 2, r - k - g + 1))
                + list(range(r - g + 2, r + 2))
            )
            got = secant.degree_sequence(params, secant.dominant_tuple(params))
            assert list(got) == want, (g, k, d)


def _degree_sequence_by_filter(params, i):
    # the definition itself, as a filter: (0) and every position of
    # k+2 .. r+1 that no entry of the tuple drops
    r = params.r
    dropped = {r + 1 - (ij + j) for j, ij in enumerate(i)}
    return (0, *(m for m in range(params.k + 2, r + 2) if m not in dropped))


def test_degree_sequence_equals_set_filter():
    # every jump tuple at g <= 6 and k <= 4, from the lowest allowed d
    # (where the dominant tuple drops k+2 itself) 13 past it, and at d = 120
    # and 300: the dominant tuple drops k+1 adjacent positions, the all-zero
    # tuple drops r+1 and the k positions below it
    for g in range(1, 7):
        for k in range(5):
            low = 2 * g + 2 * k + 1
            for d in (*range(low, low + 14), 120, 300):
                params = secant.SecantParams(g, k, d)
                for i in secant.jump_tuples(g, k):
                    got = secant.degree_sequence(params, i)
                    assert type(got) is diagrams.DegreeSequence
                    assert got == _degree_sequence_by_filter(params, i), (g, k, d, i)


def test_family_shares_projective_dimension():
    for (g, k, d) in [(1, 0, 5), (2, 1, 9), (3, 1, 11), (4, 2, 15), (2, 3, 17)]:
        params = secant.SecantParams(g, k, d)
        for i in secant.jump_tuples(g, k):
            e = secant.degree_sequence(params, i)
            assert len(e) == params.r - 2 * params.k, (g, k, d, i)


def test_family_fits_shape_mask():
    # the mask is exactly the union of the family's supports: containment
    # alone would let a block bound of the mask grow or shift unnoticed
    for g in range(1, 6):
        for k in range(0, 4):
            lo = 2 * g + 2 * k + 1
            for d in (lo, lo + 1, lo + 2, lo + 5, lo + 13, lo + 34):
                params = secant.SecantParams(g, k, d)
                union = set()
                for i in secant.jump_tuples(g, k):
                    union |= secant.secant_pure_diagram(params, i).support()
                assert secant.shape_mask(params) == union, (g, k, d)


def test_family_multiplicity_one_small_sweep():
    for g in range(1, 4):
        for k in range(0, 3):
            for d in range(2 * g + 2 * k + 1, 2 * g + 2 * k + 6):
                params = secant.SecantParams(g, k, d)
                for i in secant.jump_tuples(g, k):
                    assert diagrams.multiplicity(secant.secant_pure_diagram(params, i)) == 1


def test_regularity_tracks_first_jump():
    params = secant.SecantParams(3, 1, 12)
    for i in secant.jump_tuples(3, 1):
        b = secant.secant_pure_diagram(params, i)
        if i[0] >= 1:
            assert diagrams.regularity(b) == 2 * params.k + 2, i
        else:
            assert diagrams.regularity(b) < 2 * params.k + 2, i


def test_secant_degree_frozen_values():
    assert secant.secant_degree(secant.SecantParams(3, 1, 11)) == 42
    assert secant.secant_degree(secant.SecantParams(1, 1, 7)) == 14
    assert secant.secant_degree(secant.SecantParams(4, 2, 15)) == 242
    assert secant.secant_degree(secant.SecantParams(2, 1, 9)) == 26


def test_secant_degree_curve_case_is_d():
    for g in range(1, 6):
        for d in range(2 * g + 1, 2 * g + 30):
            assert secant.secant_degree(secant.SecantParams(g, 0, d)) == d


def test_bottom_right_betti_matches_table():
    for (g, k, d) in [(3, 1, 11), (4, 2, 15), (2, 1, 9), (1, 1, 7)]:
        params = secant.SecantParams(g, k, d)
        b = secant.secant_pure_diagram(params, secant.dominant_tuple(params))
        p_last = params.r - 2 * params.k - 1
        got = b.get(p_last, 2 * params.k + 2)
        # the closed form is an integer times the multiplicity normalization
        assert secant.bottom_right_betti(params) == math.comb(g + params.k, params.k + 1)
        assert got != 0


def test_kappa_dominant_equals_table_entry():
    for (g, k, d) in [(3, 1, 11), (2, 1, 12), (1, 1, 9), (4, 2, 17), (2, 2, 15)]:
        params = secant.SecantParams(g, k, d)
        table = secant.secant_pure_diagram(params, secant.dominant_tuple(params))
        hi = params.r - params.g - 2 * params.k - 1
        for p in range(1, hi + 1):
            assert secant.kappa_dominant(params, p) == table.get(p, params.k + 1), (
                g, k, d, p,
            )


def test_kappa_dominant_frozen_values():
    params = secant.SecantParams(3, 1, 11)
    assert secant.kappa_dominant(params, 1) == F(1, 3)
    assert secant.kappa_dominant(params, 2) == F(1, 2)


def test_kappa_dominant_range_check():
    params = secant.SecantParams(3, 1, 11)
    with pytest.raises(OutOfRange):
        secant.kappa_dominant(params, 0)
    with pytest.raises(OutOfRange):
        secant.kappa_dominant(params, 3)


def _factors_oracle(f):
    """prod(num) / prod(den) * prod binomial(n, p)**sign * 2**two, term by
    term as Factors' docstring defines it."""
    value = F(math.prod(f.num), math.prod(f.den))
    for n, p, sign in f.binoms:
        value *= F(math.comb(n, p)) ** sign
    return value * F(2) ** f.two


def test_factors_ratio_matches_its_definition():
    binoms = {
        "none": (),
        "positive": ((10, 3, 1), (7, 7, 1)),
        "negative": ((12, 5, -1), (9, 0, -1)),
        "mixed": ((30, 11, 1), (8, 3, -1), (15, 6, 1), (6, 2, -1)),
    }
    for name, signed in binoms.items():
        for two in (-7, 0, 5):
            for num, den in (((), ()), ((3, 4, 5), (2, 9)), ((-6,), (7, 11))):
                f = secant.Factors(num, den, signed, two)
                n, d = f.ratio()
                assert type(n) is int and type(d) is int and d > 0
                assert F(n, d) == _factors_oracle(f), (name, two, num, den)


def _kappa_factors_spelled_by_field(params, p):
    """kappa_dominant_factors' lists, written from the params' fields."""
    g, k, r = params.g, params.k, params.r
    return secant.Factors(
        num=(p, *range(r - p - g - 2 * k, r - p - g - k + 1)),
        den=(p + k + 1, r - 2 * k, *range(r - p - 2 * k + 1, r - p - k + 1)),
        binoms=((r - 2 * k, p, 1),),
    )


def test_kappa_dominant_factors_lists_and_range_messages():
    for g in range(1, 5):
        for k in range(4):
            for d in (2 * g + 2 * k + 2, 2 * g + 2 * k + 7, 120):
                params = secant.SecantParams(g, k, d)
                hi = params.r - g - 2 * k - 1
                for p in {1, (1 + hi) // 2, hi}:
                    f = secant.kappa_dominant_factors(params, p)
                    assert type(f) is secant.Factors
                    assert f == _kappa_factors_spelled_by_field(params, p), (g, k, d, p)
                for p, message in (
                    (0, f"p=0 outside [1, {hi}]"),
                    (hi + 1, f"p={hi + 1} outside [1, {hi}]"),
                    (True, "p must be an integer, got True"),
                ):
                    with pytest.raises(OutOfRange) as exc:
                        secant.kappa_dominant_factors(params, p)
                    assert str(exc.value) == message


def _cold(f, *args):
    """f(*args) with Factors.ratio's binomial memo emptied first."""
    secant._last_binomial = (0, 0, 1)
    return f(*args)


def test_kappa_dominant_stepped_in_any_column_order_equals_table():
    # ratio steps each binomial from the last one when the same n comes at
    # p - 1, p or p + 1: every column order gives the table's entry, and
    # the value a warm memo gives equals a cold one
    rng = random.Random(33)
    for g in range(1, 4):
        for k in range(3):
            for d in range(2 * g + 2 * k + 2, 61):
                params = secant.SecantParams(g, k, d)
                table = secant.secant_pure_diagram(params, secant.dominant_tuple(params))
                columns = list(range(1, params.r - g - 2 * k))
                shuffled = rng.sample(columns, len(columns))
                for order in (columns, columns[::-1], shuffled):
                    for p in order:
                        warm = secant.kappa_dominant(params, p)
                        assert warm == table.get(p, k + 1), (g, k, d, p)
                for p in shuffled[:3]:
                    assert _cold(secant.kappa_dominant, params, p) == table.get(p, k + 1)


def test_factors_ratio_two_binomials_of_different_n():
    # dominant_binomial_ratio's list holds C(r - 2k, p) and 1 / C(r, p):
    # each evicts the other, and every column, in either direction, is the
    # product the docstring defines
    for g, k, d in ((1, 0, 40), (2, 1, 60), (3, 2, 300)):
        params = secant.SecantParams(g, k, d)
        r = params.r
        columns = list(range(1, r - g - 2 * k))
        for order in (columns, columns[::-1]):
            for p in order:
                f = secant.kappa_dominant_factors(params, p).times(
                    secant.Factors(binoms=((r, p, -1),), two=2 * k + 1)
                )
                assert [n for n, _, _ in f.binoms] == [r - 2 * k, r]
                n, d_ = f.ratio()
                assert F(n, d_) == _factors_oracle(f) == F(*_cold(f.ratio)), (g, k, d, p)


def _comb_or_error(n, p):
    try:
        return math.comb(n, p)
    except ValueError as exc:
        return ValueError, str(exc)


def test_factors_ratio_binomial_at_the_edges_and_past_them():
    # p = 0 and p = n step like any other column; p > n is 0 and p < 0 the
    # ValueError math.comb gives, from any memo; the column after either
    # is stepped or computed as before
    def ratio_or_error(n, p):
        try:
            return secant.Factors(binoms=((n, p, 1),)).ratio()[0]
        except ValueError as exc:
            return ValueError, str(exc)

    for n in (0, 1, 2, 7, 40):
        walks = (
            [0, 1, 2, n - 1, n, n + 1, n, n - 1, n + 2, n],
            [n, n - 1, 0, -1, 0, 1, -1, 1, 0, 0],
            list(range(n + 2)) + list(range(n + 1, -2, -1)),
        )
        for walk in walks:
            secant._last_binomial = (0, 0, 1)
            for p in walk:
                assert ratio_or_error(n, p) == _comb_or_error(n, p), (n, walk, p)
    assert _cold(secant.Factors(binoms=((5, 6, 1),)).ratio) == (0, 1)
    with pytest.raises(ValueError) as exc:
        _cold(secant.Factors(binoms=((5, -1, 1),)).ratio)
    assert str(exc.value) == _comb_or_error(5, -1)[1]


def test_factors_ratio_binomial_random_walk_matches_math_comb():
    # the memo is one entry: any sequence of (n, p), steps of -1, 0 and +1
    # mixed with jumps and other n, gives math.comb's value or its error
    rng = random.Random(3301)
    secant._last_binomial = (0, 0, 1)
    n, p = 30, 15
    for _ in range(4000):
        move = rng.random()
        if move < 0.75:
            p += rng.choice((-1, 0, 1))
        elif move < 0.9:
            p = rng.randint(-2, n + 2)
        else:
            n = rng.randint(0, 60)
        sign = rng.choice((1, -1))
        f = secant.Factors(binoms=((n, p, sign),))
        want = _comb_or_error(n, p)
        if isinstance(want, tuple):
            with pytest.raises(ValueError) as exc:
                f.ratio()
            assert str(exc.value) == want[1]
        elif want == 0 and sign < 0:
            assert f.ratio() == (1, 0)
        else:
            assert f.ratio() == ((want, 1) if sign > 0 else (1, want)), (n, p, sign)


def test_factors_ratio_binomial_memo_traffic(monkeypatch):
    # the payoff the memo is kept for: a column sweep of one n, up or down
    # and through p = 0 and p = n, asks math.comb once; a jump of two
    # columns or another n asks it again
    calls = []

    def comb(n, p):
        calls.append((n, p))
        return math.comb(n, p)

    monkeypatch.setattr(secant, "math", SimpleNamespace(comb=comb, prod=math.prod))
    secant._last_binomial = (0, 0, 1)
    for p in [*range(41), *range(40, -1, -1)]:
        secant.Factors(binoms=((40, p, 1),)).ratio()
    assert calls == [(40, 0)]
    for n, p in ((40, 2), (40, 3), (41, 3), (40, 3), (40, 3)):
        secant.Factors(binoms=((n, p, -1),)).ratio()
    assert calls == [(40, 0), (40, 2), (41, 3), (40, 3)]
    assert secant._last_binomial == (40, 3, math.comb(40, 3))


def test_factors_ratio_binomial_memo_starts_at_a_true_binomial():
    # a fresh copy of the module, whose memo no other test has written:
    # its first entry must be a binomial the step may start from
    spec = importlib.util.spec_from_file_location("betticone._fresh_secant", secant.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    n, p, c = fresh._last_binomial
    assert 0 <= p <= n and c == math.comb(n, p)
    assert fresh.Factors(binoms=((n, p, 1),)).ratio() == (c, 1)


def test_factors_ratio_refuses_what_math_comb_refuses():
    # a float, a str or a negative n reaches math.comb, which raises as it
    # did before the memo; a bool is read as the int it is
    secant.Factors(binoms=((10, 4, 1),)).ratio()
    for n, p, error in ((10.0, 5, TypeError), (10, 5.0, TypeError), ("10", 5, TypeError),
                        (-1, 0, ValueError)):
        with pytest.raises(error) as exc:
            secant.Factors(binoms=((n, p, 1),)).ratio()
        with pytest.raises(error) as want:
            math.comb(n, p)
        assert str(exc.value) == str(want.value)
    assert secant.Factors(binoms=((10, True, 1),)).ratio() == (10, 1)
    assert secant.Factors(binoms=((True, 1, 1),)).ratio() == (1, 1)


def test_hn_leading_matches_hilbert_numerator():
    for (g, k, d) in [(3, 1, 11), (2, 1, 12), (1, 2, 11), (4, 2, 15), (2, 0, 7), (3, 0, 9)]:
        params = secant.SecantParams(g, k, d)
        for i in secant.jump_tuples(g, k):
            if i[0] < 1:
                continue
            hn = diagrams.hilbert_numerator(secant.secant_pure_diagram(params, i))
            assert secant.hn_leading_coefficient(params, i) == hn.coefficient(
                2 * k + 2
            ), (g, k, d, i)


def test_hn_leading_hand_checks():
    params = secant.SecantParams(3, 1, 11)
    assert secant.hn_leading_coefficient(params, (1, 3)) == F(2, 27)
    assert secant.hn_leading_coefficient(secant.SecantParams(4, 2, 15), (1, 3, 3)) == F(5, 168)
    # k = 0: the product is empty, leaving 1/(r+1) scaled by the jump
    params = secant.SecantParams(2, 0, 7)
    assert secant.hn_leading_coefficient(params, (1,)) == F(1, 6)
    assert secant.hn_leading_coefficient(params, (2,)) == F(2, 6)


def test_hn_leading_requires_first_jump():
    params = secant.SecantParams(3, 1, 11)
    with pytest.raises(TupleNotMaximalRegularity):
        secant.hn_leading_coefficient(params, (0, 3))


def test_degree_against_numerator_total():
    # multiplicity of the family diagram is 1 by normalization, so the
    # degree shows up as the value of the *unnormalized* count: check the
    # closed form against a brute binomial sum instead
    for g in range(1, 5):
        for k in range(0, 4):
            for d in (2 * g + 2 * k + 1, 2 * g + 2 * k + 7):
                params = secant.SecantParams(g, k, d)
                brute = sum(
                    math.comb(d - g - k - i, k + 1 - i) * math.comb(g, i)
                    for i in range(0, min(k + 1, g) + 1)
                )
                assert secant.secant_degree(params) == brute


def test_normalized_hn_leading_values():
    params = secant.SecantParams(3, 1, 11)
    assert secant.normalized_hn_leading(params) == F(6, 42)
    params = secant.SecantParams(4, 2, 15)
    assert secant.normalized_hn_leading(params) == F(20, 242)


def _weight_2k2_columns(params):
    """The least and greatest column holding weight 2k+2 in any family
    diagram of params."""
    top = 2 * params.k + 2
    cols = [
        p
        for i in secant.jump_tuples(params.g, params.k)
        for p, q in secant.secant_pure_diagram(params, i).support()
        if q == top
    ]
    return min(cols), max(cols)


def test_nonvanishing_range():
    params = secant.SecantParams(3, 1, 11)
    assert secant.nonvanishing_range(params) == (3, 5)
    lo, hi = secant.nonvanishing_range(params)
    assert hi == params.r - 2 * params.k - 1
    assert hi - lo + 1 == params.g
    # at k = 1, 2 * k and 2 // k agree; from k = 2 on they do not
    assert secant.nonvanishing_range(secant.SecantParams(2, 2, 40)) == (32, 33)
    assert secant.nonvanishing_range(secant.SecantParams(3, 3, 60)) == (48, 50)
    assert secant.nonvanishing_range(secant.SecantParams(1, 2, 30)) == (24, 24)
    for g in range(1, 5):
        for k in (2, 3):
            lo = 2 * g + 2 * k + 1
            for d in (lo, lo + 3, lo + 20):
                params = secant.SecantParams(g, k, d)
                assert secant.nonvanishing_range(params) == _weight_2k2_columns(params), (g, k, d)


def test_genus_one_dominant_diagram_is_gorenstein_symmetric():
    # For g = 1 the secant variety of an elliptic normal curve is
    # arithmetically Gorenstein (Graf v. Bothmer-Hulek 2004), so degree times
    # the dominant diagram is an integral Betti table, symmetric under
    # (p, q) -> (pd - p, reg - q).
    cases = 0
    for k in range(5):
        for d in range(2 * k + 3, 80):
            params = secant.SecantParams(1, k, d)
            table = diagrams.scale(
                secant.secant_pure_diagram(params, secant.dominant_tuple(params)),
                secant.secant_degree(params),
            )
            pd, reg = diagrams.projective_dimension(table), diagrams.regularity(table)
            for (p, q), v in table.items():
                assert v.denominator == 1, (params, p, q, v)
                assert table.get(pd - p, reg - q) == v, (params, p, q)
            cases += 1
    assert cases == 365


_PARAMS = secant.SecantParams(2, 1, 9)

# each public entry point that takes an integer from outside, fed x, and the
# error it must raise
_INT_ENTRY_POINTS = {
    "SecantParams": (lambda x: secant.SecantParams(x, 1, 9), InvalidParams),
    "jump tuple": (lambda x: secant.degree_sequence(_PARAMS, (x, 2)), InvalidTuple),
    "DegreeSequence": (lambda x: diagrams.DegreeSequence((0, x, 3)), MalformedDegreeSequence),
    "diagram key": (lambda x: diagrams.BettiDiagram({(0, x): 1}), ValueError),
    "polynomial exponent": (lambda x: diagrams.RationalPolynomial({x: 1}), ValueError),
    "kappa_dominant p": (lambda x: secant.kappa_dominant(_PARAMS, x), OutOfRange),
    "stirling_ratio p": (lambda x: asymptotics.stirling_ratio(10, x), OutOfRange),
    "jump_tuples g": (lambda x: secant.jump_tuples(x, 0), InvalidParams),
    "purity_sweep d_min": (lambda x: asymptotics.purity_sweep(1, 0, x, 10), InvalidRange),
    "purity_sweep d_max": (lambda x: asymptotics.purity_sweep(1, 0, 3, x), InvalidRange),
}


@pytest.mark.parametrize("entry", sorted(_INT_ENTRY_POINTS))
@pytest.mark.parametrize("x", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_outside_integers_refused_everywhere(entry, x):
    call, error = _INT_ENTRY_POINTS[entry]
    with pytest.raises(error, match="must be an integer"):
        call(x)


def _refusals(call, error, cases):
    return [(call, args, error, message) for args, message in cases]


# the parent's refusals of a bool, a float or a str, frozen: class and
# message, whichever field holds it and whatever follows
_TYPE_REFUSALS = [
    *_refusals(secant.SecantParams, InvalidParams, [
        ((True, 1, 9), "g must be an integer, got True"),
        ((2.0, 1, 9), "g must be an integer, got 2.0"),
        (("2", 1, 9), "g must be an integer, got '2'"),
        ((2, False, 9), "k must be an integer, got False"),
        ((2, 1.0, 9), "k must be an integer, got 1.0"),
        ((2, "1", 9), "k must be an integer, got '1'"),
        ((2, 1, True), "d must be an integer, got True"),
        ((2, 1, 9.0), "d must be an integer, got 9.0"),
        ((2, 1, "9"), "d must be an integer, got '9'"),
        ((2, 1.0, "9"), "k must be an integer, got 1.0"),
        ((True, True, True), "g must be an integer, got True"),
    ]),
    *(
        refusal
        for call in (secant.degree_sequence, secant.hn_leading_coefficient)
        for refusal in _refusals(call, InvalidTuple, [
            ((_PARAMS, (1, True)), "jump tuple entry must be an integer, got True"),
            ((_PARAMS, (False, 2)), "jump tuple entry must be an integer, got False"),
            ((_PARAMS, (1.0, 2)), "jump tuple entry must be an integer, got 1.0"),
            ((_PARAMS, (1, 2.0)), "jump tuple entry must be an integer, got 2.0"),
            ((_PARAMS, (1.0, True)), "jump tuple entry must be an integer, got 1.0"),
            ((_PARAMS, (1, True, 2)), "need 2 entries, got 3"),
        ])
    ),
    *(
        refusal
        for call in (secant.kappa_dominant, secant.kappa_dominant_factors)
        for refusal in _refusals(call, OutOfRange, [
            ((_PARAMS, 1.0), "p must be an integer, got 1.0"),
            ((_PARAMS, True), "p must be an integer, got True"),
            ((_PARAMS, "1"), "p must be an integer, got '1'"),
        ])
    ),
]


@pytest.mark.parametrize("call, args, error, message", _TYPE_REFUSALS)
def test_type_refusals_frozen(call, args, error, message):
    with pytest.raises(error) as exc:
        call(*args)
    assert type(exc.value) is error and str(exc.value) == message


# each public entry point that takes a rational value from outside, fed x,
# and what it reads x as
_RATIONAL_ENTRY_POINTS = {
    "BettiDiagram": lambda x: diagrams.BettiDiagram({(0, 0): x}).get(0, 0),
    "from_entries": lambda x: diagrams.BettiDiagram.from_entries([(0, 0, x)]).get(0, 0),
    "RationalPolynomial": lambda x: diagrams.RationalPolynomial({0: x}).coefficient(0),
    "scale": lambda x: diagrams.scale(diagrams.BettiDiagram({(0, 0): 1}), x).get(0, 0),
    "reconstruct": lambda x: decomposition.Decomposition(
        (decomposition.PureSummand(x, diagrams.DegreeSequence((0,))),)
    ).reconstruct().get(0, 0),
    "BettiDiagram.from_json_obj": lambda x: diagrams.BettiDiagram.from_json_obj(
        {"entries": [{"p": 0, "q": 0, "v": x}]}
    ).get(0, 0),
    "Decomposition.from_json_obj": lambda x: decomposition.Decomposition.from_json_obj(
        {"summands": [{"c": x, "e": [0]}]}
    ).summands[0].coefficient,
}


class _SpellsAHalf:
    """An object whose str() is "1/2": a reader that goes through str()
    would take it for 1/2."""

    def __str__(self):
        return "1/2"


@pytest.fixture
def digit_limit():
    """The interpreter's default int digit limit, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("entry", sorted(_RATIONAL_ENTRY_POINTS))
@pytest.mark.parametrize(
    "x, read",
    [(F(-5, 2), F(-5, 2)), (7, F(7)), ("-5/2", F(-5, 2)), ("0.25", F(1, 4)), ("1e3", F(1000))],
    ids=["Fraction", "int", "str", "decimal", "exponent"],
)
def test_outside_rationals_read_by_one_check(entry, x, read):
    assert _RATIONAL_ENTRY_POINTS[entry](x) == read


@pytest.mark.parametrize("entry", sorted(_RATIONAL_ENTRY_POINTS))
@pytest.mark.parametrize(
    "x, message",
    [
        ("1/0", "zero denominator"),
        ("1/2/3", "Invalid literal"),
        (float("inf"), "must be a Fraction, an int or a str"),
        (0.1, "must be a Fraction, an int or a str"),
        (True, "must be a Fraction, an int or a str"),
        (None, "must be a Fraction, an int or a str"),
        (Decimal("0.1"), "must be a Fraction, an int or a str"),
        (_SpellsAHalf(), "must be a Fraction, an int or a str"),
    ],
    ids=["zero-denominator", "malformed", "inf", "float", "bool", "none", "Decimal", "str-1/2"],
)
def test_outside_rationals_refused_everywhere(entry, x, message):
    with pytest.raises(ValueError, match=message):
        _RATIONAL_ENTRY_POINTS[entry](x)


@pytest.mark.parametrize("entry", sorted(_RATIONAL_ENTRY_POINTS))
def test_outside_rational_exponent_past_digit_limit_refused(entry, digit_limit):
    # Fraction("1e4300") would build a 14,285-bit numerator first
    with pytest.raises(ValueError, match="exponent"):
        _RATIONAL_ENTRY_POINTS[entry](f"1e{sys.get_int_max_str_digits()}")


def _fraction_str_reader(text, what):
    """Fraction(str), as a value or the text of require_rational's
    ValueError: the oracle for require_rational's str path, the one
    reader of an outside rational, on spellings below the exponent
    refusal."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return f"{what} {text} has a zero denominator"
    except ValueError as exc:
        return f"{what}: {exc}"


_DIGITS = "7" * 4300  # the default digit limit


@pytest.mark.parametrize(
    "text",
    [
        "3/4", "-6/8", "007/3", "-0/5", "0/1", "12/1", "3/0", "-3/0", "00/0",
        "+1/2", " 1/2", "1/2 ", "1/2\n", "1_0/3", "\u0663/2", "1/\u0663", "1e-3",
        "1.5/2", "--1/2", "1/-2", "/2", "1/", "1//2", "1/2/3", "-", "7",
        f"{_DIGITS}/3", f"{_DIGITS}7/3", f"-3/{_DIGITS}", f"3/{_DIGITS}7",
    ],
)
def test_canonical_fast_path_agrees_with_fraction_str(text, digit_limit):
    try:
        got = require_rational(text, "diagram value")
    except ValueError as exc:
        got = str(exc)
    assert got == _fraction_str_reader(text, "diagram value")

