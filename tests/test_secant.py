"""The (g, k, d) family of degree sequences and its closed forms.

Claims pinned here:
    - degree_sequence drops exactly the positions r+1-(i_j+j) and always
      yields length r-2k, so the whole family shares pd = r-2k-1
    - the all-zero tuple gives (0, k+2, ..., r-k) and the dominant tuple
      (g,...,g) gives (0, k+2, ..., r-k-g, r-g+2, ..., r+1)
    - every family diagram fits inside shape_mask and has multiplicity 1
    - regularity is 2k+2 exactly when i_0 >= 1, else smaller
    - kappa_dominant and hn_leading_coefficient agree with the generic
      pure-diagram computation (the closed forms are never self-certified)
    - the alt_denominator variant disagrees with the oracle, on purpose
    - secant_degree frozen values and the k = 0 collapse to d
    - for g = 1, degree times the dominant diagram is integral and symmetric
    - every entry point taking an outside integer refuses 1.0, True and "1"
      with its own error type
"""

import math
from fractions import Fraction

import pytest

from betticone import asymptotics, diagrams, secant
from betticone.errors import (
    InvalidParams,
    InvalidRange,
    InvalidTuple,
    MalformedDegreeSequence,
    OutOfRange,
    TupleNotMaximalRegularity,
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


def test_family_shares_projective_dimension():
    for (g, k, d) in [(1, 0, 5), (2, 1, 9), (3, 1, 11), (4, 2, 15), (2, 3, 17)]:
        params = secant.SecantParams(g, k, d)
        for i in secant.jump_tuples(g, k):
            e = secant.degree_sequence(params, i)
            assert len(e) == params.r - 2 * params.k, (g, k, d, i)


def test_family_fits_shape_mask():
    for (g, k, d) in [(1, 0, 6), (2, 1, 10), (3, 1, 11), (3, 2, 14), (4, 2, 15)]:
        params = secant.SecantParams(g, k, d)
        mask = secant.shape_mask(params)
        for i in secant.jump_tuples(g, k):
            b = secant.secant_pure_diagram(params, i)
            assert b.support() <= mask, (g, k, d, i)


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


def test_alt_denominator_disagrees_with_oracle():
    # the wider denominator range is a recorded wrong variant; the oracle
    # comparison must reject it everywhere it changes the value
    params = secant.SecantParams(3, 1, 11)
    hn = diagrams.hilbert_numerator(secant.secant_pure_diagram(params, (1, 3)))
    alt = secant.hn_leading_coefficient(params, (1, 3), alt_denominator=True)
    assert alt == F(4, 3024)
    assert alt != hn.coefficient(4)


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


def test_nonvanishing_range():
    params = secant.SecantParams(3, 1, 11)
    assert secant.nonvanishing_range(params) == (3, 5)
    lo, hi = secant.nonvanishing_range(params)
    assert hi == params.r - 2 * params.k - 1
    assert hi - lo + 1 == params.g


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
