"""Greedy cone decomposition.

Claims pinned here:
    - a pure diagram decomposes into itself with coefficient 1
    - the coefficient sum of any exact decomposition equals the multiplicity
    - seeded random convex combinations of pure diagrams reconstruct exactly
    - diagrams outside the cone raise NotInCone carrying the partial state
    - verify rejects tampered decompositions and says why
    - decomposition JSON with a degree that is not an integer is rejected
"""

import random
from fractions import Fraction

import pytest

from betticone import decomposition, diagrams
from betticone.errors import EmptyDiagram, NegativeEntry, NotInCone

F = Fraction


def _random_degree_sequence(rng, n):
    seq = [rng.randint(0, 2)]
    for _ in range(n):
        seq.append(seq[-1] + rng.randint(1, 3))
    return diagrams.DegreeSequence(seq)


def test_pure_diagram_is_a_fixed_point():
    e = diagrams.DegreeSequence((0, 3, 4, 6, 7, 9))
    dec = decomposition.decompose(diagrams.pure_diagram(e))
    assert len(dec.summands) == 1
    assert dec.summands[0].coefficient == 1
    assert dec.summands[0].degrees == e
    assert not dec.residual
    assert decomposition.verify(diagrams.pure_diagram(e), dec)


def test_two_generator_example():
    b = diagrams.BettiDiagram({(0, 0): F(1), (1, 0): F(1)})
    dec = decomposition.decompose(b)
    assert [(s.coefficient, tuple(s.degrees)) for s in dec.summands] == [(F(1), (0, 1))]


def test_scaling_scales_coefficients_only():
    b = diagrams.pure_diagram((0, 2, 5))
    dec = decomposition.decompose(diagrams.scale(b, F(3, 7)))
    assert len(dec.summands) == 1
    assert dec.summands[0].coefficient == F(3, 7)
    assert dec.summands[0].degrees == (0, 2, 5)


def test_coefficient_sum_equals_multiplicity():
    rng = random.Random(23)
    for _ in range(20):
        parts = []
        for _ in range(rng.randint(2, 4)):
            parts.append(
                diagrams.scale(
                    diagrams.pure_diagram(_random_degree_sequence(rng, 3)),
                    F(rng.randint(1, 9), rng.randint(1, 9)),
                )
            )
        combo = parts[0]
        for part in parts[1:]:
            combo = diagrams.add(combo, part)
        dec = decomposition.decompose(combo)
        assert decomposition.verify(combo, dec)
        assert dec.coefficient_sum() == diagrams.multiplicity(combo)


def test_random_convex_combinations_reconstruct():
    rng = random.Random(91)
    for _ in range(30):
        n = rng.randint(2, 5)
        seqs = {_random_degree_sequence(rng, n) for _ in range(rng.randint(2, 4))}
        weights = [F(rng.randint(1, 20)) for _ in seqs]
        total = sum(weights)
        combo = diagrams.BettiDiagram()
        for e, w in zip(seqs, weights):
            combo = diagrams.add(combo, diagrams.scale(diagrams.pure_diagram(e), w / total))
        dec = decomposition.decompose(combo)
        assert decomposition.verify(combo, dec)
        assert dec.coefficient_sum() == 1
        assert dec.reconstruct() == combo


def test_tight_columns_hit_zero():
    b = diagrams.pure_diagram((0, 1, 2))
    dec = decomposition.decompose(b)
    assert dec.summands[0].tight_columns == (0, 1, 2)


def test_empty_diagram_rejected():
    with pytest.raises(EmptyDiagram):
        decomposition.decompose(diagrams.BettiDiagram())


def test_negative_input_rejected():
    b = diagrams.BettiDiagram({(0, 0): F(1), (1, 0): F(-1)})
    with pytest.raises(NegativeEntry):
        decomposition.decompose(b)


def test_not_in_cone_column_gap():
    b = diagrams.BettiDiagram({(0, 0): F(1), (2, 0): F(1)})
    with pytest.raises(NotInCone) as exc:
        decomposition.decompose(b)
    assert exc.value.residual == b
    assert exc.value.partial is not None
    assert exc.value.partial.summands == ()


def test_not_in_cone_after_partial_progress():
    # one valid peel, then the leftover strand is flat
    good = diagrams.pure_diagram((0, 1, 2))
    bad = diagrams.add(good, diagrams.BettiDiagram({(1, 1): F(1), (2, 0): F(1)}))
    with pytest.raises(NotInCone) as exc:
        decomposition.decompose(bad)
    assert exc.value.partial.summands, "should have peeled at least one summand"
    rebuilt = exc.value.partial.reconstruct()
    assert rebuilt == bad


def test_verify_rejects_tampering():
    b = diagrams.pure_diagram((0, 2, 3))
    dec = decomposition.decompose(b)

    wrong_value = decomposition.Decomposition(
        summands=(
            decomposition.PureSummand(
                coefficient=dec.summands[0].coefficient + F(1, 100),
                degrees=dec.summands[0].degrees,
            ),
        ),
    )
    res = decomposition.verify(b, wrong_value)
    assert not res
    assert "reconstruction" in res.reason

    negative = decomposition.Decomposition(
        summands=(
            decomposition.PureSummand(coefficient=F(-1), degrees=dec.summands[0].degrees),
        ),
    )
    res = decomposition.verify(b, negative)
    assert not res
    assert "<= 0" in res.reason

    leftover = decomposition.Decomposition(summands=(), residual=b)
    res = decomposition.verify(b, leftover)
    assert not res
    assert "residual" in res.reason


def test_decomposition_json_round_trip():
    b = diagrams.add(
        diagrams.scale(diagrams.pure_diagram((0, 1, 2)), F(1, 3)),
        diagrams.scale(diagrams.pure_diagram((0, 1, 3)), F(2, 3)),
    )
    dec = decomposition.decompose(b)
    obj = dec.to_json_obj()
    back = decomposition.Decomposition.from_json_obj(obj)
    assert [tuple(s.degrees) for s in back.summands] == [
        tuple(s.degrees) for s in dec.summands
    ]
    assert [s.coefficient for s in back.summands] == [s.coefficient for s in dec.summands]
    assert back.reconstruct() == b


def test_decomposition_json_rejects_non_integer_degrees():
    # 1.7 must not be read as degree 1
    for e in ([0, 1.7, 3], [0, "1", 3], [0, True, 3], "013", 5):
        with pytest.raises(ValueError):
            decomposition.Decomposition.from_json_obj({"summands": [{"c": "1", "e": e}]})
