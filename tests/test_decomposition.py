"""Greedy cone decomposition.

Claims pinned here:
    - a pure diagram decomposes into itself with coefficient 1
    - the coefficient sum of any exact decomposition equals the multiplicity
    - seeded random convex combinations of pure diagrams reconstruct exactly
    - diagrams outside the cone raise NotInCone carrying the partial state
    - verify rejects tampered decompositions and says why
    - a decompose -> verify round trip with at most 8 summands builds each
      summand's pure diagram once: verify's come from pure_diagram's memo;
      with more, verify asks last first and the last 8 hit the memo
    - reconstruct names the first bad summand, whichever order it asks
      for the pure diagrams in
    - decomposition JSON with a degree that is not an integer, degrees
      that are not strictly increasing, a zero denominator, a 'summands'
      that is not a list, a summand that is not an object or a float
      coefficient or residual value is rejected with ValueError
    - only an absent or null 'residual' reads as no residual; any other
      value must be diagram JSON
    - the integer peel agrees with a copy-per-step Fraction peel (the
      oracle) on results, tight columns and NotInCone diagnostics, also
      when weights over large coprime denominators make its common
      denominator grow and shrink, and over a peel of many steps, and
      never aliases its input or its diagnostics with its working state
    - reconstruct agrees with the Fraction sum it replaced (the oracle) on
      residuals, zero and negative coefficients and cells that cancel, and
      verify gives the same answers and reasons on either
    - every way of building a diagram (the constructors, the JSON reader,
      pure_diagram, add, scale, subtract, reconstruct and the NotInCone
      snapshot) gives integer numerators over a positive denominator in
      lowest terms, so == agrees with comparing entries
    - reconstruct and verify read a caller's coefficients as rationals: a
      float or a zero denominator is a ValueError, a str is read
    - the CLI's JSON writers give the bytes of json.dumps(to_json_obj(),
      indent=2), their oracle
    - a positive combination of a chain e^1 < e^2 < ... in the
      Boij-Soederberg order decomposes into exactly that chain, in order,
      with those coefficients (the order's unique chain decomposition),
      for chains of one length and chains that mix lengths (non-Cohen-
      Macaulay); the expected answer is the chain built, not a peel
"""

import json
import math
import random
from fractions import Fraction

import pytest

from betticone import decomposition, diagrams, secant
from betticone.errors import (
    EmptyDiagram,
    MalformedDegreeSequence,
    MissingColumn,
    NegativeEntry,
    NotInCone,
    NotStrictlyIncreasing,
)
from test_cli_frozen import _pure_column

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


def test_verify_after_decompose_builds_each_pure_diagram_once(monkeypatch):
    # verify asks reconstruct for the pure diagrams the peel has just built;
    # the memo behind pure_diagram serves them, so a round trip runs a
    # diagram kernel once per summand (twice without it). These six
    # combinations have 3 to 8 summands, the memo's bound among them.
    built = []
    for name in ("_pure_over_holes", "_pure_over_runs"):
        kernel = getattr(diagrams, name)

        def spy(e, *runs, kernel=kernel):
            built.append(e)
            return kernel(e, *runs)

        monkeypatch.setattr(diagrams, name, spy)
    rng = random.Random(11)
    sizes = []
    for _ in range(6):
        combo = _family_combination(rng)
        diagrams._pure_checked.cache_clear()
        built.clear()
        dec = decomposition.decompose(combo)
        assert decomposition.verify(combo, dec)
        assert sorted(built) == sorted(s.degrees for s in dec.summands)
        sizes.append(len(dec.summands))
    assert sizes == [7, 5, 8, 3, 3, 4]


def test_verify_after_a_long_decompose_reads_the_memo_last_first():
    # a chain of 10 degree sequences decomposes into those 10 summands,
    # first to last; verify then asks for them last first, so the 8 the
    # memo still holds are hits before the two misses evict any
    chain = [
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6), (0, 1, 3, 6),
        (0, 1, 3, 7), (0, 2, 3, 7), (0, 2, 4, 7), (0, 2, 4, 8), (0, 3, 4, 8),
    ]
    combo = diagrams.BettiDiagram()
    for w, e in enumerate(chain, 1):
        combo = diagrams.add(combo, diagrams.scale(diagrams.pure_diagram(e), F(w, 55)))
    diagrams._pure_checked.cache_clear()
    dec = decomposition.decompose(combo)
    assert [tuple(s.degrees) for s in dec.summands] == chain
    assert len(chain) > diagrams._PURE_MEMO_SIZE
    before = diagrams._pure_checked.cache_info()
    assert decomposition.verify(combo, dec)
    after = diagrams._pure_checked.cache_info()
    assert after.hits - before.hits == diagrams._PURE_MEMO_SIZE
    assert after.misses - before.misses == len(chain) - diagrams._PURE_MEMO_SIZE


def test_reconstruct_names_the_first_bad_summand():
    e = diagrams.DegreeSequence((0, 1))
    for summands, error, message in (
        (((0.1, e), (0.2, e)), ValueError, "got 0.1"),
        (((1, (0, 0)), (0.2, e)), MalformedDegreeSequence, r"\(0, 0\)"),
        (((1, e), ("1/0", e), (1, (1, 1))), ValueError, "zero denominator"),
    ):
        dec = decomposition.Decomposition(
            tuple(decomposition.PureSummand(c, degrees) for c, degrees in summands)
        )
        with pytest.raises(error, match=message):
            dec.reconstruct()


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


def test_decomposition_json_rejects_bad_coefficient_and_summands():
    for obj in (
        {"summands": [{"c": "1/0", "e": [0, 1]}]},
        {"summands": [{"c": "x", "e": [0, 1]}]},
        {"summands": [{"c": "1", "e": []}]},
        {"summands": [{"c": "1", "e": [1, 0]}]},
        {"summands": 5},
        {"summands": None},
    ):
        with pytest.raises(ValueError):
            decomposition.Decomposition.from_json_obj(obj)


@pytest.mark.parametrize("item", [5, None, [0, 1], {"c": "1"}])
def test_decomposition_json_rejects_a_summand_that_is_not_an_object(item):
    with pytest.raises(ValueError) as exc:
        decomposition.Decomposition.from_json_obj({"summands": [item]})
    assert str(exc.value) == f"malformed summand: {item!r}"


@pytest.mark.parametrize("v", [0.5, 1.00000000000000001, 123456789012345678901234567890.0])
def test_decomposition_json_refuses_float_values(v):
    # a JSON float is already a binary double, in "c" as in the residual's "v"
    expected = f"must be a Fraction, an int or a str, got {v!r}"
    with pytest.raises(ValueError) as exc:
        decomposition.Decomposition.from_json_obj({"summands": [{"c": v, "e": [0, 1]}]})
    assert str(exc.value).startswith(f"coefficient {expected}")
    residual = {"entries": [{"p": 0, "q": 0, "v": v}]}
    with pytest.raises(ValueError) as exc:
        decomposition.Decomposition.from_json_obj({"summands": [], "residual": residual})
    assert str(exc.value).startswith(f"diagram value {expected}")


def test_decomposition_json_reads_only_absent_or_null_as_no_residual():
    summands = [{"c": "1", "e": [0, 1]}]
    for obj in ({"summands": summands}, {"summands": summands, "residual": None}):
        assert decomposition.Decomposition.from_json_obj(obj).residual == diagrams.BettiDiagram()
    # a falsy value is not an absent one: each must be read as diagram JSON
    for residual in ({}, [], 0, False, "", 5):
        with pytest.raises(ValueError, match="diagram JSON"):
            decomposition.Decomposition.from_json_obj({"summands": summands, "residual": residual})
    cell = {"entries": [{"p": 0, "q": 1, "v": "2/3"}]}
    back = decomposition.Decomposition.from_json_obj({"summands": summands, "residual": cell})
    assert back.residual == diagrams.BettiDiagram({(0, 1): F(2, 3)})


def _peel_oracle(b):
    """The copy-per-step peel: each step builds a new residual with the
    public subtract, so the integer peel is checked against
    an independent rebuild of every intermediate diagram."""
    summands = []
    residual = b
    while residual:
        try:
            e = diagrams.top_strand(residual)
        except (MissingColumn, NotStrictlyIncreasing) as exc:
            raise NotInCone(
                f"top strand failed: {exc}",
                partial=decomposition.Decomposition(tuple(summands), residual),
                residual=residual,
            ) from exc
        pure = diagrams.pure_diagram(e)
        ratios = [(residual.get(p, ep - p) / pure.get(p, ep - p), p) for p, ep in enumerate(e)]
        c = min(r for r, _ in ratios)
        tight = tuple(p for r, p in ratios if r == c)
        residual = diagrams.subtract(residual, diagrams.scale(pure, c))
        summands.append(decomposition.PureSummand(c, e, tight))
    return decomposition.Decomposition(tuple(summands), diagrams.BettiDiagram())


# Mersenne primes 2^61-1, 2^31-1, 2^17-1, 2^13-1, the Fermat prime 65537 and
# the largest prime below 10^6: pairwise coprime, and coprime to every
# pure-diagram denominator of a small degree sequence
LARGE_PRIMES = (2**61 - 1, 2**31 - 1, 2**17 - 1, 2**13 - 1, 65537, 999983)


def _convex_weights(rng, count):
    weights = [F(rng.randint(1, 20)) for _ in range(count)]
    return [w / sum(weights) for w in weights]


def _prime_weights(rng, count):
    return [F(rng.randint(1, 20), rng.choice(LARGE_PRIMES)) for _ in range(count)]


def _family_combination(rng, weights=_convex_weights):
    """A seeded combination of 1-6 family diagrams, g <= 5, k <= 3, d <= 120,
    with convex weights or those weights(rng, count) draws."""
    g, k = rng.randint(1, 5), rng.randint(0, 3)
    params = secant.SecantParams(g, k, rng.randint(2 * g + 2 * k + 1, 120))
    tuples = secant.jump_tuples(g, k)
    chosen = rng.sample(tuples, rng.randint(1, min(6, len(tuples))))
    combo = diagrams.BettiDiagram()
    for tup, w in zip(chosen, weights(rng, len(chosen))):
        combo = diagrams.add(combo, diagrams.scale(secant.secant_pure_diagram(params, tup), w))
    return combo


def _perturbed(rng, b):
    """b with one entry rescaled, one cell added or one cell dropped."""
    entries = dict(b.items())
    keys = sorted(entries)
    kind = rng.randrange(3)
    if kind == 0:
        key = rng.choice(keys)
        entries[key] *= F(rng.randint(1, 30), 10)
    elif kind == 1:
        key = (rng.randint(0, diagrams.projective_dimension(b) + 1),
               rng.randint(0, diagrams.regularity(b) + 1))
        entries[key] = entries.get(key, 0) + F(rng.randint(1, 9), rng.randint(1, 9))
    else:
        del entries[rng.choice(keys)]
    return diagrams.BettiDiagram(entries)


def _outcome(fn, b):
    try:
        return "ok", fn(b)
    except NotInCone as exc:
        return "not in cone", (str(exc), exc.partial, exc.residual)


def test_in_place_peel_matches_copy_per_step_oracle():
    rng = random.Random(606)
    for _ in range(40):
        combo = _family_combination(rng)
        # summands are tuples, so == compares tight_columns too
        assert decomposition.decompose(combo) == _peel_oracle(combo)
    outside = 0
    for _ in range(60):
        b = _perturbed(rng, _family_combination(rng))
        got, want = _outcome(decomposition.decompose, b), _outcome(_peel_oracle, b)
        assert got == want
        outside += got[0] == "not in cone"
    assert 10 <= outside < 60, "the perturbations should land on both sides of the cone"


def test_peel_matches_oracle_over_large_coprime_denominators():
    rng = random.Random(2**31 - 1)
    grew = 0
    for _ in range(25):
        combo = _family_combination(rng, _prime_weights)
        dec = decomposition.decompose(combo)
        assert dec == _peel_oracle(combo)
        assert decomposition.verify(combo, dec)
        # a common denominator that has taken in two of the primes
        lcm = math.lcm(*(v.denominator for _, v in combo.items()))
        grew += sum(lcm % prime == 0 for prime in LARGE_PRIMES) >= 2
    assert grew >= 10
    outside = 0
    for _ in range(40):
        b = _perturbed(rng, _family_combination(rng, _prime_weights))
        got, want = _outcome(decomposition.decompose, b), _outcome(_peel_oracle, b)
        assert got == want
        outside += got[0] == "not in cone"
    assert 8 <= outside < 40, "the perturbations should land on both sides of the cone"


def test_long_peel_matches_oracle():
    # thirty family diagrams at one (g, k, d) over three primes: a peel of
    # many steps, over which the working numerators are never reduced
    rng = random.Random(4040)
    params = secant.SecantParams(5, 3, 40)
    combo = diagrams.BettiDiagram()
    for tup in rng.sample(secant.jump_tuples(5, 3), 30):
        w = F(rng.randint(1, 20), rng.choice((101, 103, 107)))
        combo = diagrams.add(combo, diagrams.scale(secant.secant_pure_diagram(params, tup), w))
    dec = decomposition.decompose(combo)
    assert len(dec.summands) >= 12
    assert dec == _peel_oracle(combo)
    assert decomposition.verify(combo, dec)


def _chain(rng, drop=0.0):
    """Degree sequences, each above the last in the Boij-Soederberg order,
    drawn as tests/test_cli_frozen.py::_chain draws them when drop is 0.
    Otherwise each step first drops the last degree with probability drop
    (while two remain), so a chain may mix lengths."""
    n = rng.randint(1, 5)
    seq = sorted(rng.sample(range(-2, 3 * n + 4), n + 1))
    chain = [tuple(seq)]
    for _ in range(rng.randint(0, 3)):
        seq = list(seq)
        if drop and n and rng.random() < drop:
            seq.pop()
            n -= 1
        for i in sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)), reverse=True):
            seq[i] += 1
            while i + 1 <= n and seq[i] >= seq[i + 1]:
                seq[i + 1] = seq[i] + 1
                i += 1
        chain.append(tuple(seq))
    return chain


def _chain_diagram(rng, chain):
    """(coefficients, diagram): the chain summed with random positive
    rational coefficients, each column straight from the Herzog-Kuhl
    formula (_pure_column), not from pure_diagram."""
    coefficients = [F(rng.randint(1, 30), rng.randint(1, 12)) for _ in chain]
    table = {}
    for c, e in zip(coefficients, chain):
        for p, ep in enumerate(e):
            table[(p, ep - p)] = table.get((p, ep - p), 0) + c * _pure_column(e, p)
    return coefficients, diagrams.BettiDiagram(table)


@pytest.mark.parametrize("seed, drop", [(15, 0.0), (1515, 0.5)], ids=["same-length", "mixed"])
def test_chain_combination_decomposes_into_its_chain(seed, drop):
    rng = random.Random(seed)
    mixed = 0
    for _ in range(2000):
        chain = _chain(rng, drop)
        coefficients, b = _chain_diagram(rng, chain)
        dec = decomposition.decompose(b)
        assert [(s.coefficient, tuple(s.degrees)) for s in dec.summands] == list(
            zip(coefficients, chain)
        )
        assert not dec.residual
        mixed += len({len(e) for e in chain}) > 1
    assert mixed >= 1000 if drop else mixed == 0


def _reconstruct_oracle(dec):
    """Decomposition.reconstruct as a Fraction sum: c times each pure
    diagram's entries added cell by cell into a copy of the residual."""
    out = dict(dec.residual.items())
    for s in dec.summands:
        c = F(s.coefficient)
        for key, v in diagrams.pure_diagram(s.degrees).items():
            out[key] = out.get(key, 0) + c * v
    return diagrams.BettiDiagram(out)


def _seeded_decomposition(rng, signed):
    """1-5 summands over random degree sequences. Signed ones also draw zero
    and negative coefficients, repeat a summand with the opposite sign (its
    cells cancel), and carry a residual, part of which cancels a summand's
    cell; the others are positive with no residual."""
    summands = []
    for _ in range(rng.randint(1, 5)):
        e = _random_degree_sequence(rng, rng.randint(1, 5))
        c = F(rng.randint(1, 20), rng.choice((1, 2, 6) + LARGE_PRIMES))
        if signed:
            c *= rng.choice((0, -1, 1, 1))
        summands.append(decomposition.PureSummand(c, e))
    residual = diagrams.BettiDiagram()
    if signed:
        if rng.random() < 0.5:
            s = rng.choice(summands)
            summands.append(decomposition.PureSummand(-s.coefficient, s.degrees))
        s = rng.choice(summands)
        (p, q), v = rng.choice(diagrams.pure_diagram(s.degrees).items())
        triples = [(p, q, -s.coefficient * v)]
        triples += [
            (rng.randint(0, 5), rng.randint(0, 4), F(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(rng.randint(0, 4))
        ]
        residual = diagrams.BettiDiagram.from_entries(triples)
        rng.shuffle(summands)
    return decomposition.Decomposition(tuple(summands), residual)


def test_reconstruct_matches_fraction_oracle(monkeypatch):
    rng = random.Random(1010)
    cases, cancelled = [], 0
    for i in range(80):
        dec = _seeded_decomposition(rng, signed=i % 2 == 0)
        want = _reconstruct_oracle(dec)
        assert dec.reconstruct() == want
        cells = {key for s in dec.summands for key in diagrams.pure_diagram(s.degrees).support()}
        cancelled += not cells | dec.residual.support() <= want.support()
        tampered = _perturbed(rng, want) if want else diagrams.BettiDiagram({(0, 0): F(1)})
        cases += [(want, dec), (tampered, dec)]
    assert cancelled >= 20, "some cells should sum to zero and drop out"

    got = [decomposition.verify(b, dec) for b, dec in cases]
    monkeypatch.setattr(decomposition.Decomposition, "reconstruct", _reconstruct_oracle)
    assert got == [decomposition.verify(b, dec) for b, dec in cases]
    reasons = {r.reason.split(" ")[0] if r.reason else None for r in got}
    assert reasons == {None, "summand", "residual", "reconstruction"}


def test_decompose_leaves_its_input_and_diagnostics_alone():
    rng = random.Random(7)
    combo = _family_combination(rng)
    before = dict(combo.items())
    decomposition.decompose(combo)
    assert dict(combo.items()) == before

    # one valid peel, then the leftover strand is flat
    bad = diagrams.add(
        diagrams.pure_diagram((0, 1, 2)),
        diagrams.BettiDiagram({(1, 1): F(1), (2, 0): F(1)}),
    )
    bad_before = dict(bad.items())
    with pytest.raises(NotInCone) as exc:
        decomposition.decompose(bad)
    assert dict(bad.items()) == bad_before
    residual = exc.value.residual
    assert exc.value.partial.residual == residual
    assert exc.value.partial.reconstruct() == bad
    # the raised residual is the one the copy-per-step peel fails at, and
    # the peel's later work has not changed it
    with pytest.raises(NotInCone) as want:
        _peel_oracle(bad)
    assert residual == want.value.residual
    entries = dict(residual.items())
    with pytest.raises(NotInCone):
        decomposition.decompose(bad)
    assert dict(residual.items()) == entries
    # nor has the memo's pure diagram the first step read
    assert diagrams.pure_diagram((0, 1, 2)).items() == [((0, 0), F(1)), ((1, 0), F(2)), ((2, 0), F(1))]
    # a failure before any step hands out a table of its own, equal to b
    gap = diagrams.BettiDiagram({(0, 0): F(1), (2, 2): F(1)})
    with pytest.raises(NotInCone) as exc:
        decomposition.decompose(gap)
    assert exc.value.residual == gap and exc.value.residual._n is not gap._n


def _assert_canonical(b):
    """b holds nonzero int numerators over an int denominator > 0, in lowest
    terms."""
    assert type(b._den) is int and b._den > 0
    assert all(type(n) is int and n != 0 for n in b._n.values())
    assert math.gcd(b._den, *b._n.values()) == 1


def test_every_path_builds_the_canonical_form():
    rng = random.Random(1111)
    for _ in range(40):
        e = _random_degree_sequence(rng, rng.randint(1, 6))
        pure = diagrams.pure_diagram(e)
        w = F(rng.randint(1, 30), rng.choice((1, 2, 6) + LARGE_PRIMES))
        entries = {key: w * v for key, v in pure.items()}
        thirds = [(p, q, part) for (p, q), v in entries.items() for part in (v / 3, 2 * v / 3)]
        paths = [
            diagrams.BettiDiagram(entries),
            diagrams.BettiDiagram.from_entries(thirds),
            diagrams.BettiDiagram.from_json_obj({"entries": [
                {"p": p, "q": q, "v": f"{7 * v.numerator}/{7 * v.denominator}"}
                for (p, q), v in entries.items()
            ]}),
            diagrams.scale(pure, w),
            diagrams.add(diagrams.scale(pure, w / 3), diagrams.scale(pure, 2 * w / 3)),
            diagrams.subtract(diagrams.scale(pure, 3 * w), diagrams.scale(pure, 2 * w)),
            decomposition.Decomposition((decomposition.PureSummand(w, e),)).reconstruct(),
        ]
        _assert_canonical(pure)
        for b in paths:
            _assert_canonical(b)
        # == agrees with comparing entries, on equal and unequal diagrams
        others = [pure, diagrams.scale(pure, 2), diagrams.scale(pure, w + 1)]
        for a in paths + others:
            for b in paths + others:
                assert (a == b) is (a.items() == b.items())
        assert all(b == paths[0] for b in paths)
        assert diagrams.add(diagrams.scale(pure, F(1, 3)), diagrams.scale(pure, F(2, 3))) == pure
        cancelled = diagrams.subtract(pure, pure)
        _assert_canonical(cancelled)
        assert cancelled == diagrams.BettiDiagram() and cancelled._den == 1

    outside = 0
    for _ in range(30):
        b = _family_combination(rng, _prime_weights)
        if rng.random() < 0.5:
            b = _perturbed(rng, b)
        _assert_canonical(b)
        try:
            dec = decomposition.decompose(b)
        except NotInCone as exc:
            outside += 1
            _assert_canonical(exc.residual)
            dec = exc.partial
        rebuilt = dec.reconstruct()
        _assert_canonical(rebuilt)
        assert rebuilt == b and rebuilt.items() == b.items()
    assert 5 <= outside < 30


@pytest.mark.parametrize(
    "c, message",
    [(0.1, "must be a Fraction, an int or a str"), ("1/0", "zero denominator")],
    ids=["float", "zero-denominator"],
)
def test_verify_reads_caller_coefficients_as_rationals(c, message):
    e = diagrams.DegreeSequence((0, 1))
    dec = decomposition.Decomposition((decomposition.PureSummand(c, e),))
    # what reconstruct once made of 0.1: its binary value in every cell
    binary = diagrams.scale(diagrams.pure_diagram(e), F(3602879701896397, 2**55))
    with pytest.raises(ValueError, match=message):
        decomposition.verify(binary, dec)


def test_verify_reads_a_str_coefficient():
    e = diagrams.DegreeSequence((0, 2, 3))
    b = diagrams.scale(diagrams.pure_diagram(e), F(5, 2))

    def dec(c):
        return decomposition.Decomposition((decomposition.PureSummand(c, e),))

    assert decomposition.verify(b, dec("5/2"))
    assert decomposition.verify(b, dec("-5/2")).reason == "summand 0 has coefficient -5/2 <= 0"


def _writer_decomposition(rng):
    """0-4 summands over degree sequences that may start below zero, with
    integer or fractional coefficients of either sign, and half the time a
    residual with negative weights and integer or fractional values."""
    summands = []
    for _ in range(rng.randint(0, 4)):
        e = [rng.randint(-12, 3)]
        for _ in range(rng.randint(0, 6)):
            e.append(e[-1] + rng.randint(1, 4))
        c = F(rng.randint(-50, 50), rng.choice((1, 1, 3, 2**61 - 1)))
        summands.append(decomposition.PureSummand(c, diagrams.DegreeSequence(e)))
    residual = diagrams.BettiDiagram()
    if rng.random() < 0.5:
        cells = [(rng.randint(0, 6), rng.randint(-8, 5)) for _ in range(rng.randint(1, 8))]
        residual = diagrams.BettiDiagram.from_entries(
            (p, q, F(rng.randint(-99, 99), rng.choice((1, 4, 7**30)))) for p, q in cells
        )
    return decomposition.Decomposition(tuple(summands), residual)


def test_json_writers_match_json_dumps():
    rng = random.Random(1212)
    decs = [_writer_decomposition(rng) for _ in range(200)]
    decs += [decomposition.decompose(_family_combination(rng)) for _ in range(20)]
    for _ in range(40):
        try:
            decs.append(decomposition.decompose(_perturbed(rng, _family_combination(rng))))
        except NotInCone as exc:
            decs.append(exc.partial)
    shapes = {"no summands": 0, "residual": 0, "negative degree": 0, "integer value": 0}
    for dec in decs:
        assert decomposition._decomposition_json(dec) == json.dumps(dec.to_json_obj(), indent=2)
        tables = [dec.residual] + [diagrams.pure_diagram(s.degrees) for s in dec.summands]
        for b in tables:
            assert diagrams._diagram_json(b) == json.dumps(b.to_json_obj(), indent=2)
        shapes["no summands"] += not dec.summands
        shapes["residual"] += bool(dec.residual)
        shapes["negative degree"] += any(s.degrees[0] < 0 for s in dec.summands)
        shapes["integer value"] += any(v.denominator == 1 for b in tables for _, v in b.items())
    assert min(shapes.values()) >= 20, shapes

