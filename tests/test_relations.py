import random
from fractions import Fraction

import pytest

from lacunary.relations import (
    IntegerRelation,
    PrecisionTooLow,
    RelationQuery,
    find_relation,
    lll_reduce,
    search_relations,
    verify_relation,
)
from lacunary.series import CoeffFn, FixedPointValue, GUARD_DIGITS, SeriesSpec, eval_series
from lacunary.sets import naturals, pell_x, pell_y, primes


def _pell_values(precision=150, base=2):
    scale = precision + GUARD_DIGITS
    one = FixedPointValue.from_int(1, base, scale)
    d1 = eval_series(SeriesSpec(1, 2, pell_x(2), CoeffFn.constant(1)), base, precision)
    d2 = eval_series(SeriesSpec(2, 2, pell_y(2, 1), CoeffFn.constant(1)), base, precision)
    return one, d1, d2


def _proportional(a, b):
    n = len(a)
    assert len(b) == n
    return all(a[i] * b[k] == a[k] * b[i] for i in range(n) for k in range(n))


def test_lll_reduces_a_planted_short_vector():
    # rows span a lattice containing (1, -1, 0, 0) hidden behind big entries
    rows = [
        [1, 0, 0, 10**12],
        [0, 1, 0, 10**12],
        [0, 0, 1, 31415926],
    ]
    reduced = lll_reduce(rows)
    norms = [sum(x * x for x in r) for r in reduced]
    assert min(norms) == 2  # the difference of the first two rows
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])  # dependent rows
    with pytest.raises(ValueError):
        lll_reduce([[1, 0], [0, 1]], delta=Fraction(1, 8))


def test_exact_integer_relation():
    scale = 70
    one = FixedPointValue.from_int(1, 2, scale)
    three = FixedPointValue.from_int(3, 2, scale)
    rel = find_relation(RelationQuery((one, three), 100, 60))
    assert rel is not None
    assert rel.coefficients in ((-3, 1), (3, -1))
    assert rel.residual == 0


def test_planted_pell_relation():
    one, d1, d2 = _pell_values()
    rel = find_relation(RelationQuery((one, d1, d2), 1000, 150))
    assert rel is not None
    assert rel.coefficients in ((0, 2, -1), (0, -2, 1))


def test_verify_relation_examples():
    one, d1, d2 = _pell_values()
    check = verify_relation((one, d1, d2), (0, 2, -1))
    assert check.passed
    alpha = eval_series(SeriesSpec(1, 2, naturals(), CoeffFn.constant(1)), 2, 100)
    one2 = FixedPointValue.from_int(1, 2, alpha.scale)
    bad = verify_relation((one2, alpha), (1, -2))
    assert not bad.passed
    assert Fraction(128, 1000) < bad.residual < Fraction(129, 1000)
    with pytest.raises(ValueError):
        verify_relation((one2, alpha), (0, 0))
    with pytest.raises(ValueError):
        verify_relation((one2,), (1, 2))


def test_relation_recovery_of_random_planted_combinations():
    rng = random.Random(42)
    base, precision = 2, 100
    scale = precision + GUARD_DIGITS
    for _ in range(100):
        w0 = rng.randrange(-100, 101)
        w1 = rng.randrange(-100, 101) or 1
        v1 = FixedPointValue(base, rng.getrandbits(scale - 2) | 1, scale)
        planted = FixedPointValue(
            base, w0 * base**scale + w1 * v1.mantissa, scale)
        one = FixedPointValue.from_int(1, base, scale)
        rel = find_relation(RelationQuery((one, v1, planted), 10**3, precision))
        assert rel is not None
        assert _proportional(rel.coefficients, (w0, w1, -1))
        assert verify_relation((one, v1, planted), rel.coefficients).passed


def test_no_relation_reported_with_exclusion_floor():
    scale = 100 + GUARD_DIGITS
    one = FixedPointValue.from_int(1, 2, scale)
    alpha = eval_series(SeriesSpec(1, 2, naturals(), CoeffFn.constant(1)), 2, 100)
    report = search_relations(RelationQuery((one, alpha), 50, 100))
    assert report.relation is None
    assert report.residual_floor > 0


def test_scaling_invariance():
    rng = random.Random(9)
    base, precision = 2, 100
    scale = 200
    one = FixedPointValue.from_int(1, base, scale)
    v1 = FixedPointValue(base, rng.getrandbits(scale) | 1, scale)
    planted = FixedPointValue(base, 7 * base**scale - 3 * v1.mantissa, scale)
    values = (one, v1, planted)
    rel = find_relation(RelationQuery(values, 100, precision))
    # The same mantissas 30 places coarser: every value times base**30.
    shifted = tuple(FixedPointValue(base, v.mantissa, scale - 30) for v in values)
    rel2 = find_relation(RelationQuery(shifted, 100, precision))
    assert rel is not None and rel2 is not None
    assert rel.coefficients == rel2.coefficients


def test_precision_too_low():
    coarse = FixedPointValue(2, 1 << 59, 60, Fraction(1, 2**10))
    other = FixedPointValue.from_int(1, 2, 60)
    with pytest.raises(PrecisionTooLow):
        search_relations(RelationQuery((other, coarse), 10, 50))


def test_query_validation():
    one = FixedPointValue.from_int(1, 2, 60)
    with pytest.raises(ValueError):
        RelationQuery((one,), 10, 50)
    with pytest.raises(ValueError):
        RelationQuery((one, FixedPointValue.from_int(1, 3, 60)), 10, 50)
    with pytest.raises(ValueError):
        RelationQuery((one, one), 10, 70)  # precision beyond stored scale
    with pytest.raises(ValueError):
        IntegerRelation((0, 0), Fraction(0))
    with pytest.raises(ValueError):
        find_relation(RelationQuery((one, one), 10, 20))  # < 50 digits


def test_independent_family_hunt():
    precision = 200
    vals = [FixedPointValue.from_int(1, 2, precision + GUARD_DIGITS)]
    for i, j, st in [(1, 2, naturals()), (2, 2, naturals()), (1, 2, primes())]:
        vals.append(eval_series(SeriesSpec(i, j, st, CoeffFn.constant(1)), 2, precision))
    report = search_relations(RelationQuery(tuple(vals), 10**3, precision))
    assert report.relation is None
    assert report.residual_floor > Fraction(1, 2**precision)
