"""Integral LLL against the exact-Fraction oracle, and at hunt scale against
the reference integral LLL: the reduced bases must be identical, not just
equivalent, and dependent rows must raise alike."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.relations import lll_reduce
from lacunary.series import CoeffFn, SeriesSpec, eval_series
from lacunary.sets import naturals, primes
from oracles import brute_lll, ref_lll

ENTRY = 10**6
# small entries make ties in the rounding and equality in the Lovasz test common
SMALL = 3
DELTAS = (Fraction(99, 100), Fraction(3, 4), Fraction(1, 2))


def _outcome(reduce, *args):
    try:
        return reduce(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def _bases(draw):
    n = draw(st.integers(2, 7))
    width = draw(st.integers(n, n + 2))
    bound = draw(st.sampled_from((ENTRY, SMALL)))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        # plant a dependent row: a small combination of two other rows
        order = draw(st.permutations(range(n)))
        target, a, b = order[0], order[1], order[-1]
        ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[target] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=400, deadline=None)
@given(_bases(), st.sampled_from(DELTAS))
def test_integral_lll_matches_the_fraction_oracle(rows, delta):
    assert _outcome(lll_reduce, rows, delta) == _outcome(brute_lll, rows, delta)


@st.composite
def _hunt_lattices(draw):
    """An identity block plus one column of 100-2000-bit entries, as a hunt
    builds it; half plant a small relation in the last entry, and some
    replace a row by a combination of two others, which must raise."""
    n = draw(st.integers(2, 9))
    bits = draw(st.integers(100, 2000))
    column = [draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) for _ in range(n)]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)
                      .filter(any))
        column[-1] = sum(c * v for c, v in zip(coeffs, column))
    rows = [[int(t == k) for t in range(n)] + [column[k]] for k in range(n)]
    if n >= 3 and draw(st.integers(0, 7)) == 0:
        target, a, b = draw(st.permutations(range(n)))[:3]
        ca, cb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[target] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    return rows


@settings(max_examples=25, deadline=None)
@given(_hunt_lattices(), st.sampled_from(DELTAS))
def test_hunt_scale_lattices_reduce_like_the_reference(rows, delta):
    assert _outcome(lll_reduce, rows, delta) == _outcome(ref_lll, rows, delta)


def _series_rows(n: int, precision: int, planted: bool = False) -> list[list[int]]:
    """Identity block plus one column: 1 and n-1 series values scaled by 2**precision."""
    scaled = [1 << precision]
    for i in range(1, n):
        index_set = primes() if i % 3 == 0 else naturals()
        v = eval_series(SeriesSpec(i, 2 + i % 2, index_set, CoeffFn.constant(1)), 2, precision)
        scaled.append(v.mantissa >> (v.scale - precision))
    if planted:
        scaled[-1] = 3 * scaled[1] - 2 * scaled[2] + 5 * scaled[0]
    return [[int(t == k) for t in range(n)] + [scaled[k]] for k in range(n)]


@pytest.mark.parametrize("n, precision, planted", [
    (6, 150, False), (7, 200, True), (8, 300, False), (10, 450, True), (12, 600, False),
])
def test_series_lattices_reduce_identically(n, precision, planted):
    rows = _series_rows(n, precision, planted)
    reduced = lll_reduce(rows)
    assert reduced == brute_lll(rows)
    if planted:
        assert min(sum(x * x for x in r) for r in reduced) <= 1 + 9 + 4 + 25


def test_bad_delta_and_dependent_rows_raise_like_the_oracle():
    unit = [[1, 0], [0, 1]]
    for delta in (Fraction(1, 4), Fraction(1), Fraction(1, 8), Fraction(5, 4)):
        new = _outcome(lll_reduce, unit, delta)
        assert new[0] == "ValueError"
        assert new == _outcome(brute_lll, unit, delta)
    dependent = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    assert _outcome(lll_reduce, dependent)[0] == "ValueError"
    assert _outcome(lll_reduce, dependent) == _outcome(brute_lll, dependent)
