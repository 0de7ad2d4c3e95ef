"""`series.form_digits`, the evaluation behind `lacunary eval` and `lacunary digits`.

It reads the digits from the members without a mantissa. Its answer must be
the full evaluation's: the rendering of `eval_linear_form(form, digits)` to
`count` digits, the sign of its mantissa and its error bound, or the same
exception.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import series
from lacunary.arith import BudgetExceeded
from lacunary.series import (
    CoeffFn,
    GUARD_DIGITS,
    LinearFormSpec,
    MAX_DIGITS,
    MissingCoefficient,
    SeriesSpec,
    eval_linear_form,
    form_digits,
    fraction_sci,
    render_digits,
)
from lacunary.sets import (
    explicit,
    geometric,
    naturals,
    pell_x,
    pell_y,
    primes,
    primes_in_ap,
    squarefree,
)

_SETS = (naturals(), primes(), squarefree(), primes_in_ap(4, 3), geometric(1, 2),
         geometric(3, 3), pell_x(2), pell_y(3, 2))


@st.composite
def coefficients(draw):
    """A constant, the alternating sign, or a table over 1..K that may miss a member."""
    kind = draw(st.sampled_from(("const", "alternating", "table")))
    if kind == "const":
        return CoeffFn.constant(draw(st.sampled_from((1, -1, 2, -5))))
    if kind == "alternating":
        return CoeffFn.alternating()
    top = draw(st.integers(1, 40))
    return CoeffFn("table", table={n: draw(st.sampled_from((-3, -1, 1, 2))) for n in range(1, top + 1)})


@st.composite
def series_specs(draw):
    i, j = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    if draw(st.integers(0, 3)) == 0:  # finite: exact once every member is summed
        members = sorted(draw(st.lists(st.integers(1, 30), max_size=5, unique=True)))
        table = {n: draw(st.sampled_from((-2, 1, 3))) for n in members}
        return SeriesSpec(i, j, explicit(members),
                          CoeffFn("table", table=table) if table else CoeffFn.constant(1))
    return SeriesSpec(i, j, draw(st.sampled_from(_SETS)), draw(coefficients()))


@st.composite
def digit_jobs(draw):
    """(form, digits, count): any base that renders, a constant, 0-3 terms, or a
    pair of terms over the same exponents whose weights cancel; `count` often
    far below `digits`."""
    b = draw(st.integers(2, 36))
    terms = [(draw(st.integers(-3, 3)), draw(series_specs())) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        w, i, j = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
        subset = draw(st.sampled_from((primes(), squarefree(), naturals())))
        terms += [(w, SeriesSpec(i, j, naturals(), CoeffFn.constant(1))),
                  (-w, SeriesSpec(i, j, subset, CoeffFn.constant(1)))]
    form = LinearFormSpec(b, draw(st.integers(-2, 2)), tuple(terms))
    digits = draw(st.integers(1, 700))
    count = draw(st.one_of(st.integers(1, min(digits, 12)), st.integers(1, digits)))
    return form, digits, count


def _full(form, digits, count):
    value = eval_linear_form(form, digits)
    rendering = render_digits(value, count)
    return rendering.digits, rendering.uncertain, value.mantissa < 0, value.error_bound


@given(digit_jobs())
@settings(derandomize=True, max_examples=600, deadline=None)
def test_leading_digits_matches_the_full_evaluation(job):
    form, digits, count = job
    try:
        expected = _full(form, digits, count)
    except MissingCoefficient as exc:
        with pytest.raises(MissingCoefficient) as caught:
            form_digits(form, digits)
        assert (str(caught.value), caught.value.coeff) == (str(exc), exc.coeff)
        return
    value = form_digits(form, digits)
    rendering = value.rendering(count)
    error = Fraction(value.mass, (form.base - 1) * form.base ** (digits + GUARD_DIGITS))
    assert (rendering.digits, rendering.uncertain, value.negative, error) == expected
    assert value.error_sci() == fraction_sci(expected[3])


def test_cap_and_table_misses_come_before_any_summing(monkeypatch):
    calls = []
    original = series._members_through
    monkeypatch.setattr(series, "_members_through",
                        lambda spec, scale: calls.append(scale) or original(spec, scale))
    missing = SeriesSpec(1, 2, naturals(), CoeffFn("table", table={1: 1}))
    form = LinearFormSpec(3, 0, ((1, missing),))
    with pytest.raises(BudgetExceeded, match=f"digits = {MAX_DIGITS + 1} is above the cap"):
        form_digits(form, MAX_DIGITS + 1)
    assert calls == []
    with pytest.raises(MissingCoefficient, match="no entry for member 2"):
        form_digits(form, 10**5)
