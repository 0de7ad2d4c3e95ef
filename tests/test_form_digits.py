"""`series.form_digits` against the mantissa path that `eval` and `digits` used.

The reference is eval_linear_form's FixedPointValue of the same form:
render_digits for the digits and flags (itself held to the position-by-position
oracle, as the two share the flag computation), to_decimal, fraction_sci of
the error bound, and divmod(|mantissa|, b**S) for the sign, integer part and
fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import series
from lacunary.series import (
    CoeffFn,
    FormDigits,
    GUARD_DIGITS,
    LinearFormSpec,
    MissingCoefficient,
    SeriesSpec,
    _pow_bounds,
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

from oracles import brute_magnitude, brute_render_digits

_INFINITE = (naturals(), primes(), squarefree(), primes_in_ap(4, 3), primes_in_ap(3, 2),
             geometric(1, 2), geometric(3, 3), pell_x(2), pell_x(5), pell_y(3, 2))


@st.composite
def coefficients(draw):
    """A constant, the alternating sign, or a table over 1..K that may miss a
    member, with a declared bound at or above its entries."""
    kind = draw(st.sampled_from(("const", "alternating", "table")))
    if kind == "const":
        return CoeffFn.constant(draw(st.sampled_from((1, -1, 2, -5, 35, -36))))
    if kind == "alternating":
        return CoeffFn.alternating()
    top = draw(st.integers(1, 60))
    table = {n: draw(st.sampled_from((-3, -1, 1, 2, 40))) for n in range(1, top + 1)}
    return CoeffFn("table", table=table, bound=draw(st.sampled_from((None, 40, 10**30))))


@st.composite
def series_specs(draw):
    i, j = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    if draw(st.integers(0, 3)) == 0:  # finite: exact once every member is summed
        members = sorted(draw(st.lists(st.integers(1, 30), max_size=5, unique=True)))
        table = {n: draw(st.sampled_from((-2, 1, 3))) for n in members}
        return SeriesSpec(i, j, explicit(members),
                          CoeffFn("table", table=table) if table else CoeffFn.constant(1))
    return SeriesSpec(i, j, draw(st.sampled_from(_INFINITE)), draw(coefficients()))


@st.composite
def mixed_forms(draw):
    """(form, digits): 0-4 terms over every set kind, or a pair of terms whose
    weights cancel at shared exponents (V an integer within its error)."""
    b = draw(st.integers(2, 36))
    terms = [(draw(st.integers(-3, 3)), draw(series_specs())) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        w, i, j = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
        subset = draw(st.sampled_from((primes(), squarefree(), naturals())))
        terms += [(w, SeriesSpec(i, j, naturals(), CoeffFn.constant(1))),
                  (-w, SeriesSpec(i, j, subset, CoeffFn.constant(1)))]
    return LinearFormSpec(b, draw(st.integers(-3, 3)), tuple(terms)), draw(st.integers(1, 600))


@st.composite
def sparse_forms(draw):
    """(form, digits): a constant plus a few digits placed at chosen positions
    (explicit {1} with i = the position, exact), and maybe one open naturals
    term far down. Between the points the digits are long runs of 0 or b - 1,
    so the carries and borrows of the assembly, the complement of a negative
    value and lo and hi in the flags all cross them; V may be 0, an integer,
    or an integer within its error."""
    b = draw(st.integers(2, 36))
    digits = draw(st.integers(1, 600))
    scale = digits + GUARD_DIGITS
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        position = draw(st.integers(1, scale))
        c = draw(st.sampled_from((1, -1, b - 1, 1 - b, b, -b, 2 * b + 1)))
        terms.append((draw(st.sampled_from((1, -1, 2))),
                      SeriesSpec(position, 2, explicit([1]), CoeffFn.constant(c))))
    if draw(st.booleans()):  # open: member 1 at `position`, tail beyond the scale
        position = draw(st.integers(max(1, scale - 40), scale))
        terms.append((draw(st.sampled_from((1, -1, 3))),
                      SeriesSpec(position, 2, naturals(), draw(coefficients()))))
    return LinearFormSpec(b, draw(st.integers(-3, 3)), tuple(terms)), digits


def _check(form, digits, count, places):
    try:
        value = eval_linear_form(form, digits)
    except MissingCoefficient as exc:
        with pytest.raises(MissingCoefficient) as caught:
            form_digits(form, digits)
        assert (str(caught.value), caught.value.coeff) == (str(exc), exc.coeff)
        return
    got = form_digits(form, digits)
    expected = render_digits(value, count)
    assert got.rendering(count) == expected
    assert (expected.digits, expected.uncertain) == brute_render_digits(value, count)
    assert (got.negative, got.integer, got.fraction) == brute_magnitude(value)
    assert got.decimal(min(digits, 48)) == value.to_decimal(min(digits, 48))
    assert got.decimal(places) == value.to_decimal(places)
    assert got.error_sci() == fraction_sci(value.error_bound)
    assert (got.mass == 0) == value.is_exact


@given(st.one_of(mixed_forms(), sparse_forms()), st.data())
@settings(derandomize=True, max_examples=800, deadline=None)
def test_form_digits_matches_the_mantissa_path(job, data):
    form, digits = job
    count = data.draw(st.one_of(st.integers(1, min(digits, 12)), st.integers(1, digits)))
    _check(form, digits, count, data.draw(st.integers(1, 60)))


@pytest.mark.parametrize("b", [2, 3, 10, 36])
@pytest.mark.parametrize("constant, weight", [(0, 0), (2, 0), (-3, 0), (1, -1), (-1, 1), (3, -1)])
def test_integers_and_values_within_the_error_of_one(b, constant, weight):
    # weight * (member 1 at the last position + the open tail): V = constant,
    # exact, or one unit nearer zero than it, with an error reaching past it
    digits = 40
    spec = SeriesSpec(digits + GUARD_DIGITS, 2, naturals(), CoeffFn.constant(1))
    form = LinearFormSpec(b, constant, ((weight, spec),))
    _check(form, digits, digits, 48)
    rendering = form_digits(form, digits).rendering(digits)
    assert rendering.uncertain == (tuple(range(1, digits + 1)) if weight else ())


def test_negative_value_takes_the_complement_plus_one_unit():
    # -(3**-2 + 2 * 3**-5): |V| = 0.01002 in base 3 at the first five places
    terms = ((-1, SeriesSpec(2, 2, explicit([1]), CoeffFn.constant(1))),
             (-2, SeriesSpec(5, 2, explicit([1]), CoeffFn.constant(1))))
    got = form_digits(LinearFormSpec(3, 0, terms), 4)
    assert (got.negative, got.integer, got.fraction) == (True, 0, "01002" + "0" * 15)
    got = form_digits(LinearFormSpec(3, 1, terms), 4)  # 1 - 0.01002 = 0.21221
    assert (got.negative, got.integer, got.fraction) == (False, 0, "21221" + "0" * 15)


@st.composite
def error_bounds(draw):
    """(b, mass, S): any base, powers of two more often."""
    b = draw(st.one_of(st.integers(2, 36), st.sampled_from((2, 4, 8, 16, 32))))
    return b, draw(st.integers(1, 10**6)), draw(st.integers(17, 10**5))


@given(error_bounds())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_bracketed_error_string(bound):
    b, mass, scale = bound
    value = FormDigits(b, False, 0, "0" * scale, mass)
    assert value.error_sci() == fraction_sci(Fraction(mass, (b - 1) * b**scale))


# (b, mass, S) whose error is an exact 3-digit decimal: 9 * 123 / (9 * 10**S)
# is 1.23e-S, and 2**13 / 2**17 is 6.25e-2. The brackets cannot decide such a
# value once they are inexact; at S = 17 they still hold 5**k exactly.
@pytest.mark.parametrize("b, mass, scale", [(10, 9 * 123, 17), (10, 9 * 500, 40000),
                                            (10, 9 * 999 * 10**2, 99999), (2, 2**13, 17)])
def test_bracketed_error_string_at_exact_decimals(monkeypatch, b, mass, scale):
    built = []
    original = series._powers
    monkeypatch.setattr(series, "_powers", lambda base: built.append(base) or original(base))
    got = FormDigits(b, False, 0, "0" * scale, mass).error_sci()
    assert (10 in built) == (scale > 100)  # the exact powers were taken
    assert got == fraction_sci(Fraction(mass, (b - 1) * b**scale))


@pytest.mark.parametrize("base", [3, 5, 7, 9, 15, 35])
@pytest.mark.parametrize("k", [0, 1, 17, 1000, 10**5 + 16])
def test_pow_bounds_bracket_odd_bases(base, k):
    lo, hi, t = _pow_bounds(base, k)
    assert max(lo, hi).bit_length() <= 128
    power = base**k
    assert lo << t <= power <= hi << t
    assert (hi - lo) * 2**100 < lo
