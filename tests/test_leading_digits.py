"""`series.leading_digits`, the evaluation behind `lacunary digits`.

It sums to the full scale only when a shallow value cannot certify the first
`count` digits. Whatever it does, its answer must be the full evaluation's:
the rendering of `eval_linear_form(form, digits)` to `count` digits, the sign
of its mantissa and its error bound, or the same exception.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import series
from lacunary.arith import BudgetExceeded
from lacunary.cli import main
from lacunary.series import (
    CoeffFn,
    LinearFormSpec,
    MAX_DIGITS,
    MissingCoefficient,
    SeriesSpec,
    eval_linear_form,
    fraction_sci,
    leading_digits,
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

GOLDEN = Path(__file__).resolve().parent / "golden"

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
    far enough below `digits` for a shallow attempt."""
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
            leading_digits(form, digits, count)
        assert (str(caught.value), caught.value.coeff) == (str(exc), exc.coeff)
        return
    rendering, negative, error = leading_digits(form, digits, count)
    assert (rendering.digits, rendering.uncertain, negative, error) == expected
    assert fraction_sci(error) == fraction_sci(expected[3])


def _spied_digits(monkeypatch, tmp_path, name: str) -> tuple[list[int], dict]:
    """The `digits` of every eval_series call while the golden spec `name`
    runs through the command line, and the spec."""
    calls = []
    original = series.eval_series

    def spy(spec, b, digits):
        calls.append(digits)
        return original(spec, b, digits)

    monkeypatch.setattr(series, "eval_series", spy)
    spec = GOLDEN / f"{name}.spec.json"
    assert main(["digits", "--spec", str(spec), "--out", str(tmp_path / "report.json")]) == 0
    return calls, json.loads(spec.read_text(encoding="utf-8"))


def test_certified_deep_job_never_sums_at_the_full_scale(monkeypatch, tmp_path):
    calls, spec = _spied_digits(monkeypatch, tmp_path, "digits_deep_pell")
    assert calls == [2 * spec["count"]] * len(spec["terms"])


def test_uncertified_job_falls_back_to_the_full_scale(monkeypatch, tmp_path):
    calls, spec = _spied_digits(monkeypatch, tmp_path, "digits_shallow_fallback")
    terms = len(spec["terms"])
    assert calls == [2 * spec["count"]] * terms + [spec["digits"]] * terms


def test_shallow_attempt_only_far_below_the_full_scale(monkeypatch):
    calls = []
    original = series.eval_series
    monkeypatch.setattr(series, "eval_series",
                        lambda spec, b, digits: calls.append(digits) or original(spec, b, digits))
    form = LinearFormSpec(10, 0, ((1, SeriesSpec(1, 2, naturals(), CoeffFn.constant(1))),))
    # 2 * count + GUARD_DIGITS is a quarter of digits + GUARD_DIGITS at count = 10
    leading_digits(form, 128, 10)
    leading_digits(form, 127, 10)
    assert calls == [20, 127]


def test_cap_and_table_misses_come_before_any_summing(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "eval_series", lambda *args: calls.append(args))
    missing = SeriesSpec(1, 2, naturals(), CoeffFn("table", table={1: 1}))
    form = LinearFormSpec(3, 0, ((1, missing),))
    with pytest.raises(BudgetExceeded, match=f"digits = {MAX_DIGITS + 1} is above the cap"):
        leading_digits(form, MAX_DIGITS + 1, 64)
    with pytest.raises(MissingCoefficient, match="no entry for member 2"):
        leading_digits(form, 10**5, 64)
    assert calls == []
