import math
import random
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.arith import BudgetExceeded
from lacunary.cli import _TERM, SpecError, _read
from lacunary.series import (
    CoeffFn,
    FixedPointValue,
    GUARD_DIGITS,
    LinearFormSpec,
    MAX_DIGITS,
    SeriesSpec,
    _base_digits,
    _pow_bounds,
    coefficient_at,
    eval_linear_form,
    eval_series,
    exclusion_window_check,
    fraction_sci,
    gap_scan,
    parse_digits,
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

from oracles import (
    brute_digit_string,
    brute_render_digits,
    brute_series_mantissa,
    horner_mantissa,
    ref_base_digits,
    ref_fraction_sci,
    series_partial_sum,
    sieve_primes,
)


def alpha_spec(i=1, j=2):
    return SeriesSpec(i, j, naturals(), CoeffFn.constant(1))


def test_eval_series_matches_fraction_oracle_exactly():
    v = eval_series(alpha_spec(), 2, 40)
    cutoff = 40 + GUARD_DIGITS
    members = [n for n in range(1, cutoff + 1) if n * n <= cutoff]
    assert members == [1, 2, 3, 4, 5, 6, 7]
    oracle = series_partial_sum(2, 1, 2, members)
    assert v.to_fraction() == oracle
    # frozen from the oracle: first decimal digits of the truncation
    assert v.to_decimal(10) == "0.5644684136"
    assert v.error_bound == Fraction(1, 2**cutoff)  # 1/((b-1) b**scale)


def test_eval_series_empty_explicit_set_is_exact_zero():
    v = eval_series(SeriesSpec(1, 2, explicit([]), CoeffFn.constant(1)), 2, 20)
    assert v.mantissa == 0 and v.error_bound == 0 and v.is_exact


def test_eval_series_prime_exponents():
    v = eval_series(SeriesSpec(1, 2, primes(), CoeffFn.constant(1)), 2, 40)
    cutoff = 40 + GUARD_DIGITS
    ps = [p for p in sieve_primes(10) if p * p <= cutoff]
    assert ps == [2, 3, 5, 7]  # first exponents 4, 9, 25, 49
    assert v.to_fraction() == series_partial_sum(2, 1, 2, ps)


def test_eval_series_alternating_signs():
    v = eval_series(SeriesSpec(1, 2, naturals(), CoeffFn.alternating()), 2, 30)
    members = [n for n in range(1, 7) if n * n <= 46]
    oracle = series_partial_sum(2, 1, 2, members, coeff=lambda n: (-1) ** n)
    assert v.to_fraction() == oracle
    assert v.mantissa < 0


def test_explicit_set_fully_included_is_exact():
    v = eval_series(SeriesSpec(1, 2, explicit([2, 4]), CoeffFn.constant(1)), 3, 20)
    assert v.is_exact
    assert v.to_fraction() == Fraction(1, 3**4) + Fraction(1, 3**16)
    # a member beyond the cutoff keeps an honest bound
    w = eval_series(SeriesSpec(1, 2, explicit([2, 400]), CoeffFn.constant(1)), 3, 20)
    assert not w.is_exact


def test_coefficient_table_and_validation():
    spec = SeriesSpec(1, 2, explicit([2, 3]), CoeffFn("table", table={2: 5, 3: -4}))
    v = eval_series(spec, 2, 20)
    assert v.to_fraction() == Fraction(5, 2**4) + Fraction(-4, 2**9)
    with pytest.raises(ValueError):
        CoeffFn.constant(0)
    with pytest.raises(ValueError):
        CoeffFn("table", table={2: 0})
    with pytest.raises(ValueError):
        CoeffFn("table", table={2: 9}, bound=3)
    bad = SeriesSpec(1, 2, explicit([2, 3]), CoeffFn("table", table={2: 5}))
    with pytest.raises(ValueError):
        eval_series(bad, 2, 20)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(0, 2, naturals(), CoeffFn.constant(1))
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, naturals(), CoeffFn.constant(1))


def test_coefficient_at_examples():
    f = LinearFormSpec(2, 0, ((1, alpha_spec()),))
    assert coefficient_at(f, 9) == 1
    assert coefficient_at(f, 10) == 0
    mixed = LinearFormSpec(2, 0, ((2, alpha_spec()),
                                  (3, SeriesSpec(2, 2, naturals(), CoeffFn.constant(1)))))
    assert 8 == 2 * 2**2 and math.isqrt(8) ** 2 != 8
    assert coefficient_at(mixed, 8) == 3


def test_coefficient_nonzero_only_at_exponent_images():
    f = LinearFormSpec(2, 0, ((1, SeriesSpec(2, 3, squarefree(), CoeffFn.alternating())),))
    for n in range(1, 300):
        expect = 0
        k = round((n / 2) ** (1 / 3))
        for cand in (k - 1, k, k + 1):
            if cand >= 1 and 2 * cand**3 == n and squarefree().contains(cand):
                expect = (-1) ** cand
        assert coefficient_at(f, n) == expect


def test_gap_scan_runs_against_zero_run_oracle():
    f = LinearFormSpec(2, 0, ((1, alpha_spec()),))
    nonzero = {n * n for n in range(1, 5)}
    runs, start = [], None
    for n in range(1, 17):
        if n not in nonzero:
            start = n if start is None else start
        elif start is not None:
            runs.append((start, n - start))
            start = None
    if start is not None:
        runs.append((start, 16 - start + 1))
    assert runs == [(2, 2), (5, 4), (10, 6)]  # frozen from this oracle
    assert gap_scan(f, 1, 16) == runs


def test_gap_scan_prime_squares():
    f = LinearFormSpec(2, 0, ((1, SeriesSpec(1, 2, primes(), CoeffFn.constant(1))),))
    # only 4 = 2**2 is a prime square within [1, 8]
    assert gap_scan(f, 1, 8) == [(1, 3), (5, 4)]


def test_gap_scan_whole_range_zero():
    f = LinearFormSpec(2, 0, ((0, alpha_spec()),))
    assert gap_scan(f, 5, 9) == [(5, 5)]
    assert gap_scan(LinearFormSpec(2, 0, ()), 1, 4) == [(1, 4)]


def test_exclusion_window_examples():
    f = LinearFormSpec(2, 0, ((1, alpha_spec()),))
    for n in (51527, 51528, 51530, 51531):
        assert math.isqrt(n) ** 2 != n
    assert exclusion_window_check(f, 51529, 3) is True
    assert exclusion_window_check(f, 10, 2) is False  # 9 = 3**2 is adjacent
    assert exclusion_window_check(f, 10, 1) is True   # empty window
    assert exclusion_window_check(LinearFormSpec(2, 0, ()), 100, 1) is True


def test_gap_scan_agrees_with_window_check():
    f = LinearFormSpec(2, 0, ((1, alpha_spec()),
                              (1, SeriesSpec(3, 2, naturals(), CoeffFn.constant(1)))))
    runs = gap_scan(f, 2, 120)
    zero_positions = set()
    for s, length in runs:
        zero_positions.update(range(s, s + length))
    for center in range(10, 100, 7):
        for radius in (1, 2, 3, 5):
            expected = all(
                center + off in zero_positions and center - off in zero_positions
                for off in range(1, radius)
            )
            assert exclusion_window_check(f, center, radius) == expected


def test_eval_linear_form_cancellation_and_constants():
    f = LinearFormSpec(2, 0, ((1, alpha_spec()), (-1, alpha_spec())))
    v = eval_linear_form(f, 50)
    assert v.mantissa == 0
    assert v.error_bound <= 2 * Fraction(1, 2 ** (50 + GUARD_DIGITS))
    g = LinearFormSpec(2, 1, ((0, alpha_spec()),))
    w = eval_linear_form(g, 30)
    assert w.to_fraction() == 1 and w.is_exact


def test_eval_linear_form_digits_cap():
    # Refused before any summing, so the constant's b**digits is never built.
    f = LinearFormSpec(10, 1, ((1, alpha_spec()),))
    with pytest.raises(BudgetExceeded, match=f"digits = {MAX_DIGITS + 1} is above the cap"):
        eval_linear_form(f, MAX_DIGITS + 1)


def read_coeff(obj):
    """obj read as the coefficients of a term, as the command line reads it."""
    fields, _ = _read({"i": 1, "j": 2, "set": {"kind": "naturals"}, "coeff": obj}, _TERM)
    return fields["coeff"]


def test_coefficient_unknown_field_is_named():
    for obj in ({"kind": "const", "value": 2}, {"kind": "alternating"},
                {"kind": "table", "values": {"1": 2}, "bound": 3}):
        assert read_coeff(obj).to_json() == obj
        for name in ("value", "values", "bound", "valeu"):
            if name not in obj:
                with pytest.raises(SpecError, match=f"field 'coeff.{name}': unknown field"):
                    read_coeff({**obj, name: 1})


def test_table_key_past_the_int_str_limit():
    limit = sys.get_int_max_str_digits()
    key = "9" * (limit + 1)
    too_long = f"field 'coeff.values': table key of {limit + 1} digits is too long"
    with pytest.raises(SpecError, match=too_long):
        read_coeff({"kind": "table", "values": {key: 1}})
    with pytest.raises(SpecError, match=too_long):
        read_coeff({"kind": "table", "values": {"-" + key: 1}})
    assert read_coeff({"kind": "table", "values": {key[1:]: 1}}).table == {int(key[1:]): 1}


@given(st.text(alphabet="0123456789-+ _\u0661x", max_size=5) | st.integers(-999, 999).map(str))
@settings(max_examples=200)
def test_table_keys_must_be_canonical(key):
    try:
        canonical = str(int(key)) == key
    except ValueError:
        canonical = False
    obj = {"kind": "table", "values": {key: 3}}
    if canonical:
        assert read_coeff(obj).table == {int(key): 3}
    else:
        with pytest.raises(SpecError, match="field 'coeff.values': table key"):
            read_coeff(obj)


def test_render_digits_examples():
    v = eval_series(alpha_spec(), 2, 40)
    r = render_digits(v, 10)
    assert r.digits == "1001000010"
    assert r.uncertain == ()
    g = eval_series(SeriesSpec(1, 2, primes(), CoeffFn.constant(1)), 2, 40)
    assert render_digits(g, 10).digits == "0001000010"
    z = FixedPointValue(2, 0, 12)
    assert render_digits(z, 12).digits == "0" * 12
    with pytest.raises(ValueError):
        render_digits(z, 13)


def test_render_digits_uncertainty_flags():
    # 0.0111111111 with slack crossing one trailing digit
    m = (2**9 - 1) << 10
    v = FixedPointValue(2, m, 20, Fraction(1, 2**19))
    r = render_digits(v, 10)
    assert r.digits == "0111111111"
    assert r.uncertain == (10,)
    # carry across the whole prefix
    m2 = (2**10 - 1) << 10
    v2 = FixedPointValue(2, m2, 20, Fraction(1, 2**10))
    r2 = render_digits(v2, 10)
    assert r2.uncertain == tuple(range(1, 11))


def test_render_digits_matches_manual_expansion():
    rng = random.Random(3)
    for _ in range(40):
        base = rng.choice([2, 3, 10, 16])
        scale = rng.randrange(5, 40)
        v = FixedPointValue(base, rng.randrange(0, base**scale), scale)
        count = rng.randrange(1, scale + 1)
        rendered = render_digits(v, count).digits
        frac = v.to_fraction()
        manual = []
        for _ in range(count):
            frac *= base
            digit = int(frac)
            manual.append("0123456789abcdef"[digit])
            frac -= digit
        assert rendered == "".join(manual)


def test_trivial_identity_small():
    # sum over even n of b**-(n*n) == sum over all n of b**-(4*n*n)
    digits = 80
    cutoff = digits + GUARD_DIGITS
    evens = explicit(list(range(2, math.isqrt(cutoff) + 1, 2)))
    left = eval_series(SeriesSpec(1, 2, evens, CoeffFn.constant(1)), 2, digits)
    right = eval_series(SeriesSpec(4, 2, naturals(), CoeffFn.constant(1)), 2, digits)
    assert left.mantissa == right.mantissa and left.scale == right.scale


def _random_spec(rng):
    i = rng.randrange(1, 5)
    j = rng.randrange(2, 5)
    index_set = rng.choice([
        naturals(), primes(), squarefree(), primes_in_ap(4, 3), primes_in_ap(3, 2),
        geometric(rng.randrange(1, 4), j),
    ])
    coeff = rng.choice([CoeffFn.constant(rng.choice([1, 2, -3])), CoeffFn.alternating()])
    return SeriesSpec(i, j, index_set, coeff)


def test_monotone_refinement():
    rng = random.Random(99)
    for _ in range(6):
        spec = _random_spec(rng)
        vals = {d: eval_series(spec, 2, d) for d in (50, 100, 200)}
        for d1 in (50, 100, 200):
            for d2 in (50, 100, 200):
                gap = abs(vals[d1].to_fraction() - vals[d2].to_fraction())
                assert gap <= vals[d1].error_bound + vals[d2].error_bound


def test_truncation_soundness():
    rng = random.Random(5)
    for _ in range(5):
        spec = _random_spec(rng)
        shallow = eval_series(spec, 3, 60)
        deep = eval_series(spec, 3, 400)  # many further terms included
        assert abs(shallow.to_fraction() - deep.to_fraction()) <= shallow.error_bound


def test_fixed_point_helpers():
    v = FixedPointValue(2, 3 << 10, 12, Fraction(1, 2**12))
    assert v.to_fraction() == Fraction(3, 4)
    assert v.scaled_mantissa(14) == 3 << 12
    with pytest.raises(ValueError):
        v.scaled_mantissa(10)
    # The same mantissa two places coarser is the value times 2**2.
    assert FixedPointValue(2, v.mantissa, 10).to_fraction() == 3
    assert FixedPointValue.from_int(5, 10, 4).to_decimal(2) == "5.00"
    assert fraction_sci(Fraction(0)) == "0"
    assert fraction_sci(Fraction(1, 2**10)) == "9.76e-4"
    assert fraction_sci(Fraction(-513, 524288)) == "-9.78e-4"
    assert fraction_sci(Fraction(12345, 1)) == "1.23e+4"


@st.composite
def fixed_point_values(draw):
    """A value to render: any sign and size, near carries or zero, any error."""
    b = draw(st.integers(2, 36))
    scale = draw(st.integers(1, 1200))  # past the leaves and splits of the digit conversions
    count = draw(st.integers(1, scale))
    unit = b ** (scale - count)  # one unit in the last rendered digit
    shape = draw(st.sampled_from(("any", "carry", "near_zero", "zero")))
    if shape == "any":  # negative values and values >= 1 included
        m = draw(st.integers(-3 * b**scale, 3 * b**scale))
    elif shape == "carry":  # just below or above a multiple of b**-pos: a carry run after pos
        pos = draw(st.integers(0, count))
        m = (draw(st.integers(0, 3 * b**pos)) * b ** (scale - pos)
             + draw(st.one_of(st.integers(-3 * unit, 3 * unit), st.integers(-3, 3))))
    elif shape == "near_zero":  # within a few units of zero, so value - error may be negative
        m = draw(st.integers(-3 * unit, 3 * unit))
    else:
        m = 0
    error = draw(st.one_of(
        st.just(Fraction(0)),
        st.builds(lambda num, den, e: Fraction(num, den * b**e),
                  st.integers(1, 50), st.integers(1, 5), st.integers(0, scale + 3))))
    return FixedPointValue(b, m, scale, error), count


@given(fixed_point_values())
@settings(max_examples=400, deadline=None)
def test_render_digits_matches_brute_oracle(case):
    v, count = case
    r = render_digits(v, count)
    assert (r.digits, r.uncertain) == brute_render_digits(v, count)


# Digit counts at and around the leaves and splits of the conversions: the
# 128-digit divmod leaf, 77 decimal digits (256 bits, the decimal leaf) and
# powers of two; bit lengths around the binary splits of the decimal path.
_EDGE_WIDTHS = sorted({w + d for w in (64, 77, 128, 155, 256, 512, 1024) for d in (-1, 0, 1)})
_EDGE_BITS = sorted({k + d for k in (256, 512, 1024, 2048, 4096) for d in (-1, 0, 1)})


@st.composite
def digit_cases(draw):
    """(n, b, width) with 0 <= n < b**width, n random or at a digit or bit edge."""
    b = draw(st.integers(2, 36))
    width = draw(st.one_of(st.sampled_from(_EDGE_WIDTHS), st.integers(1, 1500)))
    top = b**width
    n = draw(st.one_of(
        st.integers(0, top - 1),
        st.sampled_from((0, 1, top - 1, top // b, top // b - 1)),
        st.builds(lambda k, d: min(2**k + d, top - 1),
                  st.sampled_from(_EDGE_BITS), st.integers(-1, 1))))
    return n, b, width


@given(digit_cases())
@settings(max_examples=400, deadline=None)
def test_base_digits_match_the_reference_conversion(case):
    n, b, width = case
    power = cache(lambda k: b**k)
    assert _base_digits(n, b, width, power) == ref_base_digits(n, b, width, power)


@pytest.mark.parametrize("b", [2, 3, 8, 10, 16, 36])
def test_base_digits_past_the_int_str_limit(b):
    # 20000 digits: any str() of the whole value in base 10 would raise
    rng = random.Random(b)
    power = cache(lambda k: b**k)
    for n, width in ((rng.randrange(b**20000), 20000), (b**5000 - 1, 5000), (b**4301, 4302)):
        assert _base_digits(n, b, width, power) == ref_base_digits(n, b, width, power)


_ORACLE_SETS = {
    "naturals": naturals(), "primes": primes(), "squarefree": squarefree(),
    "primes_in_ap": primes_in_ap(4, 3), "geometric": geometric(2, 2), "pell_x": pell_x(2),
    "pell_y": pell_y(3, 2),
}


@st.composite
def series_cases(draw):
    b = draw(st.integers(2, 36))
    i, j = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    digits = draw(st.integers(1, 1000))
    kind = draw(st.sampled_from(sorted(_ORACLE_SETS) + ["explicit"]))
    if kind == "explicit":  # finite: exact when every member is included
        members = draw(st.lists(st.integers(1, 25), max_size=6, unique=True))
        index_set = explicit(sorted(members))
        coeff = (CoeffFn("table", table={n: draw(st.sampled_from((-7, -1, 1, 4))) for n in members})
                 if members else CoeffFn.constant(1))
    else:
        index_set = _ORACLE_SETS[kind]
        coeff = draw(st.sampled_from((CoeffFn.constant(1), CoeffFn.constant(-3),
                                      CoeffFn.alternating())))
    return SeriesSpec(i, j, index_set, coeff), b, digits


@given(series_cases())
@settings(max_examples=200, deadline=None)
def test_eval_series_matches_brute_oracle(case):
    spec, b, digits = case
    v = eval_series(spec, b, digits)
    scale = digits + GUARD_DIGITS
    members = [n for n in spec.set.members_up_to(scale) if spec.exponent(n) <= scale]
    assert v.scale == scale
    assert v.mantissa == brute_series_mantissa(b, spec.i, spec.j, members, spec.coeff, scale)
    assert v.mantissa == horner_mantissa(spec, b, scale, members)


@st.composite
def huge_integers(draw):
    """At least 10**4 digits: random low digits, or a few units from a power of ten."""
    k = draw(st.integers(10**4, 10**4 + 300))
    if draw(st.booleans()):
        return 10**k + draw(st.integers(-2, 2))
    low = random.Random(draw(st.integers(0, 2**32))).randrange(10**k)
    return draw(st.integers(1, 10**6)) * 10**k + low


@given(huge_integers(), huge_integers(),
       st.sampled_from((1, -1, 10**5, Fraction(1, 10**5))))
@settings(max_examples=40, deadline=None)
def test_fraction_sci_exponent_for_huge_fractions(num, den, factor):
    f = Fraction(num, den) * factor
    mantissa, e = fraction_sci(f).split("e")
    ten_e = Fraction(10) ** int(e)
    assert ten_e <= abs(f) < 10 * ten_e
    assert mantissa.lstrip("-").replace(".", "") == str(int(abs(f) * 100 / ten_e))


@st.composite
def sci_fractions(draw):
    """Fractions of either sign for fraction_sci: exact boundaries D * 10**k,
    runs of nines over a power of ten, the error bounds M / ((b - 1) * b**S)
    of values to S digits, and ratios of huge integers."""
    shape = draw(st.sampled_from(("boundary", "nines", "error", "huge")))
    if shape == "boundary":
        f = draw(st.integers(1, 10**4)) * Fraction(10) ** draw(st.integers(-3000, 3000))
    elif shape == "nines":
        f = Fraction(10 ** draw(st.integers(1, 7)) - 1, 10 ** draw(st.integers(0, 3000)))
    elif shape == "error":
        b = draw(st.integers(2, 36))
        f = Fraction(draw(st.integers(1, 1000)), (b - 1) * b ** draw(st.integers(1, 10**5)))
    else:
        f = Fraction(draw(huge_integers()), draw(huge_integers()))
    return -f if draw(st.booleans()) else f


@given(sci_fractions(), st.integers(1, 6))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fraction_sci_matches_the_exact_reference(f, sig):
    assert fraction_sci(f, sig) == ref_fraction_sci(f, sig)


@pytest.mark.parametrize("num, b, S", [(1, 3, 10**5), (-7, 36, 10**5), (123 * 9, 10, 50002),
                                       (999 * 9, 10, 80000), (5, 2, 10**5)],
                         ids=["b3", "b36-negative", "boundary-1.23", "nines", "b2"])
def test_fraction_sci_at_deep_error_bounds(num, b, S):
    f = Fraction(num, (b - 1) * b**S)  # the error bound of a value to S - 16 digits
    assert fraction_sci(f) == ref_fraction_sci(f)


@pytest.mark.parametrize("k", [0, 1, 55, 56, 57, 1000, 99999, 3 * 10**5])
def test_pow5_bounds_bracket_the_power(k):
    lo, hi, t = _pow_bounds(5, k)
    assert max(lo, hi).bit_length() <= 128
    assert lo << t <= 5**k <= hi << t
    assert (hi - lo) * 2**100 < lo


@st.composite
def int_literals(draw):
    """Strings int(s, b) may accept or reject, built around valid digits."""
    b = draw(st.sampled_from((2, 3, 8, 10, 16, 36)))
    body = draw(st.text("0123456789abcdefghijklmnopqrstuvwxyz"[:b], min_size=0, max_size=600))
    if draw(st.booleans()):  # underscores, possibly doubled or at an end
        cut = draw(st.integers(0, len(body)))
        body = body[:cut] + draw(st.sampled_from(("_", "__"))) + body[cut:]
    prefix = {2: "0b", 8: "0o", 16: "0X"}.get(b, "")
    head = draw(st.sampled_from(("", " ", "+", "-", " -", "\t+", prefix, "-" + prefix,
                                 prefix + "_", prefix + "__")))
    tail = draw(st.sampled_from(("", " ", "\n")))
    if draw(st.booleans()):  # one character from outside the digit alphabet
        cut = draw(st.integers(0, len(body)))
        stray = draw(st.sampled_from((" ", "+", "-", ".", "x", "z", "\u0663")))
        body = body[:cut] + stray + body[cut:]
    return head + body + tail, b


@given(int_literals())
@settings(max_examples=500, deadline=None)
def test_parse_digits_accepts_exactly_digit_strings(case):
    text, b = case

    def is_digit(ch):
        try:
            int(ch, b)
        except ValueError:
            return False
        return True

    if text and all(is_digit(ch) for ch in text):
        assert parse_digits(text, b) == int(text, b)
    else:
        with pytest.raises(ValueError):
            parse_digits(text, b)


def test_parse_digits_past_the_int_str_limit():
    rng = random.Random(11)
    for b, length in ((10, 5000), (3, 20000), (36, 9000), (2, 40000)):
        text = "".join(rng.choice("0123456789abcdefghijklmnopqrstuvwxyz"[:b])
                       for _ in range(length))
        n = parse_digits(text, b)
        assert n < b**length
        assert brute_digit_string(n, b, length) == text
    with pytest.raises(ValueError):
        parse_digits("7" * 3000 + "a" + "7" * 3000, 10)
