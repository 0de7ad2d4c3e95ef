"""The sparse window engine against per-position oracles.

`exponent_images` visits only the k whose images i * k**j fall in a window,
and `exponent_range` bounds those k; `gap_scan`, `exclusion_window_check`,
`verify_exclusions` and `enumerate_equation_solutions` are views over them.
Each is compared with the position-by-position loop it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.arith import exponent_images, exponent_range
from lacunary.dependence import enumerate_equation_solutions
from lacunary.forge import verify_exclusions
from lacunary.series import (
    CoeffFn,
    LinearFormSpec,
    SeriesSpec,
    exclusion_window_check,
    gap_scan,
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
    _int_root_floor,
    brute_equation_solutions,
    brute_exclusions,
    brute_gap_runs,
    brute_window_clear,
)

# Set kind -> factory of one set of that kind with a given min cutoff.
_SET_MAKERS = {
    "naturals": naturals, "primes": primes, "squarefree": squarefree,
    "primes_in_ap": lambda m: primes_in_ap(4, 3, m), "geometric": lambda m: geometric(3, 2, m),
    "pell_x": lambda m: pell_x(2, m), "pell_y": lambda m: pell_y(3, 2, m),
}

# Window offsets: small, mid-size, and up to 10**30.
_MAGNITUDES = (1, 10**3, 10**6, 10**12, 10**20, 10**30)


@st.composite
def series_specs(draw):
    i, j = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    min_value = draw(st.sampled_from((1, 1, 2, 5, 40)))
    kind = draw(st.sampled_from(sorted(_SET_MAKERS) + ["explicit"]))
    if kind == "explicit":
        members = sorted(draw(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True)))
        table = {n: draw(st.sampled_from((-7, -2, -1, 1, 3))) for n in members}
        return SeriesSpec(i, j, explicit(members, min_value), CoeffFn("table", table=table))
    coeff = draw(st.sampled_from((CoeffFn.constant(1), CoeffFn.constant(-2),
                                  CoeffFn.alternating())))
    return SeriesSpec(i, j, _SET_MAKERS[kind](min_value), coeff)


@st.composite
def cancelling_terms(draw):
    """w * naturals against -w * (primes or squarefree) on one (i, j)."""
    i, j = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    w = draw(st.sampled_from((1, 2, -1)))
    sparse = draw(st.sampled_from((primes(), squarefree())))
    return [(w, SeriesSpec(i, j, naturals(), CoeffFn.constant(1))),
            (-w, SeriesSpec(i, j, sparse, CoeffFn.constant(1)))]


@st.composite
def forms(draw):
    terms = [(draw(st.integers(-3, 3)), spec)
             for spec in draw(st.lists(series_specs(), max_size=4))]
    if draw(st.booleans()):
        terms += draw(cancelling_terms())
    order = draw(st.permutations(range(len(terms))))
    return LinearFormSpec(2, 0, tuple(terms[t] for t in order))


@st.composite
def windows(draw, f):
    """(lo, hi): near an image of one of the form's terms, or anywhere."""
    width = draw(st.integers(0, 400))
    if f.terms and draw(st.booleans()):
        _, spec = f.terms[draw(st.integers(0, len(f.terms) - 1))]
        top = _int_root_floor(draw(st.sampled_from(_MAGNITUDES)) // spec.i, spec.j)
        anchor = spec.exponent(draw(st.integers(max(1, top // 2), max(1, top))))
        lo = max(1, anchor - draw(st.integers(0, width)))
    else:
        lo = draw(st.integers(1, draw(st.sampled_from(_MAGNITUDES))))
    return lo, lo + width


def _outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exponent_images_match_position_scan(data):
    spec = data.draw(series_specs())
    lo, hi = data.draw(windows(LinearFormSpec(2, 0, ((1, spec),))))
    hi = data.draw(st.sampled_from((hi, lo, lo - 1)))  # also lo == hi and hi < lo
    expected = []
    for n in range(lo, hi + 1):
        k = _int_root_floor(n // spec.i, spec.j)
        if n % spec.i == 0 and k >= 1 and spec.exponent(k) == n and spec.set.contains(k):
            expected.append((n, k))
    assert exponent_images(lo, hi, spec.i, spec.j, spec.set) == expected


def test_exponent_range_edges():
    assert exponent_range(5, 9, 2, 2) == range(2, 3)      # 8 = 2 * 2**2; 2 does not divide 5
    assert exponent_range(9, 17, 2, 2) == range(3, 3)     # empty: 8 < 9, 18 > 17
    assert exponent_range(18, 18, 2, 2) == range(3, 4)
    assert not exponent_range(10, 9, 1, 2)                # hi < lo
    huge = exponent_range(1, 10**60, 1, 2)
    assert huge.stop - huge.start == 10**30
    with pytest.raises(ValueError):
        exponent_range(0, 5, 1, 2)
    with pytest.raises(ValueError):
        exponent_range(1, 5, 1, 1)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_gap_scan_matches_brute_runs(data):
    f = data.draw(forms())
    lo, hi = data.draw(windows(f))
    assert _outcome(gap_scan, f, lo, hi) == _outcome(brute_gap_runs, f, lo, hi)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_exclusion_window_check_matches_brute(data):
    f = data.draw(forms())
    lo, hi = data.draw(windows(f))
    radius = data.draw(st.integers(1, 200))
    center = max(lo, radius + 1)
    assert (_outcome(exclusion_window_check, f, center, radius)
            == _outcome(brute_window_clear, f, center, radius))


def test_cancelling_form_leaves_only_composite_squares():
    f = LinearFormSpec(2, 0, ((1, SeriesSpec(1, 2, naturals(), CoeffFn.constant(1))),
                              (-1, SeriesSpec(1, 2, primes(), CoeffFn.constant(1)))))
    runs = gap_scan(f, 1, 100)
    assert runs == brute_gap_runs(f, 1, 100)
    zero = {n for s, length in runs for n in range(s, s + length)}
    assert sorted(set(range(1, 101)) - zero) == [1, 16, 36, 64, 81, 100]
    assert exclusion_window_check(f, 26, 5)      # 25 and 49 cancel, 16 and 36 are 10 away
    assert not exclusion_window_check(f, 26, 11)


def test_missing_table_entry_raises_on_the_same_member():
    # Member 3 of the second term sits at position 2 * 3**2 = 18, before the
    # first term's member 5 at position 25; both lack a table entry.
    first = SeriesSpec(1, 2, explicit([2, 5]), CoeffFn("table", table={2: 1}))
    second = SeriesSpec(2, 2, explicit([3]), CoeffFn("table", table={1: 1}))
    f = LinearFormSpec(2, 0, ((1, first), (1, second)))
    with pytest.raises(ValueError, match="member 3"):
        gap_scan(f, 1, 30)
    assert _outcome(gap_scan, f, 1, 30) == _outcome(brute_gap_runs, f, 1, 30)
    # Nearest first from 24: 25 (member 5) comes before 18 (member 3).
    with pytest.raises(ValueError, match="member 5"):
        exclusion_window_check(f, 24, 7)
    # From 10, position 4 (nonzero) is nearer than 18, so nothing raises.
    assert exclusion_window_check(f, 10, 9) is False
    for center, radius in ((24, 7), (10, 9), (20, 3)):
        assert (_outcome(exclusion_window_check, f, center, radius)
                == _outcome(brute_window_clear, f, center, radius))


@given(st.integers(2, 10**10), st.integers(1, 4), st.integers(2, 4), st.integers(1, 40),
       st.lists(st.tuples(st.integers(1, 5), st.integers(2, 5)), max_size=8, unique=True))
@settings(max_examples=300, deadline=None)
def test_verify_exclusions_matches_brute(q, i0, j0, window, family):
    got = _outcome(verify_exclusions, q, i0, j0, window, family)
    expected = _outcome(brute_exclusions, q, i0, j0, window, family)
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and got[0] is expected[0]
        return
    assert [(v.offset, v.side, v.i, v.j, v.k) for v in got.violations] == expected
    assert got.center == i0 * q**j0 and got.holds == (not expected)


def test_verify_exclusions_near_small_squares():
    family = [(1, 2), (2, 2), (1, 3), (2, 3)]
    report = verify_exclusions(5, 1, 2, 12, family)
    got = [(v.offset, v.side, v.i, v.j, v.k) for v in report.violations]
    assert got == brute_exclusions(5, 1, 2, 12, family)
    # 27 = 3**3, 18 = 2 * 3**2, 32 = 2 * 4**2, 16 = 4**2 = 2 * 2**3, 36 = 6**2.
    assert got == [(2, "+", 1, 3, 3), (7, "-", 2, 2, 3), (7, "+", 2, 2, 4),
                   (9, "-", 1, 2, 4), (9, "-", 2, 3, 2), (11, "+", 1, 2, 6)]


@given(st.integers(1, 3), st.integers(2, 4), st.integers(1, 4), st.integers(2, 4),
       st.integers(1, 80), st.integers(1, 80))
@settings(max_examples=300, deadline=None)
def test_equation_solutions_match_brute_in_order(i0, j0, i, j, u_max, x_max):
    got = [(s.x, s.y, s.u, s.sign) for s in
           enumerate_equation_solutions(i0, j0, i, j, u_max, x_max)]
    expected = sorted(brute_equation_solutions(i0, j0, i, j, u_max, x_max),
                      key=lambda s: (s[0], s[2], s[3] != "+"))
    assert got == expected


def test_equation_solutions_when_the_window_reaches_below_one():
    # lead = 1 at x = 1 while u_max = 30: only y with y**2 <= 31 qualify.
    sols = enumerate_equation_solutions(1, 3, 1, 2, 30, 2)
    expected = sorted(brute_equation_solutions(1, 3, 1, 2, 30, 2),
                      key=lambda s: (s[0], s[2], s[3] != "+"))
    assert [(s.x, s.y, s.u, s.sign) for s in sols] == expected
    assert (1, 5, 24, "-") in expected and (2, 1, 7, "+") in expected
