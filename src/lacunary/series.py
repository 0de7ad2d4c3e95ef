"""High-precision evaluation of gap-power series sum a(n) / b**(i*n**j).

Values are exact base-b fixed-point numbers carrying a proven truncation
bound, so digit-pattern assertions are meaningful. The coefficient-sequence
view (one integer per base-b position) and its zero-run scans live here too.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import cache, lru_cache

from .arith import BudgetExceeded, Record, exponent_images, exponent_range, int_nth_root
from .sets import ExponentSet

# Guard digits appended beyond the requested precision; keeps carry
# uncertainty away from the digits a caller asked for at desk scale.
GUARD_DIGITS = 16
# The most digits eval_linear_form computes; above it, BudgetExceeded.
MAX_DIGITS = 10**6

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _powers(b: int):
    """k -> b**k, memoised. With b = odd * 2**s it is computed as
    odd**k << s*k: a shift when b is a power of two, and about half the time
    of a plain power for b = 10."""
    s = (b & -b).bit_length() - 1
    odd = b >> s
    return cache(lambda k: odd**k << s * k)


@lru_cache(maxsize=1)
def _unit(b: int, scale: int) -> int:
    """b**scale, the denominator of a fixed-point value. A job's values
    share one scale, so the last one is kept: one job computes it once."""
    return _powers(b)(scale)


class MissingCoefficient(ValueError):
    """A coefficient table has no entry for a member of its index set."""

    def __init__(self, coeff: "CoeffFn", member: int):
        super().__init__(f"coefficient table has no entry for member {member}")
        self.coeff = coeff


class CoeffFn:
    """Bounded nonzero integer coefficients attached to set members.

    Three shapes cover everything the toolkit needs: a constant, the
    alternating sign (-1)**n, and an explicit table.
    """

    def __init__(self, kind: str, value: int = 1, table: dict[int, int] | None = None,
                 bound: int | None = None):
        if kind not in ("const", "alternating", "table"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
        self.kind = kind
        self.value = value
        self.table = dict(table) if table else {}
        if kind == "const":
            if value == 0:
                raise ValueError("constant coefficient must be nonzero")
            self.bound = abs(value)
        elif kind == "alternating":
            self.bound = 1
        else:
            if not self.table:
                raise ValueError("coefficient table must be nonempty")
            if any(v == 0 for v in self.table.values()):
                raise ValueError("coefficient table values must be nonzero")
            worst = max(abs(v) for v in self.table.values())
            self.bound = worst if bound is None else bound
            if self.bound < worst:
                raise ValueError("declared bound is below a table entry")

    @classmethod
    def constant(cls, c: int = 1) -> "CoeffFn":
        return cls("const", value=c)

    @classmethod
    def alternating(cls) -> "CoeffFn":
        return cls("alternating")

    def __call__(self, n: int) -> int:
        if self.kind == "const":
            return self.value
        if self.kind == "alternating":
            return -1 if n % 2 else 1
        try:
            return self.table[n]
        except KeyError:
            raise MissingCoefficient(self, n) from None

    def to_json(self) -> dict:
        if self.kind == "const":
            return {"kind": "const", "value": self.value}
        if self.kind == "alternating":
            return {"kind": "alternating"}
        return {"kind": "table", "values": {str(k): v for k, v in self.table.items()},
                "bound": self.bound}


class SeriesSpec(Record):
    """One series sum over n in `set` of coeff(n) / b**(i * n**j)."""

    i: int
    j: int
    set: ExponentSet
    coeff: CoeffFn

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("i must be positive")
        if self.j < 2:
            raise ValueError("j must be >= 2 (smaller j gives a rational function)")

    def exponent(self, n: int) -> int:
        return self.i * n**self.j


class FixedPointValue(Record):
    """Base-b fixed point number mantissa / b**scale with a rigorous error bound.

    ``error_bound`` bounds |true - represented| and is carried through every
    arithmetic step; exact values carry bound zero.
    """

    base: int
    mantissa: int
    scale: int
    error_bound: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if not isinstance(self.error_bound, Fraction):
            object.__setattr__(self, "error_bound", Fraction(self.error_bound))
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")

    @classmethod
    def from_int(cls, value: int, base: int, scale: int) -> "FixedPointValue":
        return cls(base, value * _unit(base, scale), scale)

    @property
    def is_exact(self) -> bool:
        return self.error_bound == 0

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa, _unit(self.base, self.scale))

    def scaled_mantissa(self, target_scale: int) -> int:
        """Mantissa at a coarser-grained scale >= self.scale; exact."""
        if target_scale < self.scale:
            raise ValueError("cannot reduce scale without rounding")
        return self.mantissa * self.base ** (target_scale - self.scale)

    def to_decimal(self, places: int = 30) -> str:
        """Decimal rendering, truncated toward zero."""
        denom = _unit(self.base, self.scale)
        sign = "-" if self.mantissa < 0 else ""
        m = abs(self.mantissa)
        int_part, rem = divmod(m, denom)
        frac = rem * 10**places // denom
        return f"{sign}{int_part}.{frac:0{places}d}"


class DigitRendering(Record):
    """Base-b fractional digits, most significant first.

    ``uncertain`` lists the 1-based positions whose digit could change if the
    true value sits anywhere inside the error interval (carry boundaries).
    """

    digits: str
    uncertain: tuple[int, ...]


class LinearFormSpec(Record):
    """constant + sum of weight * series, all over the same base."""

    base: int
    constant: int
    terms: tuple[tuple[int, SeriesSpec], ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("base must be >= 2")


def eval_series(spec: SeriesSpec, b: int, digits: int) -> FixedPointValue:
    """Evaluate the series at 1/b to `digits` fractional base-b digits.

    Every member with exponent i*n**j <= scale = digits + GUARD_DIGITS
    contributes exactly. The omitted exponents are distinct and exceed
    scale, so the error bound is the sum over m > scale of bound * b**-m,
    or zero for an explicit set whose members past its cutoff were all summed.

    The members are summed as a balanced tree, the subquadratic integer
    input of Brent & Zimmermann, Modern Computer Arithmetic, section 1.7,
    with gaps of any length: adjacent runs of members combine pairwise as
    left * b**gap + right, where gap is the distance between the last
    exponents of the two runs, so each level costs about one full-size
    multiplication; the powers of b are memoised.
    """
    if b < 2:
        raise ValueError("base must be >= 2")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = digits + GUARD_DIGITS
    n_cap = int_nth_root(scale // spec.i, spec.j)[0] if spec.i <= scale else 0
    members = spec.set.members_up_to(n_cap) if n_cap >= 1 else []

    # (sum of coeff(n) * b**(last - exponent(n)) over a run, last exponent
    # of the run), one per member to begin with, merged pairwise.
    power = _powers(b)
    runs = [(spec.coeff(n), spec.exponent(n)) for n in members]
    while len(runs) > 1:
        merged = [(left * power(e2 - e1) + right, e2)
                  for (left, e1), (right, e2) in zip(runs[::2], runs[1::2])]
        runs = merged + runs[len(merged) * 2:]
    mantissa, last = runs[0] if runs else (0, scale)
    mantissa *= power(scale - last)

    if spec.set.is_finite and members == spec.set.members_up_to(max(spec.set.members, default=1)):
        return FixedPointValue(b, mantissa, scale)
    tail = Fraction(spec.coeff.bound, (b - 1) * _unit(b, scale))
    return FixedPointValue(b, mantissa, scale, tail)


def eval_linear_form(form: LinearFormSpec, digits: int) -> FixedPointValue:
    """constant + weighted series values, with error bounds accumulated."""
    if digits > MAX_DIGITS:
        raise BudgetExceeded(f"digits = {digits} is above the cap of {MAX_DIGITS}")
    scale = digits + GUARD_DIGITS
    mantissa = form.constant * _unit(form.base, scale) if form.constant else 0
    error = Fraction(0)
    for w, spec in form.terms:
        v = eval_series(spec, form.base, digits)
        mantissa += w * v.mantissa
        error += abs(w) * v.error_bound
    return FixedPointValue(form.base, mantissa, scale, error)


def coefficient_at(form: LinearFormSpec, n: int) -> int:
    """The exact integer sitting at base-b position n in the combined series.

    For each term this is weight * a(k) when n == i * k**j for a member k,
    zero otherwise; membership runs through root extraction, never
    enumeration, so n may be astronomically large.
    """
    return sum(c for _, c in _nonzero_coefficients(form, n, n))


# Most candidate positions gap_scan examines (the sum over the terms of the
# k with i * k**j inside the range); past it, gap_scan raises BudgetExceeded
# before examining any.
MAX_GAP_CANDIDATES = 10**6


def _nonzero_coefficients(form: LinearFormSpec, lo: int, hi: int, center: int | None = None):
    """Yield (n, c) for each n in [lo, hi] whose coefficient c is nonzero.

    Only member images i * k**j are visited. Positions come in ascending
    order; given a ``center``, that position is skipped and the others come
    nearest first, center - u before center + u. At each position the terms'
    coefficients are evaluated in term order and summed, so weights that
    cancel still cancel.
    """
    hits = sorted((n if center is None else (abs(n - center), n > center), t, n, k)
                  for t, (_, spec) in enumerate(form.terms)
                  for n, k in exponent_images(lo, hi, spec.i, spec.j, spec.set)
                  if n != center)
    pos = total = None
    for _, t, n, k in hits:
        if n != pos:
            if total:
                yield pos, total
            pos, total = n, 0
        w, spec = form.terms[t]
        total += w * spec.coeff(k)
    if total:
        yield pos, total


def gap_scan(form: LinearFormSpec, range_start: int, range_end: int) -> list[tuple[int, int]]:
    """Maximal runs (start, length) of zero coefficients inside the range.

    Raises BudgetExceeded when the terms have more than MAX_GAP_CANDIDATES
    candidate positions in the range.
    """
    if not 1 <= range_start <= range_end:
        raise ValueError("need 1 <= range_start <= range_end")
    candidates = sum(r.stop - r.start for r in (
        exponent_range(range_start, range_end, spec.i, spec.j) for _, spec in form.terms))
    if candidates > MAX_GAP_CANDIDATES:
        raise BudgetExceeded(
            f"range [{range_start}, {range_end}] holds {candidates} candidate positions, "
            f"above the cap of {MAX_GAP_CANDIDATES}")
    runs: list[tuple[int, int]] = []
    last = range_start - 1  # the last nonzero position seen, or just before the range
    for n, _ in _nonzero_coefficients(form, range_start, range_end):
        if n > last + 1:
            runs.append((last + 1, n - last - 1))
        last = n
    if last < range_end:
        runs.append((last + 1, range_end - last))
    return runs


def exclusion_window_check(form: LinearFormSpec, center: int, radius: int) -> bool:
    """True iff every position center +- u, u = 1..radius-1, carries a zero.

    radius == 1 is the empty window and holds vacuously. Positions are
    examined nearest first, center - u before center + u. No CLI path calls
    it; it stays to check a forged window through the linear form itself
    (tests/test_acceptance.py::test_c3 and the README's library table).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if center <= radius:
        raise ValueError("center must exceed the window radius")
    lo, hi = center - radius + 1, center + radius - 1
    return next(_nonzero_coefficients(form, lo, hi, center), None) is None


def fraction_sci(fr: Fraction, sig: int = 3) -> str:
    """Compact scientific-notation rendering of an exact fraction."""
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    f = -fr if fr < 0 else fr
    num, den = f.numerator, f.denominator
    # Within one of floor(log10 f), from the bit lengths (30103 / 10**5 is
    # log10 2 to five places). One power of ten gives floor(f * 10**(sig - e)):
    # the sig leading digits at exponent e - 1 and, after dropping trailing
    # digits, at the exponents above it.
    ten = _powers(10)
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        shift = sig - e
        scaled = num * ten(shift) // den if shift >= 0 else num // (den * ten(-shift))
        if scaled >= 10 ** (sig - 1):
            break
        e -= 1
    e -= 1
    while scaled >= 10**sig:
        scaled //= 10
        e += 1
    digits = str(scaled)
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+d}"


def render_digits(v: FixedPointValue, count: int) -> DigitRendering:
    """First `count` fractional base-b digits of |v|, most significant first.

    A digit is flagged uncertain when a perturbation within the error bound
    could change it, i.e. the digit prefix differs between value - error and
    value + error (carry propagation included).

    Only the value's digits are converted. The flagged positions are the
    last t, for the least t with lo // b**t == hi // b**t, where lo and hi
    are the truncations of value - error and value + error to `count`
    digits; t is found by doubling from 1 and then bisection, reading the
    value's digit suffixes. A carry run through the flagged digits makes t
    large, not wrong.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > v.scale:
        raise ValueError("count exceeds the stored scale")
    if v.base > len(_DIGIT_CHARS):
        raise ValueError(f"digit rendering supports bases up to {len(_DIGIT_CHARS)}")

    b = v.base
    power = _powers(b)
    unit, step = _unit(b, v.scale), power(v.scale - count)
    m = abs(v.mantissa)
    x = m % unit // step
    digit_str = _base_digits(x, b, count, power)

    if v.error_bound == 0:
        return DigitRendering(digit_str, ())

    # Integer cover of the error: floor(error * b**scale) + 1.
    error = v.error_bound
    spread = error.numerator * unit // error.denominator + 1
    lo_int, lo = divmod(m - spread, unit)
    hi_int, hi = divmod(m + spread, unit)
    if lo_int != hi_int:  # also when value - error < 0, as hi_int >= 0
        return DigitRendering(digit_str, tuple(range(1, count + 1)))
    t = _flagged_count(digit_str, x - lo // step, hi // step - x, b, power)
    return DigitRendering(digit_str, tuple(range(count - t + 1, count + 1)))


def _flagged_count(digits: str, below: int, above: int, b: int, power) -> int:
    """The least t with (x - below) // b**t == (x + above) // b**t, where
    `digits` are the base-b digits of x and t = len(digits) is known to hold.

    With r the value of the last t digits, that holds iff r >= below and
    r + above < b**t, and then for every larger t too. Doubling from t = 1
    brackets it, bisection finds it; r is read from the digit string, so a
    test costs the length of the suffix, not of x.
    """
    def holds(t: int) -> bool:
        r = parse_digits(digits[-t:], b) if t else 0
        return r >= below and r + above < power(t)

    if holds(0):
        return 0
    count = len(digits)
    fails, good = 0, 1
    while good < count and not holds(good):
        fails, good = good, 2 * good
    good = min(good, count)
    while good - fails > 1:
        mid = (fails + good) // 2
        if holds(mid):
            good = mid
        else:
            fails = mid
    return good


# Digits converted by the plain divmod loop at the leaves of the recursion.
_LEAF_DIGITS = 128
# format() codes of the bases whose digits are bit fields.
_FORMATS = {2: "b", 8: "o", 16: "x"}


def _base_digits(n: int, b: int, width: int, power) -> str:
    """The base-b digits of 0 <= n < b**width, most significant first,
    zero-padded to `width`.

    The path depends on the base alone. Bases 2, 8 and 16 read bit fields
    with format(), in linear time. Base 10 goes through `_decimal_digits`.
    Every other base is divide-and-conquer radix conversion (Brent &
    Zimmermann, Modern Computer Arithmetic, section 1.7): split on
    b**(width // 2), convert both halves, with a divmod loop at the leaves.
    `power(k)` returns b**k from the caller's cache.
    """
    if b in _FORMATS:
        return format(n, _FORMATS[b]).zfill(width)
    if b == 10:
        return _decimal_digits(n).zfill(width)
    if width <= _LEAF_DIGITS:
        out = []
        for _ in range(width):
            n, d = divmod(n, b)
            out.append(_DIGIT_CHARS[d])
        return "".join(reversed(out))
    half = width // 2
    high, low = divmod(n, power(half))
    return _base_digits(high, b, width - half, power) + _base_digits(low, b, half, power)


# Exact decimal arithmetic: a result that would need rounding raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])
# Bits converted by Decimal(int) at the leaves of the recursion.
_LEAF_BITS = 256


def _decimal_digits(n: int) -> str:
    """The decimal digits of n >= 0, without leading zeros.

    Subquadratic integer input into decimal arithmetic (Brent & Zimmermann,
    section 1.7): n = high * 2**k + low, with k half the bit length, is
    rebuilt from its converted halves as a Decimal, whose large products are
    number-theoretic-transform multiplications, and Decimal prints the
    result. No int is converted to a string, so CPython's int <-> str digit
    limit does not apply.
    """
    pow2 = cache(lambda k: Decimal(1 << k) if k <= _LEAF_BITS
                 else pow2(k // 2) * pow2(k - k // 2))

    def convert(n: int, bits: int) -> Decimal:  # n < 2**bits
        if bits <= _LEAF_BITS:
            return Decimal(n)
        half = bits // 2
        return convert(n >> half, bits - half) * pow2(half) + convert(n & ((1 << half) - 1), half)

    with localcontext(_EXACT):
        return str(convert(n, n.bit_length()))


def parse_digits(text: str, b: int) -> int:
    """The value of a nonempty string of base-b digits, most significant first.

    Every character must be a base-b digit as int(ch, b) reads it: no sign,
    prefix, underscore or whitespace; anything else raises ValueError.
    Converts by divide and conquer, the inverse of `_base_digits` for a
    general base, so CPython's int <-> str digit limit does not apply.
    """
    if not text:
        raise ValueError(f"no base-{b} digits")
    for ch in set(text):
        int(ch, b)  # raises ValueError on a character that is no base-b digit
    return _parse_chunk(text, b, _powers(b))


def _parse_chunk(digits: str, b: int, power) -> int:
    """The value of a string of valid base-b digits; splits like `_base_digits`."""
    if len(digits) <= _LEAF_DIGITS:
        return int(digits, b)
    half = len(digits) // 2
    high = _parse_chunk(digits[:-half], b, power)
    return high * power(half) + _parse_chunk(digits[-half:], b, power)
