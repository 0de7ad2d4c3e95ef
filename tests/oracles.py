"""Independent brute-force oracles used to derive expected test values.

Nothing in here touches the package under test, apart from the set
membership tests and coefficient functions a caller passes in with a form;
everything is the dumbest correct method available (trial division, sieves,
exhaustive scans, exact Fraction summation), or, for the ref_* functions,
brute_lll, brute_witnesses and horner_mantissa, the package's own earlier
method, kept as the reference for the faster code that replaced it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def sieve_primes(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(math.isqrt(limit)) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [i for i, f in enumerate(flags) if f]


def sieve_squarefree(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    for p in range(2, int(math.isqrt(limit)) + 1):
        for m in range(p * p, limit + 1, p * p):
            flags[m] = False
    return [i for i in range(1, limit + 1) if flags[i]]


def series_partial_sum(b: int, i: int, j: int, members, coeff=lambda n: 1) -> Fraction:
    """Exact Fraction value of sum of coeff(n) / b**(i * n**j)."""
    return sum((Fraction(coeff(n), b ** (i * n**j)) for n in members), Fraction(0))


def brute_series_mantissa(b: int, i: int, j: int, members, coeff, scale: int) -> int:
    """sum of coeff(n) * b**(scale - i * n**j), one full power per term.

    `members` must have i * n**j <= scale.
    """
    return sum(coeff(n) * b ** (scale - i * n**j) for n in members)


def brute_digit_string(n: int, b: int, count: int) -> str:
    """The `count` lowest base-b digits of n >= 0, one divmod per digit."""
    digits = []
    for _ in range(count):
        n, d = divmod(n, b)
        digits.append(_DIGIT_CHARS[d])
    return "".join(reversed(digits))


def brute_render_digits(v, count: int) -> tuple[str, tuple[int, ...]]:
    """(digits, uncertain positions) of a fixed-point value, position by position.

    `v` has the fields base, mantissa, scale and error_bound; a position is
    uncertain when the prefixes through it differ between value - error and
    value + error.
    """
    b = v.base
    step = b ** (v.scale - count)
    m = abs(v.mantissa)
    digits = brute_digit_string(m // step, b, count)
    if v.error_bound == 0:
        return digits, ()
    slack = v.error_bound * b**v.scale
    spread = slack.numerator // slack.denominator + 1
    lo = (m - spread) // step
    hi = (m + spread) // step
    if lo < 0:
        return digits, tuple(range(1, count + 1))
    for pos in range(1, count + 1):
        shift = b ** (count - pos)
        if lo // shift != hi // shift:
            return digits, tuple(range(pos, count + 1))
    return digits, ()


def brute_magnitude(v) -> tuple[bool, int, str]:
    """(mantissa < 0, integer part, all `scale` fractional digits) of |v|:
    divmod(|mantissa|, b**scale), then one divmod per digit."""
    integer, rest = divmod(abs(v.mantissa), v.base**v.scale)
    return v.mantissa < 0, integer, brute_digit_string(rest, v.base, v.scale)


# Digits converted by the plain divmod loop at the leaves of ref_base_digits.
_LEAF_DIGITS = 128


def ref_base_digits(n: int, b: int, width: int, power) -> str:
    """The `width` lowest base-b digits of n >= 0, most significant first.

    The conversion the package used for every base before its native-radix
    paths, kept as a reference: divide and conquer on b**(width // 2), a
    divmod loop at the leaves. `power(k)` returns b**k.
    """
    if width <= _LEAF_DIGITS:
        out = []
        for _ in range(width):
            n, d = divmod(n, b)
            out.append(_DIGIT_CHARS[d])
        return "".join(reversed(out))
    half = width // 2
    high, low = divmod(n, power(half))
    return ref_base_digits(high, b, width - half, power) + ref_base_digits(low, b, half, power)


def ref_fraction_sci(fr: Fraction, sig: int = 3) -> str:
    """`sig` significant digits of a fraction in scientific notation.

    The rendering the package used before it bracketed its powers of ten,
    kept as a reference: one exact power of ten per exponent tried.
    """
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    num, den = abs(fr.numerator), fr.denominator
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000
    while True:
        shift = sig - e
        scaled = num * 10**shift // den if shift >= 0 else num // (den * 10**-shift)
        if scaled >= 10 ** (sig - 1):
            break
        e -= 1
    e -= 1
    while scaled >= 10**sig:
        scaled //= 10
        e += 1
    digits = str(scaled)
    return f"{sign}{digits[0]}.{digits[1:]}e{e:+d}"


def horner_mantissa(spec, b: int, scale: int, members) -> int:
    """sum of spec.coeff(n) * b**(scale - spec.exponent(n)) over ascending members.

    The summation the package used before its tree summation, kept as a
    reference: Horner over the ascending exponents, mantissa * b**gap +
    coeff per member, then one shift to the full scale.
    """
    mantissa = last = 0
    for n in members:
        e = spec.exponent(n)
        mantissa = mantissa * b ** (e - last) + spec.coeff(n)
        last = e
    mantissa *= b ** (scale - last)
    return mantissa


def brute_pell_fundamental(D: int, x_cap: int = 10**6) -> tuple[int, int]:
    """Least x >= 2 with x**2 - D*y**2 = 1, by scanning x."""
    for x in range(2, x_cap + 1):
        t = x * x - 1
        if t % D:
            continue
        y = math.isqrt(t // D)
        if y >= 1 and D * y * y == t:
            return x, y
    raise AssertionError(f"no Pell solution for D={D} with x <= {x_cap}")


def brute_collision(i1: int, j1: int, i2: int, j2: int, cap: int = 200) -> tuple[int, int] | None:
    """Smallest (u, v), u-first, with i1*u**j1 == i2*v**j2, u, v <= cap."""
    targets = {}
    for v in range(cap, 0, -1):
        targets[i2 * v**j2] = v
    for u in range(1, cap + 1):
        v = targets.get(i1 * u**j1)
        if v is not None:
            return u, v
    return None


def brute_equation_solutions(i0: int, j0: int, i: int, j: int,
                             u_max: int, x_max: int) -> set[tuple[int, int, int, str]]:
    """All (x, y, u, sign) with i0*x**j0 - i*y**j = +-u, via a nested y scan.

    For each x the admissible y satisfy |i0*x**j0 - i*y**j| <= u_max, which
    pins y inside a short explicit interval.
    """
    out = set()
    for x in range(1, x_max + 1):
        lead = i0 * x**j0
        lo_val = max(lead - u_max, 1)
        y_lo = max(1, _int_root_floor((lo_val - 1) // i, j))
        y_hi = _int_root_floor((lead + u_max) // i, j) + 1
        for y in range(y_lo, y_hi + 1):
            diff = lead - i * y**j
            if diff == 0 or abs(diff) > u_max:
                continue
            out.add((x, y, abs(diff), "+" if diff > 0 else "-"))
    return out


def _int_root_floor(n: int, k: int) -> int:
    if n <= 0:
        return 0
    r = round(n ** (1.0 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def brute_coefficient(form, n: int) -> int:
    """The coefficient at position n of a linear form, by one root per term.

    `form.terms` holds (weight, spec) pairs; each spec has i, j, a `set` with
    `contains(k)` and a callable `coeff`. Terms are evaluated in order.
    """
    total = 0
    for w, spec in form.terms:
        if n % spec.i:
            continue
        k = _int_root_floor(n // spec.i, spec.j)
        if k >= 1 and spec.i * k**spec.j == n and spec.set.contains(k):
            total += w * spec.coeff(k)
    return total


def brute_gap_runs(form, range_start: int, range_end: int) -> list[tuple[int, int]]:
    """Maximal zero runs (start, length) in the range, position by position."""
    runs = []
    run_start = None
    for n in range(range_start, range_end + 1):
        if brute_coefficient(form, n) == 0:
            if run_start is None:
                run_start = n
        elif run_start is not None:
            runs.append((run_start, n - run_start))
            run_start = None
    if run_start is not None:
        runs.append((run_start, range_end - run_start + 1))
    return runs


def brute_window_clear(form, center: int, radius: int) -> bool:
    """Whether center +- u carries a zero for u = 1..radius-1, nearest first."""
    for u in range(1, radius):
        if brute_coefficient(form, center - u) or brute_coefficient(form, center + u):
            return False
    return True


def brute_exclusions(q: int, i0: int, j0: int, window: int,
                     family) -> list[tuple[int, str, int, int, int]]:
    """(u, side, i, j, k) with i0*q**j0 -+ u == i*k**j, ordered by u, side, family.

    Raises ValueError when the window reaches below position 1 and the family
    is not empty.
    """
    center = i0 * q**j0
    out = []
    for u in range(1, window):
        for side, n in (("-", center - u), ("+", center + u)):
            for i, j in family:
                if n < 1:
                    raise ValueError(f"position {n} is not positive")
                k = _int_root_floor(n // i, j)
                if n % i == 0 and k >= 1 and i * k**j == n:
                    out.append((u, side, i, j, k))
    return out


def _round_frac(fr: Fraction) -> int:
    # floor(fr + 1/2); exact, sign-safe
    return (2 * fr.numerator + fr.denominator) // (2 * fr.denominator)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def brute_lll(rows, delta: Fraction = Fraction(99, 100)) -> list[list[int]]:
    """LLL reduction of an integer basis, all arithmetic exact `Fraction`s.

    Gram-Schmidt data is kept as rationals and patched incrementally through
    size reductions and swaps; rows must be linearly independent.
    """
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    basis = [[int(x) for x in row] for row in rows]
    n = len(basis)
    if n <= 1:
        return basis

    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n

    def refresh_row(k: int) -> None:
        for j in range(k):
            s = Fraction(_dot(basis[k], basis[j]))
            for l in range(j):
                s -= mu[j][l] * mu[k][l] * B[l]
            mu[k][j] = s / B[j]
        bk = Fraction(_dot(basis[k], basis[k]))
        for l in range(k):
            bk -= mu[k][l] ** 2 * B[l]
        if bk <= 0:
            raise ValueError("basis rows are linearly dependent")
        B[k] = bk

    for k in range(n):
        refresh_row(k)

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _round_frac(mu[k][j])
            if q:
                basis[k] = [a - q * c for a, c in zip(basis[k], basis[j])]
                for l in range(j):
                    mu[k][l] -= q * mu[j][l]
                mu[k][j] -= q
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            m = mu[k][k - 1]
            combined = B[k] + m * m * B[k - 1]
            mu[k][k - 1] = m * B[k - 1] / combined
            B[k] = B[k - 1] * B[k] / combined
            B[k - 1] = combined
            for l in range(k - 1):
                mu[k - 1][l], mu[k][l] = mu[k][l], mu[k - 1][l]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return basis


def ref_lll(rows, delta: Fraction = Fraction(99, 100)) -> list[list[int]]:
    """Integral LLL as the package ran it before each swap divided by one
    Gram determinant, kept as a reference: the Lovasz test multiplies out
    d[k]**2 and a swap forms its products again, a row's new lam[i][k-1] is
    divided by d[k+1] after its new lam[i][k], and every size-reduction
    quotient is divided out. Same branches, same reduced basis; rows must be
    linearly independent."""
    p, q = delta.as_integer_ratio()
    if not q < 4 * p < 4 * q:
        raise ValueError("delta must lie in (1/4, 1)")
    basis = [[int(x) for x in row] for row in rows]
    n = len(basis)
    if n <= 1:
        return basis

    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_row(k: int) -> None:
        for j in range(k + 1):
            u = _dot(basis[k], basis[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]  # the diagonal slot is scratch
        if d[k + 1] <= 0:
            raise ValueError("basis rows are linearly dependent")

    gram_row(0)
    k, top = 1, 0
    while k < n:
        if k > top:
            top = k
            gram_row(k)
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            r = (2 * lk[j] + d[j + 1]) // (2 * d[j + 1])
            if r:
                basis[k] = [a - r * c for a, c in zip(basis[k], basis[j])]
                for l in range(j):
                    lk[l] -= r * lam[j][l]
                lk[j] -= r * d[j + 1]
        m = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] ** 2 - q * m * m:
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            for l in range(k - 1):
                lam[k - 1][l], lk[l] = lk[l], lam[k - 1][l]
            new_d = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, top + 1):
                li = lam[i]
                t = li[k]
                li[k] = (d[k + 1] * li[k - 1] - m * t) // d[k]
                li[k - 1] = (new_d * t + m * li[k]) // d[k + 1]
            d[k] = new_d
            k = max(k - 1, 1)
    return basis


# ---------------------------------------------------------------- reference
# is_prime and factor as they stood before primality was sized to its input:
# 18 trial divisions then all 12 Miller-Rabin bases (and 64 derandomized
# rounds from 2**64), and a factor that re-tests every cofactor. Verbatim,
# except that factor returns the sorted (prime, exponent) tuple, its own
# names stand in for the package's, and a square is found with math.isqrt.

PRIMALITY_EXACT_BOUND = 2**64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_MR_ROUNDS = 64  # error < 4**-64 = 2**-128 above the exact bound
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_TRIAL_LIMIT = 10**4

DEFAULT_FACTOR_BUDGET = 2_000_000


class RefBudgetExceeded(Exception):
    """The reference factor ran out of steps."""


def ref_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def is_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_BASES:
        if is_composite(a):
            return False
    if n >= PRIMALITY_EXACT_BOUND:
        # Derandomized extra rounds: bases drawn from an n-seeded stream.
        rng = random.Random(n)
        for _ in range(_EXTRA_MR_ROUNDS):
            if is_composite(rng.randrange(2, n - 1)):
                return False
    return True


_TRIAL_PRIMES: list[int] | None = None


def _ref_brent_rho(n: int, steps_left: list[int]) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps_left[0] -= min(m, r - k)
                if steps_left[0] < 0:
                    raise RefBudgetExceeded(f"factoring budget exhausted on {n}")
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps_left[0] -= 1
                if steps_left[0] < 0:
                    raise RefBudgetExceeded(f"factoring budget exhausted on {n}")
        if g != n:
            return g
    raise RefBudgetExceeded(f"rho cycle search failed on {n}")


def ref_factor(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> tuple[tuple[int, int], ...]:
    if n < 1:
        raise ValueError("factor requires n >= 1")
    global _TRIAL_PRIMES
    if _TRIAL_PRIMES is None:
        _TRIAL_PRIMES = sieve_primes(_TRIAL_LIMIT)

    value = n
    found: dict[int, int] = {}
    steps = [budget]
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        steps[0] -= 1
        if steps[0] < 0:
            raise RefBudgetExceeded(f"factoring budget exhausted on {value}")
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p

    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if ref_is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _ref_brent_rho(m, steps)
        stack.extend((d, m // d))

    return tuple(sorted(found.items()))


def brute_witnesses(k: int, u: int, v: int, count: int, p_min: int = 2, exclude=(),
                    scan_limit: int = 200_000) -> list[tuple[int, int]]:
    """The (p, x) of forge.find_witnesses by its earlier scan: factor every
    u*m**k + v for m = 1, 2, ..., and lift each new prime above the floor.

    Raises RefBudgetExceeded with find_witnesses' message when the scan runs out.
    """
    floor = max(p_min, k, u, abs(v))
    used = set(exclude)
    out = []
    for m in range(1, scan_limit + 1):
        g_m = u * m**k + v
        if g_m == 0:
            continue
        for p, _ in ref_factor(abs(g_m)):
            if p <= floor or p in used:
                continue
            # Hensel: x = m + p*y with u*x**k + v = p (mod p**2).
            x = m % p
            slope = k * u * pow(x, k - 1, p) % p
            y = (1 - (u * x**k + v) // p) * pow(slope, -1, p) % p
            out.append((p, p * y + x))
            used.add(p)
            if len(out) == count:
                return out
    raise RefBudgetExceeded(
        f"{count} witnesses for ({k}, {u}, {v}) not found scanning m <= {scan_limit}")
