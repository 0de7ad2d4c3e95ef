"""Exact integer utilities: primality, factorization, integer roots, CRT,
and the Pell equation x**2 - D*y**2 = 1.

Everything here is pure and deterministic; all other modules build on it,
and their value classes derive from ``Record``.
"""

from __future__ import annotations

import _thread
import bisect
import functools
import math
import os
import random
from collections.abc import Iterator

# Below this bound the Miller-Rabin base set is a proven deterministic test.
PRIMALITY_EXACT_BOUND = 2**64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_MR_ROUNDS = 64  # error < 4**-64 = 2**-128 above the exact bound
# (bound, k): Miller-Rabin over the first k bases is exact for n < bound,
# the least strong pseudoprime to those bases (OEIS A014233): k = 4 from
# Pomerance, Selfridge & Wagstaff (Math. Comp. 35, 1980), k = 5..7 from
# Jaeschke (Math. Comp. 61, 1993), k = 9 from Jiang & Deng (Math. Comp. 83,
# 2014). All 12 bases are exact below 318665857834031151167461 > 2**64
# (Sorenson & Webster, Math. Comp. 86, 2017). The bounds for k <= 3 lie below
# _SIEVED_BOUND, where no round is needed; k = 8, 10 and 11 share the bound
# of k = 7 or k = 9, so they add nothing.
_MR_PREFIXES = (
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)
_TRIAL_LIMIT = 10**4
# 10007 is the least prime above _TRIAL_LIMIT: an n below its square with no
# prime factor below _TRIAL_LIMIT is prime.
_SIEVED_BOUND = 10007**2
# From this size up, is_prime tests half of the rounds after base 2 in a
# forked child. On a 2-core Xeon with Python 3.11, a fork and its reaping
# cost 1-2 ms, and with both processes pinned the split won 0 of 30 pairs
# against the serial rounds at 128 bits, 21 at 192 bits (by a tenth) and 24
# at 256 bits (by a fifth, 17 -> 13 ms). The cost of a fork grows with the
# parent's memory, so the bound stays above the break-even.
_SPLIT_BITS = 256
_SIGKILL = 9  # fixed by POSIX; naming it spares the CLI's start an import of signal
# The exit statuses by which the forked child reports its half of the rounds.
_PRIME_STATUS, _COMPOSITE_STATUS = 100, 101

DEFAULT_FACTOR_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """A step or attempt budget ran out: here in factoring, elsewhere in a search."""


class SquareD(ValueError):
    """The Pell parameter D is a perfect square, so x**2 - D*y**2 = 1 is trivial."""


def check_cap(name: str, value: int, cap: int) -> None:
    """Raise BudgetExceeded, naming the input, when value is above cap."""
    if value > cap:
        raise BudgetExceeded(f"{name} = {value} is above the cap of {cap}")


class Record:
    """Base of the package's immutable value classes, in place of a frozen dataclass.

    A subclass's own annotations are its fields, in order, and its class
    attributes their defaults. Each subclass gets one compiled ``__init__``
    that takes the fields as a plain function would, sets them, and then
    calls ``__post_init__`` if the class has one; a field it normalizes is
    set with ``object.__setattr__``. Equality, hashing, repr and the JSON
    form go by the field values, and assignment or deletion raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        params = "".join(f", {n}=__defaults[{n!r}]" if n in defaults else f", {n}"
                         for n in names)
        body = [f"__set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"__set": object.__setattr__, "__defaults": defaults}
        exec(f"def __init__(self{params}):\n    " + "\n    ".join(body or ["pass"]), namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> dict:
        """The fields by name: a tuple becomes a list, and a value with its own
        ``to_json`` gives that. A report value overrides only what differs."""
        return {n: _json(getattr(self, n)) for n in self._fields}


def _json(value):
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def is_prime(n: int) -> bool:
    """Primality test, exact below 2**64 and probabilistic beyond.

    The work grows with n: a table lookup up to 10**4, one gcd with the
    product of the primes below 10**4, and only then Miller-Rabin, over the
    shortest base prefix proven exact below n. Above ``PRIMALITY_EXACT_BOUND``
    all 12 bases and 64 derandomized rounds run, so the result is "probable
    prime" with error probability below 2**-128; callers that surface
    results should report :func:`primality_certainty` alongside. From
    ``_SPLIT_BITS`` bits, a single-threaded process that may run on two or
    more CPUs tests half of the rounds after base 2 in a forked child; the
    bases, and so the verdict, are the same.
    """
    _, prime_set, primorial = _trial_table()
    if n <= _TRIAL_LIMIT:
        return n in prime_set
    if math.gcd(n, primorial) != 1:
        return False
    if n < _SIEVED_BOUND:
        return True

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witness = functools.partial(_is_witness, n, d, r)

    if n < PRIMALITY_EXACT_BOUND:
        count = next((k for bound, k in _MR_PREFIXES if n < bound), len(_MR_BASES))
        return not any(map(witness, _MR_BASES[:count]))
    # Base 2 alone rejects almost every composite, so it runs before any fork.
    if witness(2):
        return False
    # Derandomized extra rounds: bases drawn from an n-seeded stream.
    rng = random.Random(n)
    bases = _MR_BASES[1:] + tuple(rng.randrange(2, n - 1) for _ in range(_EXTRA_MR_ROUNDS))
    if n.bit_length() >= _SPLIT_BITS and len(cpus := _fork_cpus()) >= 2:
        return _split_rounds(witness, bases, cpus)
    return not any(map(witness, bases))


def _is_witness(n: int, d: int, r: int, a: int) -> bool:
    """Whether base a proves odd n = d * 2**r + 1 composite (one Miller-Rabin round)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _fork_cpus() -> set[int]:
    """The CPUs this process may run on, or none where forking is unavailable
    (no os.fork or os.sched_getaffinity) or unsafe: another thread runs, as
    ``_thread._count()`` counts every thread but the main one."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or _thread._count():
        return set()
    return os.sched_getaffinity(0)


def _split_rounds(witness, bases: tuple[int, ...], cpus: set[int]) -> bool:
    """``not any(map(witness, bases))``, with the second half of the bases
    tested by a forked child.

    The process keeps min(cpus) and the child runs on the rest, both pinned
    until the child is reaped: left to the scheduler, a fresh child can share
    its parent's CPU for tens of milliseconds. The child leaves by os._exit,
    which runs no atexit handler and flushes no stdio buffer it shares with
    the parent, with _PRIME_STATUS or _COMPOSITE_STATUS as its verdict. If the
    parent's own half finds a witness, it kills the child. It reaps the child
    and restores its CPU set in every case, and tests the child's half itself
    when the child ends any other way (an exception, a signal, status 0). If
    fork or pinning fails, all the rounds run here.
    """
    half = len(bases) // 2
    home = min(cpus)
    try:
        try:
            os.sched_setaffinity(0, {home})
            pid = os.fork()
        except OSError:
            return not any(map(witness, bases))
        if pid == 0:
            status = 1
            try:
                os.sched_setaffinity(0, cpus - {home})
                status = _COMPOSITE_STATUS if any(map(witness, bases[half:])) else _PRIME_STATUS
            finally:
                os._exit(status)
        status = None
        try:
            if any(map(witness, bases[:half])):
                return False
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        finally:
            if status is None:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
    finally:
        os.sched_setaffinity(0, cpus)
    if status in (_PRIME_STATUS, _COMPOSITE_STATUS):
        return status == _PRIME_STATUS
    return not any(map(witness, bases[half:]))


def primality_certainty(n: int) -> str:
    """"exact" when the primality verdict for n is deterministic, else "probable"."""
    return "exact" if n < PRIMALITY_EXACT_BOUND else "probable"


class Factorization(Record):
    """Complete prime factorization: value == prod(p**e for p, e in factors)."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError("factorization target must be >= 1")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be positive")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prod *= p**e
            prev = p
        if prod != self.value:
            raise ValueError("factors do not multiply back to the value")

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def prime_sieve(limit: int) -> list[int]:
    """The primes up to limit, ascending (sieve of Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


@functools.cache
def _trial_table() -> tuple[tuple[int, ...], frozenset[int], int]:
    """The primes below _TRIAL_LIMIT: ascending, as a set, and their product."""
    primes = tuple(prime_sieve(_TRIAL_LIMIT))
    return primes, frozenset(primes), math.prod(primes)


def trial_product(limit: int) -> int:
    """The product of the trial primes (those below 10**4) up to limit."""
    return _trial_prefix_product(bisect.bisect_right(_trial_table()[0], limit))


@functools.cache
def _trial_prefix_product(count: int) -> int:
    """The product of the first count trial primes; at most 1230 are cached."""
    return math.prod(_trial_table()[0][:count])


def _brent_rho(n: int, steps_left: list[int]) -> int:
    """Find a nontrivial factor of composite odd n, charging the step budget."""
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
                    raise BudgetExceeded(f"factoring budget exhausted on {n}")
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
                    raise BudgetExceeded(f"factoring budget exhausted on {n}")
        if g != n:
            return g
    raise BudgetExceeded(f"rho cycle search failed on {n}")


def factor(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> Factorization:
    """Complete prime factorization of n >= 1 within a step budget.

    Trial division by the primes below 10**4 first, then Brent's rho for the
    surviving cofactors; raises BudgetExceeded if the budget runs out.
    """
    if n < 1:
        raise ValueError("factor requires n >= 1")

    value = n
    found: dict[int, int] = {}
    steps = [budget]
    for p in _trial_table()[0]:
        if p * p > n:
            # No prime below p divides n, and n < p*p: n is 1 or a prime.
            if n > 1:
                found[n] = 1
                n = 1
            break
        steps[0] -= 1
        if steps[0] < 0:
            raise BudgetExceeded(f"factoring budget exhausted on {value}")
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p

    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root, exact = int_nth_root(m, 2)
        if exact:
            stack.extend((root, root))
            continue
        d = _brent_rho(m, steps)
        stack.extend((d, m // d))

    return Factorization(value, tuple(sorted(found.items())))


def int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """(floor(n**(1/k)), whether the root is exact), for n >= 0, k >= 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 or n < 2:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    if n.bit_length() <= k:
        return 1, n == 1
    # Integer Newton from r > s = floor(n**(1/k)) stops exactly at s. Each
    # step is floor(((k-1)*r + n/r**(k-1)) / k), at least s by AM-GM; while
    # r > s, r**k > n, so the step is below r. The first step not below r
    # is therefore taken at r = s.
    r = 1 << ((n.bit_length() + k - 1) // k)
    while (nr := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = nr
    return r, r**k == n


def is_exponent_image(n: int, i: int, j: int, s) -> int | None:
    """The unique k with n == i * k**j and k in s, or None.

    ``s`` is any object with a ``contains(k)`` method (an ExponentSet).
    Uniqueness holds because j >= 2 and k >= 1; no enumeration happens, so n
    may be very large. This is ``exponent_images`` on the window [n, n].
    """
    hits = exponent_images(n, n, i, j, s)
    return hits[0][1] if hits else None


def exponent_range(lo: int, hi: int, i: int, j: int) -> range:
    """The k >= 1 with lo <= i * k**j <= hi, found by two root extractions.

    Empty when the window holds no image, including when hi < lo; stop is
    never below start, so stop - start counts the k even past sys.maxsize.
    """
    if lo < 1 or i < 1:
        raise ValueError("n and i must be positive")
    if j < 2:
        raise ValueError("j must be >= 2")
    if hi < lo:
        return range(0)
    root, exact = int_nth_root(-(-lo // i), j)  # ceil(lo / i)
    k_lo = root if exact else root + 1
    k_hi = int_nth_root(hi // i, j)[0]
    return range(k_lo, max(k_lo, k_hi + 1))


def exponent_images(lo: int, hi: int, i: int, j: int, s) -> list[tuple[int, int]]:
    """The ascending (n, k) with lo <= n = i * k**j <= hi and k in s.

    Only the candidates k from ``exponent_range`` are tested for membership,
    so the cost grows with about ((hi - lo) / i)**(1/j), not with the window
    width.
    """
    return [(i * k**j, k) for k in exponent_range(lo, hi, i, j) if s.contains(k)]


def crt_solve(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) simultaneously; moduli need not be coprime.

    Returns (x, alpha) with 0 <= x < alpha and alpha = lcm of the moduli;
    every integer solution is x + alpha*Z. Raises ValueError when two
    congruences conflict on a shared factor.
    """
    if not congruences:
        raise ValueError("need at least one congruence")
    x, m = 0, 1
    for r, mod in congruences:
        if mod < 1:
            raise ValueError("moduli must be >= 1")
        g = math.gcd(m, mod)
        if (r - x) % g:
            raise ValueError(
                f"x = {x} (mod {m}) conflicts with x = {r} (mod {mod})"
            )
        lcm = m // g * mod
        if mod > g:
            t = ((r - x) // g * pow(m // g, -1, mod // g)) % (mod // g)
            x += m * t
        x %= lcm
        m = lcm
    return x, m


class PellSolution(Record):
    D: int
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x * self.x - self.D * self.y * self.y != 1:
            raise ValueError(f"({self.x}, {self.y}) does not solve x^2 - {self.D} y^2 = 1")


def require_nonsquare(D: int) -> None:
    """Raise ValueError unless D >= 1, and SquareD when D is a perfect square."""
    if D < 1:
        raise ValueError("D must be positive")
    if int_nth_root(D, 2)[1]:
        raise SquareD(f"{D} is a perfect square")


def pell_fundamental(D: int, y_max: int | None = None) -> PellSolution | None:
    """Least positive solution of x**2 - D*y**2 = 1 via the continued fraction of sqrt(D).

    Given y_max, None when the solution's y exceeds it: its y is a convergent
    denominator, and those never decrease, so the walk stops past y_max.
    """
    require_nonsquare(D)
    a0 = math.isqrt(D)
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while y_max is None or k <= y_max:
        if h * h - D * k * k == 1:
            return PellSolution(D, h, k)
        m = den * a - m
        den = (D - m * m) // den
        a = (a0 + m) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return None


def pell_iter(D: int, y_max: int | None = None) -> Iterator[PellSolution]:
    """All positive solutions in increasing x, generated from the fundamental
    one; given y_max, those with y <= y_max."""
    fund = pell_fundamental(D, y_max)
    if fund is None:
        return
    x, y = fund.x, fund.y
    while y_max is None or y <= y_max:
        yield PellSolution(D, x, y)
        x, y = x * fund.x + D * y * fund.y, x * fund.y + y * fund.x
