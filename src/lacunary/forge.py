"""Constructive congruence machinery behind the long zero runs.

The pipeline: lift roots of u*X**k + v modulo p to prescribed residues
modulo p**2 (Hensel), combine one such witness per window offset into a CRT
system, search the resulting progression for a prime q, and verify that the
window around i0 * q**j0 is free of competing perfect-power positions.
"""

from __future__ import annotations

import math

from .arith import (BudgetExceeded, Record, check_cap, crt_solve, exponent_range, factor, is_prime,
                    primality_certainty, trial_product)

DEFAULT_SCAN_LIMIT = 200_000
DEFAULT_PRIME_BUDGET = 100_000
# Largest window radius N build_congruence_system takes; past it, BudgetExceeded.
# The witness search, the CRT modulus and the prime search all grow with N.
MAX_WINDOW = 80
# Largest j0 build_congruence_system takes; past it, BudgetExceeded. The
# scanned values u*m**j0 + v, the witness primes, the CRT modulus and the
# center i0*q**j0 all grow with j0.
MAX_J0 = 10


class PrimeWitness(Record):
    """A prime p and residue x with u * x**k + v = p (mod p**2).

    That congruence forces p to divide u*x**k + v exactly once, which is the
    property the window construction needs.
    """

    k: int
    u: int
    v: int
    p: int
    x: int

    def __post_init__(self) -> None:
        if self.p <= max(self.k, self.u, abs(self.v)):
            raise ValueError("witness prime must exceed max(k, u, |v|)")
        if not self.verifies():
            raise ValueError("witness fails u*x**k + v = p (mod p**2)")

    def verifies(self) -> bool:
        psq = self.p * self.p
        return (self.u * pow(self.x, self.k, psq) + self.v - self.p) % psq == 0


def hensel_step(k: int, u: int, v: int, p: int, x: int) -> int:
    """Lift a root of u*X**k + v (mod p) to X with u*X**k + v = p (mod p**2).

    Solves g'(x)*y - 1 + g(x)/p = 0 (mod p) and returns X = p*y + x in
    [0, p**2). Requires p prime with p > max(k, u, |v|) and g(x) = 0 (mod p).
    """
    if p <= max(k, u, abs(v)):
        raise ValueError("need p > max(k, u, |v|)")
    x %= p
    g_x = u * x**k + v
    if g_x % p:
        raise ValueError(f"{x} is not a root of u*X^{k}+({v}) modulo {p}")
    g_prime = k * u * pow(x, k - 1, p) % p
    if v == 0 or g_prime == 0:
        raise ValueError(f"derivative vanishes mod {p} (v={v})")
    y = (1 - g_x // p) * pow(g_prime, -1, p) % p
    return p * y + x


def find_witnesses(k: int, u: int, v: int, count: int, p_min: int = 2,
                   exclude=(), scan_limit: int = DEFAULT_SCAN_LIMIT) -> list[PrimeWitness]:
    """Collect `count` witnesses with distinct primes p > max(p_min, k, u, |v|).

    Scans m = 1, 2, ... harvesting the new eligible prime divisors of
    u*m**k + v in increasing order, then lifts each root; reproducible by
    construction. Gcds with the product of the trial primes up to the floor
    first strip the primes that can never count, and only a cofactor above
    the floor is factored. Raises BudgetExceeded when the scan budget runs
    out.
    """
    if k < 2 or u < 1 or count < 1:
        raise ValueError("need k >= 2, u >= 1, count >= 1")
    if v == 0:
        raise ValueError("v must be nonzero")
    floor = max(p_min, k, u, abs(v))
    small = trial_product(floor)
    used = set(exclude)
    out: list[PrimeWitness] = []
    for m in range(1, scan_limit + 1):
        rest = abs(u * m**k + v)
        if rest == 0:
            continue
        g = math.gcd(rest, small)
        while g > 1:
            rest //= g
            g = math.gcd(rest, g)
        if rest <= floor:  # every prime factor left is at most the floor
            continue
        for p, _ in factor(rest).factors:
            if p <= floor or p in used:
                continue
            lifted = hensel_step(k, u, v, p, m % p)
            out.append(PrimeWitness(k, u, v, p, lifted))
            used.add(p)
            if len(out) == count:
                return out
    raise BudgetExceeded(
        f"{count} witnesses for ({k}, {u}, {v}) not found scanning m <= {scan_limit}"
    )


class CongruenceSystem(Record):
    """The combined CRT system for a target (i0, j0) and window radius N.

    One witness per offset l in 1..2N-1, l != N, pins X = x_l (mod p_l**2)
    where u*x_l**j0 + (l - N) = p_l (mod p_l**2); the base congruence pins
    X = h (mod d). ``solution`` is the least nonnegative CRT solution and
    ``modulus`` the combined modulus d * prod(p_l**2).
    """

    i0: int
    j0: int
    window: int
    d: int
    h: int
    witnesses: tuple[tuple[int, PrimeWitness], ...]
    modulus: int
    solution: int

    def to_json(self) -> dict:
        witnesses = [{"offset": l, **w.to_json()} for l, w in self.witnesses]
        return {**super().to_json(), "witnesses": witnesses}


def build_congruence_system(i0: int, j0: int, window: int, d: int = 1, h: int = 1,
                            p_min: int = 2,
                            scan_limit: int = DEFAULT_SCAN_LIMIT) -> CongruenceSystem:
    """Assemble the 2N-1 congruence system for one target pair.

    Witness primes are pairwise distinct, coprime to d, and exceed the window
    radius, which is what makes the combined modulus and solution coprime.
    window == 1 degenerates to the base congruence alone. Raises
    BudgetExceeded, before any search, when window is above MAX_WINDOW or j0
    above MAX_J0.
    """
    if i0 < 1 or j0 < 2:
        raise ValueError("need i0 >= 1 and j0 >= 2")
    if window < 1:
        raise ValueError("window must be >= 1")
    if d < 1 or h < 1 or math.gcd(d, h) != 1:
        raise ValueError("need positive d, h with gcd(d, h) = 1")
    check_cap("N", window, MAX_WINDOW)
    check_cap("j0", j0, MAX_J0)

    floor = max(p_min, window)
    used = {p for p, _ in factor(d).factors}
    witnesses: list[tuple[int, PrimeWitness]] = []
    for offset in range(1, 2 * window):
        if offset == window:
            continue
        w = find_witnesses(j0, i0, offset - window, 1, p_min=floor,
                           exclude=used, scan_limit=scan_limit)[0]
        used.add(w.p)
        witnesses.append((offset, w))

    congruences = [(h, d)] + [(w.x, w.p * w.p) for _, w in witnesses]
    solution, modulus = crt_solve(congruences)
    if math.gcd(modulus, solution) != 1:
        raise ValueError("combined modulus and solution are not coprime")
    return CongruenceSystem(i0, j0, window, d, h, tuple(witnesses), modulus, solution)


def find_prime(system: CongruenceSystem, attempt_budget: int = DEFAULT_PRIME_BUDGET,
               require_large: bool = True, n0_start: int = 0) -> int:
    """Least prime q = modulus * n0 + solution with n0 >= n0_start.

    ``require_large`` additionally demands q > modulus, standing in for the
    "large enough" primes the construction wants; disable it to accept the
    very first prime in the progression.
    """
    alpha, x = system.modulus, system.solution
    if math.gcd(alpha, x) != 1:
        raise ValueError("progression has gcd(modulus, solution) != 1; no primes in it")
    for n0 in range(n0_start, n0_start + attempt_budget):
        q = alpha * n0 + x
        if require_large and q <= alpha:
            continue
        if q >= 2 and is_prime(q):
            return q
    raise BudgetExceeded(
        f"no prime q = {alpha}*n + {x} within {attempt_budget} attempts from n0={n0_start}"
    )


class ExclusionViolation(Record):
    offset: int          # u, the distance from the center
    side: str            # "-" for center - u, "+" for center + u
    i: int
    j: int
    k: int               # the colliding i * k**j


class ExclusionReport(Record):
    center: int
    window: int
    family: tuple[tuple[int, int], ...]
    violations: tuple[ExclusionViolation, ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**super().to_json(), "holds": self.holds}


def verify_exclusions(q: int, i0: int, j0: int, window: int,
                      family) -> ExclusionReport:
    """Check i0*q**j0 +- u != i*k**j for u = 1..window-1 and all family pairs.

    k ranges over all positive integers; per pair, two root extractions bound
    the k whose images fall in the window, so q may be large. An empty
    violation list means the window around i0 * q**j0 is clear. Violations
    are ordered by u, then side ("-" first), then family order.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    center = i0 * q**j0
    fam = tuple((int(i), int(j)) for i, j in family)
    found = []
    if window > 1:  # the empty window holds for any family, valid or not
        for rank, (i, j) in enumerate(fam):
            for k in exponent_range(center - window + 1, center + window - 1, i, j):
                n = i * k**j
                u = abs(n - center)
                if u:
                    side = "+" if n > center else "-"
                    found.append((u, side == "+", rank, ExclusionViolation(u, side, i, j, k)))
    found.sort(key=lambda v: v[:3])
    return ExclusionReport(center, window, fam, tuple(v[-1] for v in found))


class ForgeCertificate(Record):
    """Everything a third party needs to re-verify one forged prime."""

    system: CongruenceSystem
    q: int
    report: ExclusionReport
    retries: int

    def to_json(self) -> dict:
        obj = super().to_json()
        obj["exclusions"] = obj.pop("report")
        return {**obj, "q_primality": primality_certainty(self.q)}


def build_certificate(i0: int, j0: int, window: int, family, d: int = 1, h: int = 1,
                      p_min: int = 2, scan_limit: int = DEFAULT_SCAN_LIMIT,
                      attempt_budget: int = DEFAULT_PRIME_BUDGET,
                      max_retries: int = 32,
                      require_large: bool = True) -> ForgeCertificate:
    """Run the full pipeline, retrying with later primes until exclusions hold.

    The abstract construction only promises exclusions for large enough q, so
    a candidate failing the explicit check is discarded and the next prime in
    the progression is tried.
    """
    system = build_congruence_system(i0, j0, window, d, h, p_min, scan_limit)
    n0_start = 0
    for attempt in range(max_retries):
        q = find_prime(system, attempt_budget, require_large, n0_start)
        report = verify_exclusions(q, i0, j0, window, family)
        if report.holds:
            return ForgeCertificate(system, q, report, attempt)
        n0_start = (q - system.solution) // system.modulus + 1
    raise BudgetExceeded(
        f"no prime with a clear window found in {max_retries} attempts"
    )
