"""When can two gap-power series collide?  Decision procedure and certificates.

Two pairs (i1, j1), (i2, j2) collide when i1*u**j1 == i2*v**j2 has a positive
solution; families are safe only if no pair collides and at most one pair has
square exponent. Both failure modes come with explicit, numerically verified
dependence certificates: scaled geometric index sets for collisions, Pell
equation solution sets for two square exponents.
"""

from __future__ import annotations

import math
from fractions import Fraction

# The Pell core lives in arith, below both this module and sets; SquareD,
# pell_fundamental and pell_iter stay importable from here for existing callers.
from .arith import (BudgetExceeded, Record, SquareD,  # noqa: F401
                    exponent_range, factor, int_nth_root, pell_fundamental, pell_iter)
from .series import MAX_DIGITS, CoeffFn, LinearFormSpec, SeriesSpec, eval_linear_form, fraction_sci
from .sets import ExponentSet, geometric, pell_x, pell_y


# Largest x_max enumerate_equation_solutions scans (each x costs two root
# extractions) and most candidates y it examines over all x; past either it
# raises BudgetExceeded.
MAX_X = 10**6
MAX_CANDIDATES = 10**6


class NotApplicable(Exception):
    """Neither certificate construction applies to the given pair."""


class FamilyIndex(Record):
    """A finite set of distinct exponent pairs (i, j >= 2)."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for i, j in self.pairs:
            if i < 1 or j < 2:
                raise ValueError(f"invalid pair ({i}, {j}): need i >= 1, j >= 2")
            if (i, j) in seen:
                raise ValueError(f"duplicate pair ({i}, {j})")
            seen.add((i, j))

    @classmethod
    def of(cls, pairs) -> "FamilyIndex":
        return cls(tuple((int(i), int(j)) for i, j in pairs))


class PowerCollision(Record):
    """Witness that i1*u**j1 == i2*v**j2 for positive integers u, v."""

    pair1: tuple[int, int]
    pair2: tuple[int, int]
    u: int
    v: int

    def __post_init__(self) -> None:
        (i1, j1), (i2, j2) = self.pair1, self.pair2
        if i1 * self.u**j1 != i2 * self.v**j2:
            raise ValueError("collision witness does not verify")


def collision_witness(pair1: tuple[int, int], pair2: tuple[int, int]) -> tuple[int, int] | None:
    """Minimal (u, v) with i1*u**j1 == i2*v**j2, or None when no solution exists.

    Per prime p the exponent equation ord_p(i1) + j1*s = ord_p(i2) + j2*t must
    have a nonnegative solution, which happens exactly when gcd(j1, j2)
    divides the ordinate difference; u is minimized prime by prime (which
    also pins v). Validated against brute force in the test suite before
    being trusted anywhere.
    """
    (i1, j1), (i2, j2) = pair1, pair2
    f1, f2 = factor(i1), factor(i2)
    primes = sorted({p for p, _ in f1.factors} | {p for p, _ in f2.factors})
    g = math.gcd(j1, j2)
    u = v = 1
    for p in primes:
        a, b = f1.exponent_of(p), f2.exponent_of(p)
        if (b - a) % g:
            return None
        s = 0
        while (a - b + j1 * s) % j2 or a - b + j1 * s < 0:
            s += 1
        t = (a - b + j1 * s) // j2
        u *= p**s
        v *= p**t
    return u, v


def find_power_collisions(family: FamilyIndex) -> list[PowerCollision]:
    """All colliding unordered pairs in the family, with minimal witnesses."""
    out = []
    pairs = family.pairs
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            w = collision_witness(pairs[a], pairs[b])
            if w is not None:
                out.append(PowerCollision(pairs[a], pairs[b], *w))
    return out


def square_exponent_pairs(family: FamilyIndex) -> list[tuple[int, int]]:
    """The pairs with exponent j == 2; two or more of them break independence."""
    return [p for p in family.pairs if p[1] == 2]


class ConditionsReport(Record):
    collisions: tuple[PowerCollision, ...]
    square_pairs: tuple[tuple[int, int], ...]

    @property
    def satisfied(self) -> bool:
        return not self.collisions and len(self.square_pairs) <= 1

    def to_json(self) -> dict:
        return {
            "collision_free": not self.collisions,
            "collisions": [
                {"pair1": list(c.pair1), "pair2": list(c.pair2), "u": c.u, "v": c.v}
                for c in self.collisions
            ],
            "square_exponent_pairs": [list(p) for p in self.square_pairs],
            "at_most_one_square": len(self.square_pairs) <= 1,
            "satisfied": self.satisfied,
        }


def independence_conditions(family: FamilyIndex) -> ConditionsReport:
    """Evaluate both family-level conditions in one report."""
    return ConditionsReport(
        tuple(find_power_collisions(family)),
        tuple(square_exponent_pairs(family)),
    )


class DependencyCertificate(Record):
    """An explicit rational dependence among 1 and two series values.

    ``weights`` = (w0, w1, w2) asserts
    w0 + w1 * sum over set1 of b**-(i1*n**j1) + w2 * sum over set2 of
    b**-(i2*n**j2) == 0, verified numerically to within the stated
    truncation error at ``precision`` base-b digits.
    """

    kind: str                      # "scaled_sets" or "pell"
    pair1: tuple[int, int]
    pair2: tuple[int, int]
    set1: ExponentSet
    set2: ExponentSet
    weights: tuple[int, int, int]
    base: int
    precision: int
    residual: Fraction
    error_bound: Fraction

    @property
    def verified(self) -> bool:
        return self.residual <= self.error_bound

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "pair1": list(self.pair1), "pair2": list(self.pair2),
            "set1": self.set1.to_json(), "set2": self.set2.to_json(),
            "weights": list(self.weights),
            "base": self.base, "precision": self.precision,
            "residual": fraction_sci(self.residual),
            "error_bound": fraction_sci(self.error_bound),
            "verified": self.verified,
        }


def build_counterexample(pair1: tuple[int, int], pair2: tuple[int, int],
                         b: int, precision: int = 200) -> DependencyCertificate:
    """Construct and verify a dependence certificate for a failing pair.

    A power collision i1*u**j1 == i2*v**j2 yields the scaled geometric sets
    T1 = {u*2**(j2*m)}, T2 = {v*2**(j1*m)}, whose series agree term by term.
    Two square exponents with i1*i2 nonsquare yield the Pell sets
    T1 = {x}, T2 = {i1*y} over x**2 - i1*i2*y**2 = 1, where
    i1*x**2 - i2*(i1*y)**2 = i1 shifts one series onto the other.
    """
    pair1 = (int(pair1[0]), int(pair1[1]))
    pair2 = (int(pair2[0]), int(pair2[1]))
    if pair1 == pair2:
        raise ValueError("pairs must be distinct")
    (i1, j1), (i2, j2) = pair1, pair2

    witness = collision_witness(pair1, pair2)
    if witness is not None:
        u, v = witness
        set1 = geometric(u, j2)
        set2 = geometric(v, j1)
        weights = (0, 1, -1)
        kind = "scaled_sets"
    elif j1 == 2 and j2 == 2 and not int_nth_root(i1 * i2, 2)[1]:
        D = i1 * i2
        set1 = pell_x(D)
        set2 = pell_y(D, scale=i1)
        weights = (0, b**i1, -1)
        kind = "pell"
    else:
        raise NotApplicable(
            f"pair {pair1}, {pair2}: no collision and not two square exponents"
        )

    if precision > MAX_DIGITS:  # eval_linear_form's cap, under this function's name for it
        raise BudgetExceeded(f"precision = {precision} is above the cap of {MAX_DIGITS}")
    value = eval_linear_form(_pair_form(b, weights, (pair1, set1), (pair2, set2)), precision)
    return DependencyCertificate(kind, pair1, pair2, set1, set2, weights, b,
                                 precision, abs(value.to_fraction()),
                                 value.error_bound)


def _pair_form(b: int, weights: tuple[int, int, int], *terms) -> LinearFormSpec:
    """w0 + w1 * series1 + w2 * series2, each term a ((i, j), set) with coefficients 1."""
    return LinearFormSpec(b, weights[0], tuple(
        (w, SeriesSpec(i, j, s, CoeffFn.constant(1)))
        for w, ((i, j), s) in zip(weights[1:], terms)))


class EquationSolution(Record):
    """One solution of i0*x**j0 - i*y**j = +-u with everything positive."""

    x: int
    y: int
    u: int
    sign: str  # "+" when i0*x**j0 - i*y**j = +u, "-" for -u

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "u": self.u, "sign": self.sign}


def enumerate_equation_solutions(i0: int, j0: int, i: int, j: int,
                                 u_max: int, x_max: int) -> list[EquationSolution]:
    """All solutions with 1 <= x <= x_max, y >= 1, 1 <= u <= u_max.

    Only finitely many exist; the largest returned x is an empirical lower
    estimate of the true cutoff beyond which the window positions are clear.
    This is a bounded scan, never a finiteness proof. For each x, two root
    extractions bound the y with i*y**j within u_max of i0*x**j0. Solutions
    come by x, then u, then sign ("+" first). Raises BudgetExceeded when
    x_max is above MAX_X, or, during the scan, once the candidate y counted
    so far pass MAX_CANDIDATES.
    """
    if u_max < 1 or x_max < 1:
        raise ValueError("u_max and x_max must be >= 1")
    if x_max > MAX_X:
        raise BudgetExceeded(f"x_max = {x_max} is above the cap of {MAX_X}")
    out, candidates = [], 0
    for x in range(1, x_max + 1):
        lead = i0 * x**j0
        ys = exponent_range(max(1, lead - u_max), lead + u_max, i, j)
        candidates += ys.stop - ys.start
        if candidates > MAX_CANDIDATES:
            raise BudgetExceeded(f"u_max = {u_max} gives {candidates} candidates by x = {x}, "
                                 f"above the cap of {MAX_CANDIDATES}")
        near = sorted((abs(n - lead), n > lead, y) for y in ys if (n := i * y**j) != lead)
        out.extend(EquationSolution(x, y, u, "-" if above else "+") for u, above, y in near)
    return out
