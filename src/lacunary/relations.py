"""Empirical integer-relation detection over fixed-point constants.

The classic lattice: an identity block augmented with the values scaled to
b**precision and rounded. Reduction is integral LLL (de Weger, J. Number
Theory 26, 1987), exact and fully deterministic; a "no relation" outcome is
reported as an exclusion bound, never as an independence claim.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import Record
from .series import FixedPointValue

LOVASZ_DELTA = Fraction(99, 100)


class PrecisionTooLow(ValueError):
    """Input error bounds are too large for the requested search precision."""


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def lll_reduce(rows, delta: Fraction = LOVASZ_DELTA) -> list[list[int]]:
    """Integral LLL (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7): Gram determinants d[0..n] and lam[k][j] =
    d[j+1]*mu[k][j] are integers, every division is exact, and a row's data
    is computed when the scan first reaches it. Each branch matches
    exact-rational LLL with full size reduction, so the reduced basis is
    identical to it. Rows must be linearly independent.

    The Lovasz test divides once: swapped_d = (d[k-1]*d[k+1] + m*m) // d[k],
    with m = lam[k][k-1], is the d[k] that a swap would give (a Gram
    determinant, so the division is exact), and q*swapped_d >= p*d[k] is the
    Lovasz condition B[k] >= (delta - mu[k][k-1]**2) * B[k-1] multiplied
    out. A swap sets d[k] = swapped_d and updates each row i > k from its
    old values with the one divisor d[k]:
    lam[i][k] = (d[k+1]*lam[i][k-1] - m*lam[i][k]) // d[k] and
    lam[i][k-1] = (d[k-1]*lam[i][k] + m*lam[i][k-1]) // d[k]. A size
    reduction whose lam[k][j] is under d[j+1]/2 by bit length is skipped,
    its rounded quotient being 0. None of this changes a branch."""
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
            dj = d[j + 1]
            if lk[j].bit_length() + 1 < dj.bit_length():
                continue  # |lk[j]| < dj/2, so r = 0
            r = (lk[j] + (dj >> 1)) // dj  # lk[j]/dj rounded half up
            if r:
                basis[k] = [a - r * c for a, c in zip(basis[k], basis[j])]
                lj = lam[j]
                for l in range(j):
                    lk[l] -= r * lj[l]
                lk[j] -= r * dj
        m, dk = lk[k - 1], d[k]
        swapped_d = (d[k - 1] * d[k + 1] + m * m) // dk
        if q * swapped_d >= p * dk:
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            # lam rows swap below column k-1 and lam[k][k-1] stays m; the
            # slots on and above the diagonal hold nothing once gram_row is done
            lam[k - 1], lam[k] = lk, lam[k - 1]
            lam[k][k - 1] = m
            below, above = d[k - 1], d[k + 1]
            for i in range(k + 1, top + 1):
                li = lam[i]
                s, t = li[k - 1], li[k]
                li[k - 1] = (below * t + m * s) // dk
                li[k] = (above * s - m * t) // dk
            d[k] = swapped_d
            k = k - 1 if k > 1 else 1
    return basis


class RelationQuery(Record):
    """A relation search problem over fixed-point values sharing one base."""

    values: tuple[FixedPointValue, ...]
    coeff_bound: int
    precision: int

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("need at least two values")
        bases = {v.base for v in self.values}
        if len(bases) != 1:
            raise ValueError("values must share one base")
        if self.coeff_bound < 1:
            raise ValueError("coefficient bound must be positive")
        if not 1 <= self.precision <= min(v.scale for v in self.values):
            raise ValueError("precision must be within every value's stored scale")

    @property
    def base(self) -> int:
        return self.values[0].base


class IntegerRelation(Record):
    """A nonzero integer vector c with sum(c_i * value_i) below noise level."""

    coefficients: tuple[int, ...]
    residual: Fraction

    def __post_init__(self) -> None:
        if not any(self.coefficients):
            raise ValueError("relation coefficients cannot all be zero")


class RelationCheck(Record):
    residual: Fraction
    allowed: Fraction
    passed: bool


def verify_relation(values, coefficients) -> RelationCheck:
    """Exact residual of sum(c_i * v_i) against the accumulated error bounds."""
    values = tuple(values)
    coefficients = tuple(int(c) for c in coefficients)
    if len(values) != len(coefficients):
        raise ValueError("values and coefficients must have equal length")
    if not any(coefficients):
        raise ValueError("all-zero coefficient vector is not a relation")
    if len({v.base for v in values}) != 1:
        raise ValueError("values must share one base")
    b = values[0].base
    scale = max(v.scale for v in values)
    acc = sum(c * v.scaled_mantissa(scale) for c, v in zip(coefficients, values))
    residual = abs(Fraction(acc, b**scale))
    allowed = sum((abs(c) * v.error_bound for c, v in zip(coefficients, values)),
                  Fraction(0))
    return RelationCheck(residual, allowed, residual <= allowed)


class RelationSearchReport(Record):
    """Outcome of one search: either a relation or an exclusion statement.

    When no relation is returned, ``residual_floor`` is a proven lower bound
    (from the reduction guarantee) on |sum c_i v_i| over all nonzero integer
    vectors with max |c_i| <= the query's coeff_bound, relative to the
    represented values.
    """

    relation: IntegerRelation | None
    residual_floor: Fraction


def find_relation(query: RelationQuery) -> IntegerRelation | None:
    """Shortest verified relation within the coefficient bound, if any."""
    return search_relations(query).relation


def search_relations(query: RelationQuery) -> RelationSearchReport:
    """Run the lattice search and collect either a relation or exclusion data.

    A candidate is accepted when its exactly-evaluated residual stays below
    the accumulated truncation error plus b**-(precision/2).
    """
    b = query.base
    n = len(query.values)
    if query.precision < 50:
        raise ValueError("relation searches need precision >= 50")
    noise_sq = Fraction(1, b**query.precision)
    for v in query.values:
        if v.error_bound**2 > noise_sq:
            raise PrecisionTooLow(
                "input error bound exceeds b**-(precision/2); evaluate deeper"
            )

    scale_factor = b**query.precision
    rows = []
    for idx, v in enumerate(query.values):
        shift = b ** (v.scale - query.precision)
        scaled = (2 * v.mantissa + shift) // (2 * shift)  # mantissa / shift, rounded half up
        rows.append([1 if t == idx else 0 for t in range(n)] + [scaled])
    reduced = lll_reduce(rows)

    extra = Fraction(1, isqrt(b**query.precision))
    ranked = sorted(reduced, key=lambda r: (_dot(r, r), r))

    best: IntegerRelation | None = None
    for row in ranked:
        coeffs = tuple(row[:n])
        if not any(coeffs) or max(abs(c) for c in coeffs) > query.coeff_bound:
            continue
        check = verify_relation(query.values, coeffs)
        if check.residual <= check.allowed + extra:
            best = IntegerRelation(coeffs, check.residual)
            break

    floor = _exclusion_floor(reduced, n, query.coeff_bound, scale_factor)
    return RelationSearchReport(best, floor)


def _exclusion_floor(reduced, n: int, bound: int, scale_factor: int) -> Fraction:
    """Lower bound on any bounded relation's residual, from the LLL guarantee.

    The shortest reduced vector is within alpha**((n-1)/2) of the lattice
    minimum (alpha = 1/(delta - 1/4)); a coefficient vector c with
    max|c| <= bound and residual r maps to a lattice vector of norm at most
    sqrt(n*bound**2 + (r*scale + n*bound/2)**2), which cannot undercut it.
    """
    min_norm_sq = min(_dot(r, r) for r in reduced)
    inv_alpha = LOVASZ_DELTA - Fraction(1, 4)
    lam_sq = min_norm_sq * inv_alpha ** (n - 1)
    slack = lam_sq - n * bound * bound
    if slack <= 0:
        return Fraction(0)
    root_lb = isqrt(slack.numerator // slack.denominator)
    floor = (Fraction(root_lb) - Fraction(n * bound, 2)) / scale_factor
    return max(floor, Fraction(0))
