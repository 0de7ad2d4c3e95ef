"""Symbolic exponent sets with exact membership tests and bounded enumeration.

Infinite sets stay symbolic; they are only ever materialized up to an
explicit bound. Pell-derived kinds enumerate equation solutions on demand.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterable

from .arith import Record, factor, is_prime, pell_iter, prime_sieve, require_nonsquare


class ExponentSet(Record):
    """A subset of the positive integers used as a series index set.

    kind selects the family, whose rules are one entry of ``KINDS``; the
    remaining fields are kind-specific parameters. ``min_value`` is an optional lower cutoff applied to
    membership and enumeration alike. Build instances through the factory
    functions below, which validate parameters.
    """

    kind: str
    d: int = 0
    h: int = 0
    members: tuple[int, ...] = ()
    u: int = 0
    j: int = 0
    D: int = 0
    scale: int = 1
    min_value: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")

    def contains(self, n: int) -> bool:
        return n >= max(1, self.min_value) and KINDS[self.kind].contains(self, n)

    def members_up_to(self, limit: int) -> list[int]:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        lo = max(1, self.min_value)
        return [n for n in KINDS[self.kind].members_up_to(self, limit) if n >= lo]

    @property
    def is_finite(self) -> bool:
        return KINDS[self.kind].finite

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind}
        for name in KINDS[self.kind].fields:
            value = getattr(self, name)
            obj[name] = list(value) if isinstance(value, tuple) else value
        if self.min_value > 1:
            obj["min"] = self.min_value
        return obj


def naturals(min_value: int = 1) -> ExponentSet:
    return ExponentSet("naturals", min_value=min_value)


def primes(min_value: int = 1) -> ExponentSet:
    return ExponentSet("primes", min_value=min_value)


def primes_in_ap(d: int, h: int, min_value: int = 1) -> ExponentSet:
    """Primes congruent to h modulo d; requires gcd(d, h) == 1."""
    if d < 1 or h < 1:
        raise ValueError("d and h must be positive")
    if math.gcd(d, h) != 1:
        raise ValueError(f"gcd({d}, {h}) != 1: the progression holds no primes beyond one")
    return ExponentSet("primes_in_ap", d=d, h=h, min_value=min_value)


def squarefree(min_value: int = 1) -> ExponentSet:
    return ExponentSet("squarefree", min_value=min_value)


def explicit(members, min_value: int = 1) -> ExponentSet:
    members = tuple(members)
    if any(m < 1 for m in members):
        raise ValueError("explicit members must be positive")
    if any(a >= b for a, b in zip(members, members[1:])):
        raise ValueError("explicit members must be strictly increasing")
    return ExponentSet("explicit", members=members, min_value=min_value)


def geometric(u: int, j: int, min_value: int = 1) -> ExponentSet:
    """The set {u * 2**(j*m) : m = 0, 1, 2, ...}."""
    if u < 1:
        raise ValueError("base point u must be positive")
    if j < 2:
        raise ValueError("ratio exponent j must be >= 2")
    return ExponentSet("geometric", u=u, j=j, min_value=min_value)


def pell_x(D: int, min_value: int = 1) -> ExponentSet:
    """First coordinates x of the positive solutions of x^2 - D y^2 = 1."""
    require_nonsquare(D)
    return ExponentSet("pell_x", D=D, min_value=min_value)


def pell_y(D: int, scale: int = 1, min_value: int = 1) -> ExponentSet:
    """Scaled second coordinates scale*y of the solutions of x^2 - D y^2 = 1."""
    require_nonsquare(D)
    if scale < 1:
        raise ValueError("scale must be positive")
    return ExponentSet("pell_y", D=D, scale=scale, min_value=min_value)


def set_contains(s: ExponentSet, n: int) -> bool:
    """Exact membership verdict for n in s."""
    return s.contains(n)


def set_enumerate(s: ExponentSet, limit: int) -> list[int]:
    """All members of s up to limit, strictly increasing."""
    return s.members_up_to(limit)


# ---------------------------------------------------------------- set kinds

class _Kind(Record):
    """Everything one set kind decides.

    ``fields`` are the JSON fields after "kind", in the order the factory
    takes them (``defaults`` holds those a spec may omit). ``contains`` and
    ``members_up_to`` see n >= 1 and limit >= 1 and leave the ``min_value``
    cutoff to ExponentSet; ``members_up_to`` yields members in increasing
    order.
    """

    factory: Callable[..., ExponentSet]
    contains: Callable[[ExponentSet, int], bool]
    members_up_to: Callable[[ExponentSet, int], Iterable[int]]
    fields: tuple[str, ...] = ()
    defaults: dict | None = None
    finite: bool = False

    def __post_init__(self) -> None:
        if self.defaults is None:  # a fresh dict per kind, never one shared default
            object.__setattr__(self, "defaults", {})


def _explicit_contains(s: ExponentSet, n: int) -> bool:
    idx = bisect_right(s.members, n)
    return idx > 0 and s.members[idx - 1] == n


def _geometric_contains(s: ExponentSet, n: int) -> bool:
    if n % s.u:
        return False
    q = n // s.u
    return q & (q - 1) == 0 and (q.bit_length() - 1) % s.j == 0


def _geometric_members(s: ExponentSet, limit: int) -> list[int]:
    out = []
    v = s.u
    step = 1 << s.j
    while v <= limit:
        out.append(v)
        v *= step
    return out


def _pell_pairs(s: ExponentSet, limit: int) -> list[tuple[int, int]]:
    # A member <= limit has y <= limit (y < x), so the Pell work grows with
    # limit, not with the period of sqrt(D); solutions grow geometrically,
    # so this list is logarithmic in limit.
    return [(sol.x, sol.y) for sol in pell_iter(s.D, limit)]


KINDS = {
    "naturals": _Kind(
        naturals,
        contains=lambda s, n: True,
        members_up_to=lambda s, limit: range(1, limit + 1)),
    "primes": _Kind(
        primes,
        contains=lambda s, n: is_prime(n),
        members_up_to=lambda s, limit: prime_sieve(limit)),
    "primes_in_ap": _Kind(
        primes_in_ap,
        contains=lambda s, n: n % s.d == s.h % s.d and is_prime(n),
        members_up_to=lambda s, limit: (p for p in prime_sieve(limit) if p % s.d == s.h % s.d),
        fields=("d", "h")),
    "squarefree": _Kind(
        squarefree,
        contains=lambda s, n: factor(n).is_squarefree,
        members_up_to=lambda s, limit: _squarefree_sieve(limit)),
    "explicit": _Kind(
        explicit,
        contains=_explicit_contains,
        members_up_to=lambda s, limit: s.members[: bisect_right(s.members, limit)],
        fields=("members",),
        finite=True),
    "geometric": _Kind(
        geometric,
        contains=_geometric_contains,
        members_up_to=_geometric_members,
        fields=("u", "j")),
    "pell_x": _Kind(
        pell_x,
        contains=lambda s, n: any(x == n for x, _ in _pell_pairs(s, n)),
        members_up_to=lambda s, limit: [x for x, _ in _pell_pairs(s, limit) if x <= limit],
        fields=("D",)),
    "pell_y": _Kind(
        pell_y,
        contains=lambda s, n: any(s.scale * y == n for _, y in _pell_pairs(s, n)),
        members_up_to=lambda s, limit: [s.scale * y for _, y in _pell_pairs(s, limit)
                                    if s.scale * y <= limit],
        fields=("D", "scale"),
        defaults={"scale": 1}),
}


def _squarefree_sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        sq = p * p
        flags[sq::sq] = bytearray(len(range(sq, limit + 1, sq)))
    return [i for i in range(1, limit + 1) if flags[i]]
