import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import dependence
from lacunary.cli import _TERM, SpecError, _read
from lacunary.sets import (
    explicit,
    geometric,
    naturals,
    pell_x,
    pell_y,
    primes,
    primes_in_ap,
    set_contains,
    set_enumerate,
    squarefree,
)

from oracles import sieve_primes, sieve_squarefree


def test_contains_examples():
    assert set_contains(primes_in_ap(4, 3), 7) is True
    assert set_contains(squarefree(), 12) is False
    assert 17 * 17 - 2 * 12 * 12 == 1
    assert set_contains(pell_x(2), 17) is True


def test_enumerate_examples():
    assert set_enumerate(squarefree(), 11) == sieve_squarefree(11) == [1, 2, 3, 5, 6, 7, 10, 11]
    expected_ap = [p for p in sieve_primes(25) if p % 4 == 3]
    assert set_enumerate(primes_in_ap(4, 3), 25) == expected_ap == [3, 7, 11, 19, 23]
    assert set_enumerate(geometric(3, 2), 50) == [3, 12, 48]


def test_primes_in_ap_1_1_is_all_primes():
    assert set_enumerate(primes_in_ap(1, 1), 200) == sieve_primes(200)
    assert set_enumerate(naturals(), 9) == list(range(1, 10))


def test_pell_members_solve_the_equation():
    for D in (2, 3, 5, 13):
        xs = set_enumerate(pell_x(D), 10**7)
        ys = set_enumerate(pell_y(D), 10**7)
        assert xs, f"no solutions found for D={D}"
        for x in xs:
            # the partner y is determined by x
            y_sq, rem = divmod(x * x - 1, D)
            assert rem == 0
            y = round(y_sq**0.5)
            assert y * y == y_sq
            assert set_contains(pell_y(D), y) or y > 10**7


def test_pell_y_scaling():
    # scaled copies of the y coordinates
    base = set_enumerate(pell_y(2, 1), 1000)
    scaled = set_enumerate(pell_y(2, 3), 3000)
    assert scaled == [3 * y for y in base]


# One set of each kind, keyed by its test id.
_KINDS = {
    "naturals0": naturals(),
    "primes": primes(),
    "primes = 3 (mod 4)": primes_in_ap(4, 3),
    "primes = 1 (mod 3)": primes_in_ap(3, 1),
    "squarefree0": squarefree(),
    "{2, 4, 6, 40}": explicit([2, 4, 6, 40]),
    "{}": explicit([]),
    "{3 * 2^(2m)}": geometric(3, 2),
    "{1 * 2^(3m)}": geometric(1, 3),
    "{x : x^2 - 2 y^2 = 1}": pell_x(2),
    "{1 y : x^2 - 2 y^2 = 1}": pell_y(2, 1),
    "naturals1": naturals(min_value=7),
    "squarefree1": squarefree(min_value=5),
}


@pytest.mark.parametrize("s", _KINDS.values(), ids=_KINDS.keys())
def test_enumerate_agrees_with_contains(s):
    limit = 120
    members = set_enumerate(s, limit)
    assert members == sorted(set(members))
    member_set = set(members)
    for n in range(1, limit + 1):
        assert set_contains(s, n) == (n in member_set), (s, n)


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=60)
def test_geometric_membership_is_exact(n):
    s = geometric(3, 2)
    in_set = any(3 * 4**m == n for m in range(8))
    assert set_contains(s, n) == in_set


def test_invalid_constructions():
    with pytest.raises(ValueError):
        primes_in_ap(4, 2)  # gcd 2
    with pytest.raises(ValueError):
        explicit([3, 3])
    with pytest.raises(ValueError):
        explicit([5, 2])
    with pytest.raises(ValueError):
        geometric(0, 2)
    with pytest.raises(dependence.SquareD):
        pell_x(4)
    with pytest.raises(dependence.SquareD):
        pell_y(9)


def read_set(obj):
    """obj read as the set of a term, as the command line reads it."""
    fields, _ = _read({"i": 1, "j": 2, "set": obj}, _TERM)
    return fields["set"]


def test_json_round_trip():
    rng = random.Random(7)
    for s in _KINDS.values():
        again = read_set(s.to_json())
        assert again == s
        limit = rng.randrange(50, 200)
        assert set_enumerate(again, limit) == set_enumerate(s, limit)
    assert read_set({"kind": "primes_in_ap", "d": 4, "h": 3}) == primes_in_ap(4, 3)
    with pytest.raises(SpecError, match="field 'set.kind': expected one of: naturals, "):
        read_set({"kind": "moonphase"})
    with pytest.raises(SpecError, match="field 'set.kind': required field is missing"):
        read_set({"no": "kind"})


def test_unknown_field_is_named():
    fields = {name for s in _KINDS.values() for name in s.to_json()} | {"min"}
    for s in _KINDS.values():
        obj = s.to_json()
        for name in sorted(fields - set(obj) - {"min"}) + ["scal"]:
            with pytest.raises(SpecError, match=f"field 'set.{name}': unknown field"):
                read_set({**obj, name: 1})
        assert read_set({**obj, "min": 2}).min_value == 2


def test_missing_parameter_is_named():
    for s in _KINDS.values():
        obj = s.to_json()
        for name in set(obj) - {"kind", "min", "scale"}:  # pell_y's scale defaults to 1
            with pytest.raises(SpecError, match=f"field 'set.{name}': required field is missing"):
                read_set({k: v for k, v in obj.items() if k != name})
