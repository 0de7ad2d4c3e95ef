import dataclasses
import inspect
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.arith import (
    BudgetExceeded,
    Record,
    crt_solve,
    factor,
    int_nth_root,
    is_exponent_image,
    is_prime,
)
from lacunary.sets import KINDS, naturals, primes

from oracles import trial_is_prime


def test_is_prime_examples():
    assert is_prime(227) is True
    assert trial_is_prime(227)  # oracle agrees
    assert is_prime(1) is False
    assert 227 * 227 == 51529
    assert is_prime(51529) is False


def test_is_prime_small_range_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_agrees_with_sieve_to_one_million():
    from oracles import sieve_primes

    limit = 10**6
    prime_set = set(sieve_primes(limit))
    mismatches = [n for n in range(limit + 1) if is_prime(n) != (n in prime_set)]
    assert mismatches == []


def test_is_prime_handles_large_inputs():
    # 2**89 - 1 is a Mersenne prime; its neighbour is not.
    m89 = 2**89 - 1
    assert is_prime(m89)
    assert not is_prime(m89 - 2)


def test_factor_examples():
    assert factor(12).factors == ((2, 2), (3, 1))
    f = factor(51529)
    assert f.factors == ((227, 2),)
    assert 227**2 == 51529  # multiply back
    assert factor(1).factors == ()


def test_factor_budget_exceeded():
    hard = 1000000007 * 1000000009
    with pytest.raises(BudgetExceeded):
        factor(hard, budget=10)


def test_factor_round_trips_on_random_inputs():
    rng = random.Random(20260810)
    for _ in range(10_000):
        n = rng.randrange(1, 10**12)
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_int_nth_root_examples():
    assert int_nth_root(51529, 2) == (227, True)
    assert int_nth_root(10, 3) == (2, False)
    assert int_nth_root(0, 5) == (0, True)


@given(st.integers(min_value=0, max_value=2**4096 - 1), st.integers(min_value=1, max_value=64))
def test_int_nth_root_brackets(n, k):
    root, exact = int_nth_root(n, k)
    assert root**k <= n < (root + 1) ** k
    assert exact == (root**k == n)


@given(st.integers(min_value=2, max_value=2**256), st.integers(min_value=2, max_value=64))
def test_int_nth_root_at_a_perfect_power_and_its_neighbours(r, k):
    # Newton's result is returned as it is, so the floor must be right on both
    # sides of an exact power.
    assert int_nth_root(r**k - 1, k) == (r - 1, False)
    assert int_nth_root(r**k, k) == (r, True)
    assert int_nth_root(r**k + 1, k) == (r, False)


def test_is_exponent_image_examples():
    assert is_exponent_image(8, 2, 2, naturals()) == 2
    assert is_exponent_image(12, 2, 2, naturals()) is None
    assert is_exponent_image(51529, 1, 2, primes()) == 227


def test_crt_examples():
    assert crt_solve([(1, 3), (2, 25)]) == (52, 75)
    assert 52 % 3 == 1 and 52 % 25 == 2
    assert crt_solve([(2, 9), (2, 25)]) == (2, 225)
    with pytest.raises(ValueError, match=r"^x = 0 \(mod 2\) conflicts with x = 1 \(mod 2\)$"):
        crt_solve([(0, 2), (1, 2)])
    with pytest.raises(ValueError):
        crt_solve([])


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**4)),
                min_size=1, max_size=6))
@settings(max_examples=200)
def test_crt_solution_is_a_fixed_point(congruences):
    try:
        x, alpha = crt_solve(congruences)
    except ValueError as exc:
        assert "conflicts with" in str(exc)
        return
    for r, m in congruences:
        assert (x - r) % m == 0
    assert 0 <= x < alpha
    # appending the solution changes nothing
    assert crt_solve(congruences + [(x, alpha)]) == (x, alpha)


# ------------------------------------------------------------ Record

# Each class's fields with their defaults (... for a required field), as the frozen
# dataclasses the package used before Record declared them.
PACKAGE_RECORDS = {
    "lacunary.arith.Factorization": {"value": ..., "factors": ...},
    "lacunary.arith.PellSolution": {"D": ..., "x": ..., "y": ...},
    "lacunary.sets.ExponentSet": {"kind": ..., "d": 0, "h": 0, "members": (), "u": 0, "j": 0,
                                  "D": 0, "scale": 1, "min_value": 1},
    # The dataclass's field(default_factory=dict): ... is made a fresh {} per kind.
    "lacunary.sets._Kind": {"factory": ..., "contains": ..., "members_up_to": ...,
                            "fields": (), "defaults": None, "finite": False},
    "lacunary.series.SeriesSpec": {"i": ..., "j": ..., "set": ..., "coeff": ...},
    "lacunary.series.FixedPointValue": {"base": ..., "mantissa": ..., "scale": ...,
                                        "error_bound": Fraction(0)},
    "lacunary.series.DigitRendering": {"digits": ..., "uncertain": ...},
    "lacunary.series.LinearFormSpec": {"base": ..., "constant": ..., "terms": ...},
    "lacunary.series.FormDigits": {"base": ..., "negative": ..., "integer": ...,
                                   "fraction": ..., "mass": ...},
    "lacunary.forge.PrimeWitness": {"k": ..., "u": ..., "v": ..., "p": ..., "x": ...},
    "lacunary.forge.CongruenceSystem": {"i0": ..., "j0": ..., "window": ..., "d": ...,
                                        "h": ..., "witnesses": ..., "modulus": ...,
                                        "solution": ...},
    "lacunary.forge.ExclusionViolation": {"offset": ..., "side": ..., "i": ..., "j": ...,
                                          "k": ...},
    "lacunary.forge.ExclusionReport": {"center": ..., "window": ..., "family": ...,
                                       "violations": ...},
    "lacunary.forge.ForgeCertificate": {"system": ..., "q": ..., "report": ...,
                                        "retries": ...},
    "lacunary.dependence.FamilyIndex": {"pairs": ...},
    "lacunary.dependence.PowerCollision": {"pair1": ..., "pair2": ..., "u": ..., "v": ...},
    "lacunary.dependence.ConditionsReport": {"collisions": ..., "square_pairs": ...},
    "lacunary.dependence.DependencyCertificate": {
        "kind": ..., "pair1": ..., "pair2": ..., "set1": ..., "set2": ...,
        "weights": ..., "base": ..., "precision": ..., "residual": ...,
        "error_bound": ...},
    "lacunary.dependence.EquationSolution": {"x": ..., "y": ..., "u": ..., "sign": ...},
    "lacunary.relations.RelationQuery": {"values": ..., "coeff_bound": ..., "precision": ...},
    "lacunary.relations.IntegerRelation": {"coefficients": ..., "residual": ...},
    "lacunary.relations.RelationCheck": {"residual": ..., "allowed": ..., "passed": ...},
    "lacunary.relations.RelationSearchReport": {"relation": ..., "residual_floor": ...},
}

POST_INITS = Counter()


def _post_init(self):
    POST_INITS[type(self).__name__] += 1
    if not isinstance(self.weight, Fraction):  # as FixedPointValue normalizes error_bound
        object.__setattr__(self, "weight", Fraction(self.weight))


class _Point(Record):
    x: int
    y: int = 2
    weight: Fraction = Fraction(0)

    __post_init__ = _post_init


@dataclasses.dataclass(frozen=True)
class _DataPoint:
    x: int
    y: int = 2
    weight: Fraction = Fraction(0)

    __post_init__ = _post_init


class _OtherPoint(Record):
    x: int
    y: int = 2
    weight: Fraction = Fraction(0)


@dataclasses.dataclass(frozen=True)
class _OtherDataPoint:
    x: int
    y: int = 2
    weight: Fraction = Fraction(0)


def _outcome(cls, *args, **kwargs):
    """What constructing cls gives, with its name masked so that twins compare."""
    try:
        obj = cls(*args, **kwargs)
    except TypeError as exc:
        return "TypeError", str(exc).replace(cls.__qualname__, "C")
    return repr(obj).replace(cls.__qualname__, "C"), hash(obj), type(obj.weight)


@pytest.mark.parametrize("args, kwargs, ok", [
    ((1,), {}, True),
    ((1, 3), {}, True),
    ((1, 3, Fraction(1, 2)), {}, True),
    ((1,), {"weight": 1}, True),
    ((), {"y": 3, "x": 1}, True),
    ((), {}, False),                      # missing field
    ((1,), {"z": 1}, False),              # unknown field
    ((1,), {"x": 2}, False),              # repeated field
    ((1, 2, 3, 4), {}, False),            # too many
])
def test_record_constructs_like_a_frozen_dataclass(args, kwargs, ok):
    got = _outcome(_Point, *args, **kwargs)
    assert got == _outcome(_DataPoint, *args, **kwargs)
    assert (got[0] != "TypeError") == ok


def test_record_refuses_assignment_and_deletion_like_a_frozen_dataclass():
    for cls in (_Point, _DataPoint):
        obj = cls(1)
        for name in ("x", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 5)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        assert (obj.x, obj.y) == (1, 2)


def test_record_equality_hash_and_repr_match_a_frozen_dataclass():
    for cls, other in ((_Point, _OtherPoint), (_DataPoint, _OtherDataPoint)):
        assert cls(1) == cls(1, 2, Fraction(0)) == cls(x=1, weight=0)
        assert cls(1) != cls(1, 3)
        assert cls(1) != other(1) and cls(1).__eq__(other(1)) is NotImplemented
        assert hash(cls(1, 3)) == hash((1, 3, Fraction(0)))
    assert _Point(1) != _DataPoint(1)
    assert repr(_Point(1, 3)) == "_Point(x=1, y=3, weight=Fraction(0, 1))"
    assert repr(_DataPoint(1, 3)) == "_DataPoint(x=1, y=3, weight=Fraction(0, 1))"


def test_record_post_init_runs_once_and_may_normalize_a_field():
    for cls in (_Point, _DataPoint):
        before = POST_INITS[cls.__name__]
        obj = cls(1, weight=3)
        assert POST_INITS[cls.__name__] == before + 1
        assert type(obj.weight) is Fraction and obj.weight == 3


def test_package_records_keep_their_dataclass_signatures():
    found = {f"{cls.__module__}.{cls.__qualname__}": cls for cls in Record.__subclasses__()
             if cls.__module__.startswith("lacunary.")}
    assert found.keys() == PACKAGE_RECORDS.keys()
    for name, fields in PACKAGE_RECORDS.items():
        params = inspect.signature(found[name]).parameters.values()
        assert [(p.name, ... if p.default is p.empty else p.default)
                for p in params] == list(fields.items()), name


class _Labelled(Record):
    label: str
    point: _Point
    pairs: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {**super().to_json(), "label": self.label.upper(), "size": len(self.pairs)}


def test_record_to_json_gives_the_fields_by_name():
    assert _Point(1, 3).to_json() == {"x": 1, "y": 3, "weight": Fraction(0)}
    obj = _Labelled("a", _Point(1), ((1, 2), (3, (4, 5))))
    assert obj.to_json() == {"label": "A", "point": {"x": 1, "y": 2, "weight": Fraction(0)},
                             "pairs": [[1, 2], [3, [4, 5]]], "size": 2}
    # a nested record's override is used as well
    assert _Labelled("b", _Point(2), ((obj,),)).to_json()["pairs"] == [[obj.to_json()]]


def test_kinds_do_not_share_a_defaults_dict():
    owned = [k.defaults for k in KINDS.values()]
    assert len({id(d) for d in owned}) == len(owned)
    assert KINDS["pell_y"].defaults == {"scale": 1} and KINDS["naturals"].defaults == {}
