import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.arith import (
    BudgetExceeded,
    crt_solve,
    factor,
    int_nth_root,
    is_exponent_image,
    is_prime,
)
from lacunary.sets import naturals, primes

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


@given(st.integers(min_value=0, max_value=10**36), st.integers(min_value=1, max_value=12))
def test_int_nth_root_brackets(n, k):
    root, exact = int_nth_root(n, k)
    assert root**k <= n < (root + 1) ** k
    assert exact == (root**k == n)


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
