"""Every library input guard raises its ValueError, reached from a public entry.

The CLI validates a spec before it reaches the library, so most of these
guards fire only for a library caller. Each case names the guard's message;
``build_congruence_system``'s coprimality assertion is left out, as no
public input reaches it.
"""

import re

import pytest

import lacunary as lc

VALUE = lc.FixedPointValue.from_int(1, 10, 60)
SPEC = lc.SeriesSpec(1, 2, lc.naturals(), lc.CoeffFn.constant(1))
FORM = lc.LinearFormSpec(2, 0, ((1, SPEC),))

GUARDS = {
    # arith
    "factorization_target": (lambda: lc.Factorization(0, ()),
                             "factorization target must be >= 1"),
    "factorization_order": (lambda: lc.Factorization(6, ((3, 1), (2, 1))),
                            "factor primes must be strictly increasing"),
    "factorization_exponent": (lambda: lc.Factorization(1, ((2, 0),)),
                               "factor exponents must be positive"),
    "factorization_prime": (lambda: lc.Factorization(4, ((4, 1),)), "4 is not prime"),
    "factorization_product": (lambda: lc.Factorization(6, ((2, 1),)),
                              "factors do not multiply back to the value"),
    "factor_zero": (lambda: lc.factor(0), "factor requires n >= 1"),
    "root_of_negative": (lambda: lc.int_nth_root(-1, 2), "n must be nonnegative"),
    "root_index": (lambda: lc.int_nth_root(8, 0), "k must be >= 1"),
    "crt_modulus": (lambda: lc.crt_solve([(1, 0)]), "moduli must be >= 1"),
    "pell_solution": (lambda: lc.PellSolution(2, 2, 1), "(2, 1) does not solve x^2 - 2 y^2 = 1"),
    # dependence
    "collision": (lambda: lc.PowerCollision((1, 2), (1, 3), 2, 2),
                  "collision witness does not verify"),
    "equation_bounds": (lambda: lc.enumerate_equation_solutions(1, 2, 1, 3, 0, 10),
                        "u_max and x_max must be >= 1"),
    # forge
    "witness_prime": (lambda: lc.PrimeWitness(2, 1, 1, 2, 1),
                      "witness prime must exceed max(k, u, |v|)"),
    "witness_lift": (lambda: lc.PrimeWitness(2, 1, 1, 5, 1),
                     "witness fails u*x**k + v = p (mod p**2)"),
    "hensel_prime": (lambda: lc.hensel_step(2, 1, 1, 2, 1), "need p > max(k, u, |v|)"),
    "system_pair": (lambda: lc.build_congruence_system(0, 2, 1), "need i0 >= 1 and j0 >= 2"),
    "system_window": (lambda: lc.build_congruence_system(1, 2, 0), "window must be >= 1"),
    "system_progression": (lambda: lc.build_congruence_system(1, 2, 1, d=2, h=4),
                           "need positive d, h with gcd(d, h) = 1"),
    "exclusions_q": (lambda: lc.verify_exclusions(1, 1, 2, 3, [(1, 3)]), "q must be >= 2"),
    # relations
    "query_bound": (lambda: lc.RelationQuery((VALUE, VALUE), 0, 50),
                    "coefficient bound must be positive"),
    "relation_bases": (lambda: lc.verify_relation(
        (VALUE, lc.FixedPointValue.from_int(1, 2, 60)), (1, -1)), "values must share one base"),
    # series
    "coeff_kind": (lambda: lc.CoeffFn("cubic"), "unknown coefficient kind 'cubic'"),
    "value_base": (lambda: lc.FixedPointValue(1, 0, 1, 0), "base must be >= 2"),
    "value_scale": (lambda: lc.FixedPointValue(10, 0, 0, 0), "scale must be >= 1"),
    "value_error": (lambda: lc.FixedPointValue(10, 0, 1, -1), "error bound must be nonnegative"),
    "form_base": (lambda: lc.LinearFormSpec(1, 0, ()), "base must be >= 2"),
    "series_base": (lambda: lc.eval_series(SPEC, 1, 5), "base must be >= 2"),
    "series_digits": (lambda: lc.eval_series(SPEC, 2, 0), "digits must be >= 1"),
    "leading_count": (lambda: lc.form_digits(FORM, 10).rendering(0), "count must be >= 1"),
    "gap_range": (lambda: lc.gap_scan(FORM, 5, 4), "need 1 <= range_start <= range_end"),
    "window_radius": (lambda: lc.exclusion_window_check(FORM, 10, 0), "radius must be >= 1"),
    "window_center": (lambda: lc.exclusion_window_check(FORM, 3, 3),
                      "center must exceed the window radius"),
    "render_count": (lambda: lc.render_digits(VALUE, 0), "count must be >= 1"),
    "render_base": (lambda: lc.render_digits(lc.FixedPointValue(37, 1, 5, 0), 1),
                    "digit rendering supports bases up to 36"),
    # sets
    "set_kind": (lambda: lc.ExponentSet("evens"), "unknown set kind 'evens'"),
    "set_limit": (lambda: lc.naturals().members_up_to(0), "limit must be >= 1"),
    "ap_positive": (lambda: lc.primes_in_ap(0, 1), "d and h must be positive"),
    "geometric_ratio": (lambda: lc.geometric(1, 1), "ratio exponent j must be >= 2"),
    "pell_y_scale": (lambda: lc.pell_y(2, scale=0), "scale must be positive"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_guard_raises_its_message(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
