from fractions import Fraction
from itertools import islice

import pytest

from lacunary.arith import pell_iter
from lacunary.dependence import (
    FamilyIndex,
    NotApplicable,
    SquareD,
    build_counterexample,
    collision_witness,
    enumerate_equation_solutions,
    find_power_collisions,
    independence_conditions,
    pell_fundamental,
    square_exponent_pairs,
)
from lacunary.series import CoeffFn, LinearFormSpec, SeriesSpec, eval_linear_form

from oracles import brute_collision, brute_equation_solutions, brute_pell_fundamental


def test_collision_witness_examples():
    assert collision_witness((1, 2), (4, 2)) == (2, 1)
    assert 1 * 2**2 == 4 * 1**2
    assert collision_witness((1, 3), (2, 3)) is None
    assert brute_collision(1, 3, 2, 3, cap=1000) is None  # 2 is not a rational cube
    # same i, different j always collides at (1, 1)
    assert collision_witness((2, 2), (2, 3)) == (1, 1)


def test_find_power_collisions_family():
    fam = FamilyIndex.of([(1, 2), (4, 2)])
    [violation] = find_power_collisions(fam)
    assert (violation.u, violation.v) == (2, 1)
    assert find_power_collisions(FamilyIndex.of([(1, 3), (2, 3)])) == []
    assert find_power_collisions(FamilyIndex.of([(5, 4)])) == []


def test_collision_decision_matches_brute_force():
    # scaled-down sweep; the full acceptance range runs in test_acceptance
    js = (2, 3)
    for i1 in range(1, 13):
        for i2 in range(1, 13):
            for j1 in js:
                for j2 in js:
                    if (i1, j1) >= (i2, j2):
                        continue
                    got = collision_witness((i1, j1), (i2, j2))
                    brute = brute_collision(i1, j1, i2, j2, cap=60)
                    if brute is not None:
                        assert got is not None, (i1, j1, i2, j2)
                    if got is not None:
                        u, v = got
                        assert i1 * u**j1 == i2 * v**j2


def test_collision_witness_is_minimal_in_u():
    for pair1, pair2 in [((1, 2), (4, 2)), ((2, 2), (8, 2)), ((3, 2), (12, 2)),
                         ((1, 2), (8, 3)), ((4, 3), (2, 2))]:
        got = collision_witness(pair1, pair2)
        brute = brute_collision(*pair1, *pair2, cap=300)
        assert got == brute


def test_same_exponent_specialization():
    # for a shared exponent k >= 3 a collision means a2/a1 is a rational k-th power
    k = 3
    cases = [(1, 8, (2, 1)), (2, 16, (2, 1)), (2, 54, (3, 1)), (2, 3, None),
             (3, 5, None), (4, 32, (2, 1)), (5, 11, None)]
    for a1, a2, expected in cases:
        got = collision_witness((a1, k), (a2, k))
        assert got == expected
        assert brute_collision(a1, k, a2, k, cap=200) == expected


def test_square_exponent_pairs():
    assert square_exponent_pairs(FamilyIndex.of([(1, 2), (2, 2)])) == [(1, 2), (2, 2)]
    assert square_exponent_pairs(FamilyIndex.of([(1, 2), (1, 3)])) == [(1, 2)]
    assert square_exponent_pairs(FamilyIndex.of([])) == []


def test_independence_conditions_report():
    good = independence_conditions(FamilyIndex.of([(1, 2), (2, 4), (3, 4)]))
    assert good.satisfied
    assert brute_collision(1, 2, 2, 4, cap=300) is None  # u**2 = 2 v**4 has no solution
    bad = independence_conditions(FamilyIndex.of([(1, 2), (2, 2)]))
    assert not bad.satisfied and len(bad.square_pairs) == 2
    # coprime exponents always collide: 1 * 4**2 == 2 * 2**3
    mixed = independence_conditions(FamilyIndex.of([(1, 2), (2, 3)]))
    assert mixed.collisions and mixed.collisions[0].u == 4


def test_family_index_validation():
    with pytest.raises(ValueError):
        FamilyIndex.of([(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        FamilyIndex.of([(0, 2)])
    with pytest.raises(ValueError):
        FamilyIndex.of([(1, 1)])


def test_pell_fundamental_examples():
    assert (pell_fundamental(2).x, pell_fundamental(2).y) == (3, 2) == brute_pell_fundamental(2)
    assert (pell_fundamental(3).x, pell_fundamental(3).y) == (2, 1)
    assert 2 * 2 - 3 * 1 == 1
    with pytest.raises(SquareD):
        pell_fundamental(4)
    with pytest.raises(ValueError):
        pell_fundamental(0)


def test_pell_fundamental_brute_force_sweep():
    for D in range(2, 30):
        try:
            sol = pell_fundamental(D)
        except SquareD:
            continue
        assert (sol.x, sol.y) == brute_pell_fundamental(D)


def test_pell_stream_examples():
    assert [(s.x, s.y) for s in islice(pell_iter(2), 3)] == [(3, 2), (17, 12), (99, 70)]
    assert [(s.x, s.y) for s in islice(pell_iter(3), 2)] == [(2, 1), (7, 4)]
    assert 7 * 7 - 3 * 4 * 4 == 1
    assert [(s.x, s.y) for s in islice(pell_iter(2), 1)] == [(3, 2)]
    xs = [s.x for s in islice(pell_iter(61), 4)]
    assert xs == sorted(set(xs))  # strictly increasing


def test_pell_walk_bounded_by_y_max():
    # D = 61 has the fundamental solution (1766319049, 226153980).
    assert pell_fundamental(61, 226153979) is None
    assert pell_fundamental(61, 226153980).x == 1766319049
    for D in (2, 3, 5, 13, 29, 61):
        stream = list(islice(pell_iter(D), 4))
        for y_max in sorted({1} | {s.y + d for s in stream for d in (-1, 0)}):
            assert list(pell_iter(D, y_max)) == [s for s in stream if s.y <= y_max]
    # A large D whose continued fraction would take minutes stops at once.
    assert list(pell_iter(10**11 + 3, 10**6)) == []


def test_counterexample_scaled_sets():
    cert = build_counterexample((1, 2), (4, 2), 2)
    assert cert.kind == "scaled_sets"
    assert cert.weights == (0, 1, -1)
    assert cert.set1.members_up_to(200) == [2, 8, 32, 128]
    assert cert.set2.members_up_to(200) == [1, 4, 16, 64]
    assert cert.verified
    assert cert.residual == 0  # the two series agree term by term


def test_counterexample_pell():
    cert = build_counterexample((1, 2), (2, 2), 2, precision=200)
    assert cert.kind == "pell"
    assert cert.weights == (0, 2, -1)
    assert cert.set1.members_up_to(100) == [3, 17, 99]
    assert cert.set2.members_up_to(100) == [2, 12, 70]
    assert 3**2 == 2 * 2**2 + 1 and 17**2 == 2 * 12**2 + 1
    assert cert.verified
    assert cert.residual <= cert.error_bound
    # re-verify through the generic evaluator at a different precision
    terms = tuple((w, SeriesSpec(i, j, s, CoeffFn.constant(1))) for w, (i, j), s in
                  zip(cert.weights[1:], (cert.pair1, cert.pair2), (cert.set1, cert.set2)))
    v = eval_linear_form(LinearFormSpec(cert.base, cert.weights[0], terms), 120)
    assert abs(v.to_fraction()) <= v.error_bound


def test_counterexample_pell_larger_pair():
    cert = build_counterexample((2, 2), (3, 2), 5, precision=150)
    assert cert.kind == "pell"
    assert cert.weights == (0, 5**2, -1)
    assert cert.verified


def test_counterexample_not_applicable():
    with pytest.raises(NotApplicable):
        build_counterexample((1, 3), (2, 3), 2)
    with pytest.raises(ValueError):
        build_counterexample((1, 2), (1, 2), 2)
    # collision branch takes priority: (1,2),(4,2) collide and 4 is square
    assert build_counterexample((1, 2), (4, 2), 2).kind == "scaled_sets"


def test_equation_solutions_example():
    sols = enumerate_equation_solutions(1, 3, 1, 2, 1, 100)
    assert 2**3 - 3**2 == -1
    assert {(s.x, s.y, s.u, s.sign) for s in sols} == {(2, 3, 1, "-")}


def test_equation_solutions_identical_pair_shape():
    assert enumerate_equation_solutions(1, 2, 1, 2, 1, 50) == []


def test_equation_solutions_match_brute_force():
    got = enumerate_equation_solutions(2, 3, 5, 4, 3, 50)
    brute = brute_equation_solutions(2, 3, 5, 4, 3, 50)
    assert {(s.x, s.y, s.u, s.sign) for s in got} == brute


def test_certificate_relation_residual_is_fraction():
    cert = build_counterexample((1, 2), (2, 2), 3, precision=100)
    assert isinstance(cert.residual, Fraction)
    assert isinstance(cert.error_bound, Fraction)
    assert cert.weights == (0, 3, -1)
    assert cert.verified
