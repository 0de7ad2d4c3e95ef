import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary.arith import BudgetExceeded
from lacunary.forge import (
    MAX_J0,
    CongruenceSystem,
    build_certificate,
    build_congruence_system,
    find_prime,
    find_witnesses,
    hensel_step,
    verify_exclusions,
)

from oracles import RefBudgetExceeded, brute_witnesses, sieve_primes, trial_is_prime

# Floors on both sides of the trial-prime limit 10**4 (9973 is the last trial
# prime, 10007 the first prime above it), and primes an exclude set may hold.
_P_MINS = (2, 50, 9973, 10**4, 10007, 2 * 10**4, 10**5)
_EXCLUDABLE = sieve_primes(400) + [10007, 10009, 10037, 20011, 20021, 100003, 100019]


def brute_witness_exists(k, u, v, p):
    """Oracle: scan all residues mod p**2 for u*x**k + v = p (mod p**2)."""
    psq = p * p
    return any((u * pow(x, k, psq) + v - p) % psq == 0 for x in range(psq))


def test_hensel_step_examples():
    x = hensel_step(2, 1, -2, 7, 3)
    assert 3 * 3 - 2 == 7  # the seed already works here
    assert (x * x - 2) % 49 == 7
    x23 = hensel_step(2, 1, -2, 23, 5)
    assert x23 == 5 and (5 * 5 - 2) % (23 * 23) == 23
    with pytest.raises(ValueError, match=r"^derivative vanishes mod 7 \(v=0\)$"):
        hensel_step(2, 1, 0, 7, 0)
    with pytest.raises(ValueError):
        hensel_step(2, 1, -2, 3, 1)  # p too small
    with pytest.raises(ValueError):
        hensel_step(2, 1, -2, 7, 1)  # not a root mod 7


def test_hensel_step_lifts_arbitrary_roots():
    # cases where the seed root does not already satisfy the target congruence
    for (k, u, v, p, x0) in [(2, 1, -1, 5, 4), (3, 2, 5, 13, 4), (4, 3, -2, 11, 5)]:
        if (u * x0**k + v) % p:
            continue
        x = hensel_step(k, u, v, p, x0)
        psq = p * p
        assert (u * pow(x, k, psq) + v - p) % psq == 0
        assert 0 <= x < psq


def test_find_witnesses_scan_example():
    ws = find_witnesses(2, 1, -2, 2, p_min=5)
    assert [(w.p, w.x) for w in ws] == [(7, 3), (23, 5)]
    for w in ws:
        assert trial_is_prime(w.p)
        value = w.u * w.x**w.k + w.v
        assert value % w.p == 0 and value % (w.p * w.p) != 0  # divisible exactly once
        assert brute_witness_exists(w.k, w.u, w.v, w.p)


def test_find_witnesses_p_min_is_strict():
    ws = find_witnesses(2, 1, -1, 1, p_min=3)
    w = ws[0]
    assert w.p == 5 and w.p > 3
    assert (w.x**2 - 1) % 25 == 5


def test_find_witnesses_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_witnesses(2, 1, 0, 1)
    with pytest.raises(ValueError):
        find_witnesses(1, 1, -1, 1)
    with pytest.raises(BudgetExceeded,
                       match=r"^50 witnesses for \(2, 1, -1\) not found scanning m <= 4$"):
        find_witnesses(2, 1, -1, 50, scan_limit=4)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(k=st.integers(2, 5), u=st.integers(1, 9),
       v=st.integers(-12, 12).filter(bool), count=st.integers(1, 4),
       exclude=st.sets(st.sampled_from(_EXCLUDABLE), max_size=12),
       p_min=st.sampled_from(_P_MINS), scan_limit=st.integers(1, 200))
def test_find_witnesses_matches_the_factor_every_m_scan(k, u, v, count, exclude, p_min,
                                                        scan_limit):
    args = (k, u, v, count, p_min, exclude, scan_limit)
    try:
        expected = brute_witnesses(*args)
    except RefBudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as info:
            find_witnesses(*args)
        assert str(info.value) == str(exc)
    else:
        assert [(w.p, w.x) for w in find_witnesses(*args)] == expected


def test_find_witnesses_grid_mini():
    for k in (2, 3):
        for u in (1, 2):
            for v in (-2, -1, 1, 2):
                ws = find_witnesses(k, u, v, 3)
                primes_seen = [w.p for w in ws]
                assert len(set(primes_seen)) == 3
                for w in ws:
                    psq = w.p * w.p
                    assert (u * pow(w.x, k, psq) + v - w.p) % psq == 0


def test_build_congruence_system_example():
    sys_ = build_congruence_system(1, 2, 2, 1, 1, 2)
    assert sys_.modulus == 225 and sys_.solution == 2
    assert [(l, w.p, w.x) for l, w in sys_.witnesses] == [(1, 3, 2), (3, 5, 2)]
    # CRT oracle: the solution satisfies every congruence
    for r, m in [(sys_.h, sys_.d)] + [(w.x, w.p * w.p) for _, w in sys_.witnesses]:
        assert (sys_.solution - r) % m == 0
    assert math.gcd(sys_.modulus, sys_.solution) == 1
    assert sys_.modulus == sys_.d * math.prod(w.p**2 for _, w in sys_.witnesses)


def test_build_congruence_system_with_progression():
    sys_ = build_congruence_system(1, 2, 2, 4, 3, 2)
    assert sys_.solution % 4 == 3
    assert math.gcd(sys_.modulus, sys_.solution) == 1
    for _, w in sys_.witnesses:
        assert math.gcd(w.p, 4) == 1


def test_build_congruence_system_refuses_j0_above_the_cap():
    # Refused before any witness search: at j0 = 10**4 the scan would factor
    # m**10000 + v, which was still running after a minute.
    with pytest.raises(BudgetExceeded, match=r"^j0 = 10000 is above the cap of 10$"):
        build_congruence_system(1, 10**4, 40)
    assert build_congruence_system(1, MAX_J0, 1).j0 == MAX_J0


def test_build_congruence_system_degenerate_window():
    sys_ = build_congruence_system(1, 2, 1, 4, 3)
    assert sys_.witnesses == ()
    assert sys_.modulus == 4 and sys_.solution == 3


def test_build_congruence_system_primes_exceed_window():
    sys_ = build_congruence_system(1, 2, 3, 1, 1, 2)
    for offset, w in sys_.witnesses:
        assert w.p > 3
        assert w.v == offset - 3


def test_find_prime_examples():
    sys_ = build_congruence_system(1, 2, 2, 1, 1, 2)
    assert find_prime(sys_) == 227
    assert find_prime(sys_, require_large=False) == 2
    small = build_congruence_system(1, 2, 1, 4, 3)
    assert find_prime(small) == 7  # 3 itself is skipped by the q > modulus rule
    assert find_prime(small, n0_start=2) == 11
    # the prime lands in the progression h (mod d)
    with_ap = build_congruence_system(1, 2, 2, 4, 3, 2)
    q = find_prime(with_ap)
    assert trial_is_prime(q) and q % 4 == 3


def test_find_prime_rejects_shares_and_budget():
    bad = CongruenceSystem(1, 2, 1, 1, 1, (), 10, 5)
    with pytest.raises(ValueError):
        find_prime(bad)
    ok = build_congruence_system(1, 2, 2, 1, 1, 2)
    with pytest.raises(BudgetExceeded, match=r"^no prime q = \d+\*n \+ \d+ within 1 attempts from n0=0$"):
        find_prime(ok, attempt_budget=1)  # n0=0 gives q=2 <= modulus


def test_verify_exclusions_clean_case():
    report = verify_exclusions(227, 1, 2, 2, [(1, 2), (2, 2), (1, 3), (2, 3)])
    assert report.center == 51529 and report.holds
    # oracle cross-check on the two window positions
    for n in (51528, 51530):
        for i, j in [(1, 2), (2, 2), (1, 3), (2, 3)]:
            if n % i == 0:
                k = round((n / i) ** (1 / j))
                assert all(i * c**j != n for c in (k - 1, k, k + 1) if c >= 1)


def test_verify_exclusions_violation():
    report = verify_exclusions(3, 1, 2, 2, [(1, 3)])
    assert not report.holds
    v = report.violations[0]
    assert (v.offset, v.side, v.i, v.j, v.k) == (1, "-", 1, 3, 2)
    assert 3**2 - 1 == 1 * 2**3


def test_violation_report_json():
    # pinned before the report fields were derived from Record
    assert verify_exclusions(3, 1, 2, 2, [(1, 3)]).to_json() == {
        "center": 9, "window": 2, "family": [[1, 3]], "holds": False,
        "violations": [{"offset": 1, "side": "-", "i": 1, "j": 3, "k": 2}]}


def test_verify_exclusions_empty_window():
    assert verify_exclusions(227, 1, 2, 1, [(1, 2)]).holds


def test_forged_window_matches_gap_scan():
    # around the forged center the combined coefficient sequence is zero
    from lacunary.series import (CoeffFn, LinearFormSpec, SeriesSpec, exclusion_window_check,
                                 gap_scan)
    from lacunary.sets import naturals

    family = [(1, 2), (2, 2), (1, 3), (2, 3)]
    cert = build_certificate(1, 2, 2, family)
    f = LinearFormSpec(2, 0, tuple((1, SeriesSpec(i, j, naturals(), CoeffFn.constant(1)))
                                   for i, j in family))
    center = cert.report.center
    assert exclusion_window_check(f, center, cert.system.window)
    runs = gap_scan(f, center - 1, center + 1)
    assert (center - 1, 1) in runs and (center + 1, 1) in runs


def test_build_certificate_end_to_end():
    family = [(i, j) for i in range(1, 5) for j in range(2, 5)]
    cert = build_certificate(1, 2, 2, family)
    assert cert.q == 227
    assert cert.report.holds
    assert cert.system.modulus == 225
    payload = cert.to_json()
    assert payload["q"] == 227 and payload["q_primality"] == "exact"
    assert payload["exclusions"]["holds"] is True
