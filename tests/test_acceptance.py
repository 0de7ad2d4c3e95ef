"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import islice

from lacunary.arith import pell_iter
from lacunary.cli import EXIT_OK, run_job
from lacunary.dependence import (
    build_counterexample,
    collision_witness,
    enumerate_equation_solutions,
    pell_fundamental,
)
from lacunary.forge import build_certificate, find_witnesses
from lacunary.relations import RelationQuery, search_relations
from lacunary.series import (
    CoeffFn,
    FixedPointValue,
    GUARD_DIGITS,
    LinearFormSpec,
    SeriesSpec,
    eval_linear_form,
    eval_series,
    exclusion_window_check,
)
from lacunary.sets import (
    explicit,
    geometric,
    naturals,
    pell_x,
    pell_y,
    primes,
    primes_in_ap,
    squarefree,
)

from oracles import (
    brute_digit_string,
    brute_equation_solutions,
    brute_gap_runs,
    brute_pell_fundamental,
    brute_series_mantissa,
    sieve_primes,
    sieve_squarefree,
)


@contextmanager
def criterion(num, desc, limit):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({desc}): FAIL after {time.perf_counter() - t0:.2f}s")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {verdict} in {elapsed:.2f}s (limit {limit}s)")
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit}s limit"


def test_c1_trivial_dependency_bitwise():
    with criterion(1, "even-index squares equal quadrupled squares", 1.0):
        cutoff = 1600
        digits = cutoff - GUARD_DIGITS
        evens = explicit(list(range(2, math.isqrt(cutoff) + 1, 2)))
        for b in (2, 3, 10):
            left = eval_series(SeriesSpec(1, 2, evens, CoeffFn.constant(1)), b, digits)
            right = eval_series(SeriesSpec(4, 2, naturals(), CoeffFn.constant(1)), b, digits)
            assert left.scale == right.scale == cutoff
            assert left.mantissa == right.mantissa  # bitwise-equal truncations


def test_c2_witness_grid():
    with criterion(2, "witness grid k<=4, u<=3, |v|<=2", 30.0):
        for k in (2, 3, 4):
            for u in (1, 2, 3):
                for v in (-2, -1, 1, 2):
                    witnesses = find_witnesses(k, u, v, 3)
                    assert len(witnesses) == 3
                    ps = [w.p for w in witnesses]
                    assert len(set(ps)) == 3
                    for w in witnesses:
                        psq = w.p * w.p
                        value = u * w.x**k + v
                        assert (value - w.p) % psq == 0
                        assert value % w.p == 0 and value % psq != 0


def test_c3_forge_end_to_end():
    with criterion(3, "forge pipeline with clean exclusion windows", 60.0):
        family = [(i, j) for i in range(1, 5) for j in range(2, 5)]
        specs = [SeriesSpec(i, j, naturals(), CoeffFn.constant(1)) for i, j in family]
        window_form = LinearFormSpec(2, 0, tuple((1, s) for s in specs))
        for window in (2, 3):
            cert = build_certificate(1, 2, window, family, d=1, h=1)
            assert cert.report.holds
            assert cert.q % 1 == 0 and cert.q > cert.system.modulus
            center = cert.q**2
            assert exclusion_window_check(window_form, center, window)


def test_c4_collision_decision_matches_brute_force():
    with criterion(4, "power-collision decision vs brute force", 60.0):
        cap = 200
        js = (2, 3, 4)
        powers = {j: [v**j for v in range(cap + 1)] for j in js}
        tables = {}
        for i2 in range(1, 31):
            for j2 in js:
                tables[(i2, j2)] = {i2 * powers[j2][v]: v for v in range(cap, 0, -1)}
        for i1 in range(1, 31):
            for j1 in js:
                for i2 in range(1, 31):
                    for j2 in js:
                        if (i1, j1) == (i2, j2):
                            continue
                        table = tables[(i2, j2)]
                        brute = None
                        for u in range(1, cap + 1):
                            v = table.get(i1 * powers[j1][u])
                            if v is not None:
                                brute = (u, v)
                                break
                        got = collision_witness((i1, j1), (i2, j2))
                        if brute is not None:
                            assert got is not None, (i1, j1, i2, j2, brute)
                        if got is not None:
                            u, v = got
                            assert i1 * u**j1 == i2 * v**j2, (i1, j1, i2, j2, got)


def test_c5_pell_fundamental_and_streams():
    with criterion(5, "Pell fundamental solutions and streams", 30.0):
        for D in range(2, 51):
            if math.isqrt(D) ** 2 == D:
                continue
            sol = pell_fundamental(D)
            assert (sol.x, sol.y) == brute_pell_fundamental(D, x_cap=10**6)
            stream = list(islice(pell_iter(D), 5))
            assert [s.x for s in stream] == sorted({s.x for s in stream})
            for s in stream:
                assert s.x * s.x - D * s.y * s.y == 1


def test_c6_counterexample_certificates():
    with criterion(6, "dependence certificates at 200 digits", 10.0):
        scaled = build_counterexample((1, 2), (4, 2), 2, precision=200)
        assert scaled.kind == "scaled_sets"
        assert scaled.residual <= scaled.error_bound
        pell = build_counterexample((1, 2), (2, 2), 2, precision=200)
        assert pell.kind == "pell"
        assert pell.residual <= pell.error_bound
        for cert in (scaled, pell):
            terms = tuple((w, SeriesSpec(i, j, s, CoeffFn.constant(1))) for w, (i, j), s in
                          zip(cert.weights[1:], (cert.pair1, cert.pair2), (cert.set1, cert.set2)))
            v = eval_linear_form(LinearFormSpec(cert.base, cert.weights[0], terms), cert.precision)
            assert abs(v.to_fraction()) <= v.error_bound


def test_c7_relation_detector():
    with criterion(7, "relation detector: planted recovery and exclusion", 120.0):
        # planted Pell relation at 150 digits
        scale = 150 + GUARD_DIGITS
        one = FixedPointValue.from_int(1, 2, scale)
        d1 = eval_series(SeriesSpec(1, 2, pell_x(2), CoeffFn.constant(1)), 2, 150)
        d2 = eval_series(SeriesSpec(2, 2, pell_y(2, 1), CoeffFn.constant(1)), 2, 150)
        found = search_relations(RelationQuery((one, d1, d2), 10**3, 150))
        assert found.relation is not None
        assert found.relation.coefficients in ((0, 2, -1), (0, -2, 1))

        # no small relation among the independent constants at 300 digits
        precision = 300
        values = [FixedPointValue.from_int(1, 2, precision + GUARD_DIGITS)]
        for i, j, index_set in [(1, 2, naturals()), (2, 2, naturals()),
                                (1, 3, naturals()), (1, 2, primes())]:
            values.append(eval_series(SeriesSpec(i, j, index_set, CoeffFn.constant(1)),
                                      2, precision))
        report = search_relations(RelationQuery(tuple(values), 10**4, precision))
        assert report.relation is None
        assert report.residual_floor > 0


def test_c8_diophantine_scan():
    with criterion(8, "bounded equation scan vs double loop", 30.0):
        got = enumerate_equation_solutions(1, 3, 1, 2, u_max=1, x_max=10**4)
        got_set = {(s.x, s.y, s.u, s.sign) for s in got}
        brute = brute_equation_solutions(1, 3, 1, 2, 1, 10**4)
        assert got_set == brute
        assert (2, 3, 1, "-") in got_set


def test_c9_refinement_soundness():
    with criterion(9, "refinement soundness over random series", 30.0):
        rng = random.Random(20260810)
        pool = [naturals(), primes(), squarefree(), primes_in_ap(4, 3),
                primes_in_ap(3, 2), primes_in_ap(5, 2), geometric(2, 2), geometric(3, 3)]
        for _ in range(20):
            spec = SeriesSpec(
                rng.randrange(1, 5), rng.randrange(2, 5), rng.choice(pool),
                rng.choice([CoeffFn.constant(rng.choice([1, -1, 2, 5])),
                            CoeffFn.alternating()]))
            b = rng.choice([2, 3, 10])
            vals = {d: eval_series(spec, b, d) for d in (50, 100, 200)}
            for d1 in (50, 100, 200):
                for d2 in (50, 100, 200):
                    if d1 >= d2:
                        continue
                    gap = abs(vals[d1].to_fraction() - vals[d2].to_fraction())
                    assert gap < vals[d1].error_bound + vals[d2].error_bound or gap == 0


def test_c10_digits_at_scale():
    # Two dense positive terms: sum over n of b**-(n*n), plus twice the same
    # sum over primes n.  (base, digits, count): a full 20000-digit render and
    # a deep base-3 job that reads 64 of its 100016 digits.
    jobs = [(10, 20000, 20000), (3, 100000, 64)]
    terms = [{"i": 1, "j": 2, "set": {"kind": "naturals"}},
             {"weight": 2, "i": 1, "j": 2, "set": {"kind": "primes"}}]
    reports = []
    with criterion(10, "20000 decimal digits and a deep base-3 100000-digit job", 5.0):
        for b, digits, count in jobs:
            spec = {"base": b, "digits": digits, "count": count, "terms": terms}
            reports.append(run_job("digits", spec))
    for (b, digits, count), (report, code) in zip(jobs, reports):
        assert code == EXIT_OK
        result = report["result"]
        assert len(result["digits"]) == count and result["sign"] == "+"
        # The true value lies in [m, m + 3] / b**depth: the omitted terms
        # have mass 3 past position depth.
        depth = digits + GUARD_DIGITS + 40
        cap = math.isqrt(depth)
        m = (brute_series_mantissa(b, 1, 2, range(1, cap + 1), lambda n: 1, depth)
             + 2 * brute_series_mantissa(b, 1, 2, sieve_primes(cap), lambda n: 1, depth))
        flagged = result["uncertain_positions"]
        certain = flagged[0] - 1 if flagged else count
        assert certain > count // 2
        unit = b ** (depth - certain)
        expected = {brute_digit_string(x // unit % b**certain, b, certain) for x in (m, m + 3)}
        assert expected == {result["digits"][:certain]}


def test_c11_sparse_windows_at_scale():
    # Twelve terms on the (i, j) slots of the windows benchmark, over sets of
    # every infinite kind, with alternating signs.
    pairs = [(1, 2), (2, 3), (1, 2), (3, 2), (1, 4), (2, 3),
             (1, 2), (4, 3), (1, 2), (2, 5), (1, 2), (3, 4)]
    pool = [naturals(), primes(), squarefree(), pell_x(2), primes_in_ap(4, 3), pell_y(3, 2)]
    f = LinearFormSpec(2, 0, tuple(
        ((-1) ** t * (t % 3 + 1),
         SeriesSpec(i, j, pool[t % len(pool)], CoeffFn.alternating() if t % 4 == 3
                    else CoeffFn.constant(1)))
        for t, (i, j) in enumerate(pairs)))
    terms = [{"weight": w, "i": spec.i, "j": spec.j, "set": spec.set.to_json(),
              "coeff": spec.coeff.to_json()} for w, spec in f.terms]
    # 10**30 = (10**15)**2 = (10**10)**3 = (10**6)**5 sits mid-window.
    ranges = [(10**30 - 5 * 10**8, 10**30 + 5 * 10**8 - 1), (1, 10**8)]
    dio = {"i0": 1, "j0": 3, "i": 1, "j": 2, "u_max": 200, "x_max": 10**5}
    with criterion(11, "12-term gaps at 10^30 and over [1, 10^8], diophantine x_max 10^5", 5.0):
        gaps = [run_job("gaps", {"base": 2, "range": list(r), "terms": terms}) for r in ranges]
        sols = run_job("diophantine", dio)
    found = []
    for (lo, hi), (report, code) in zip(ranges, gaps):
        assert code == EXIT_OK
        runs = report["result"]["runs"]
        # The position after each run is nonzero (or past the window).
        nonzero = [s + length for s, length in runs if s + length <= hi]
        found.append(len(nonzero))
        rng = random.Random(lo)
        centers = nonzero[:20] + [rng.randrange(lo, hi) for _ in range(10)]
        for c in centers:
            a, b = max(lo, c - 300), min(hi, c + 300)
            clipped = [(max(s, a), min(s + length - 1, b) - max(s, a) + 1)
                       for s, length in runs if s <= b and s + length - 1 >= a]
            assert clipped == brute_gap_runs(f, a, b)
    assert found[0] >= 1 and found[1] > 10**4
    report, code = sols
    assert code == EXIT_OK
    got = [(s["x"], s["y"], s["u"], s["sign"]) for s in report["result"]["solutions"]]
    brute = sorted(brute_equation_solutions(1, 3, 1, 2, 200, 2000),
                   key=lambda s: (s[0], s[2], s[3] != "+"))
    assert [s for s in got if s[0] <= 2000] == brute


def test_c12_decimal_eval_at_scale():
    # One dense term in base 10: sum over n of 10**-(n*n), rendered in full.
    digits = 3 * 10**5
    spec = {"base": 10, "digits": digits,
            "terms": [{"i": 1, "j": 2, "set": {"kind": "naturals"}}]}
    with criterion(12, "eval at base 10 with 300000 digits", 2.0):
        report, code = run_job("eval", spec)
    assert code == EXIT_OK
    result = report["result"]
    got = result["value_digits"]
    assert len(got) == digits and result["sign"] == "+"
    flagged = result["uncertain_positions"]
    certain = flagged[0] - 1 if flagged else digits
    assert certain > digits // 2
    # Window by window against the brute mantissa `deeper` digits past the
    # window's end.  Members with exponent <= start only add multiples of
    # 10**(width + deeper), and the omitted ones add less than one unit, so
    # the window's digits are exact.
    width, deeper = 2000, 40
    for start in range(0, certain, width):
        end = min(start + width, certain)  # positions start + 1 .. end
        depth = end + deeper
        members = range(math.isqrt(start) + 1, math.isqrt(depth) + 1)
        m = brute_series_mantissa(10, 1, 2, members, lambda n: 1, depth)
        expected = brute_digit_string(m // 10**deeper % 10 ** (end - start), 10, end - start)
        assert got[start:end] == expected


def test_c13_pell_work_grows_with_the_limit():
    # pell_fundamental(10**11 + 3) alone takes minutes. A member up to the
    # summation cap has y at most the cap, so the continued fraction stops
    # once its denominators pass it.
    pell = {"pair1": [1, 2], "pair2": [100000000003, 2], "base": 2, "precision": 60}
    dense = {"base": 10, "digits": 50,
             "terms": [{"i": 1, "j": 2, "set": {"kind": "pell_y", "D": 1000000000007}}]}
    with criterion(13, "Pell certificate and eval at D above 10^11", 5.0):
        cert, cert_code = run_job("counterexample", pell)
        value, value_code = run_job("eval", dense)
    assert (cert_code, value_code) == (EXIT_OK, EXIT_OK)
    assert cert["result"]["kind"] == "pell" and cert["result"]["verified"]
    assert cert["result"]["residual"] == "0"
    assert value["result"]["value_digits"] == "0" * 50


def test_c14_diophantine_short_side_at_scale():
    # y**3 <= 10**10 + 200 holds 2154 y against 10**5 x, so the scan walks y:
    # two root extractions per y instead of per x.
    with criterion(14, "diophantine x_max 10^5 on the short side (j0 = 2, j = 3)", 0.2):
        got = enumerate_equation_solutions(1, 2, 1, 3, u_max=200, x_max=10**5)
    brute = sorted(brute_equation_solutions(1, 2, 1, 3, 200, 10**5),
                   key=lambda s: (s[0], s[2], s[3] != "+"))
    assert [(s.x, s.y, s.u, s.sign) for s in got] == brute


def test_c15_eval_at_the_digits_cap():
    # digits = 10**6, the cap: one dense term, sum over n of b**-(n*n), in
    # bases 2, 3 and 10, and naturals + 2 primes - 3 squarefree at i = 2,
    # j = 3 in base 10, which is negative.
    digits = 10**6
    dense = [{"i": 1, "j": 2, "set": {"kind": "naturals"}}]
    mixed = [{"weight": w, "i": 2, "j": 3, "set": {"kind": kind}}
             for w, kind in ((1, "naturals"), (2, "primes"), (-3, "squarefree"))]
    jobs = [(2, dense), (3, dense), (10, dense), (10, mixed)]
    with criterion(15, "eval at the 10^6-digit cap in bases 2, 3 and 10", 2.0):
        reports = [run_job("eval", {"base": b, "digits": digits, "terms": terms})
                   for b, terms in jobs]
    # The first `width` digits against the brute mantissa to `depth`, the
    # first exponent past them whose coefficient b does not divide: the
    # members past depth move the value by less than one unit there, and the
    # unit's digit is not 0, so neither a borrow nor a carry reaches the window.
    width = 5000
    for (b, terms), (report, code) in zip(jobs, reports):
        assert code == EXIT_OK
        result = report["result"]
        assert len(result["value_digits"]) == digits
        assert result["sign"] == ("+" if terms is dense else "-")
        parts = ([(1, 1, 2, range(1, 100))] if terms is dense else
                 [(1, 2, 3, range(1, 100)), (2, 2, 3, sieve_primes(100)),
                  (-3, 2, 3, sieve_squarefree(100))])
        at: dict[int, int] = {}
        for w, i, j, members in parts:
            for n in members:
                at[i * n**j] = at.get(i * n**j, 0) + w
        depth = min(e for e, c in at.items() if e > width and c % b)
        m = sum(w * brute_series_mantissa(b, i, j, [n for n in members if i * n**j <= depth],
                                          lambda n: 1, depth)
                for w, i, j, members in parts)
        assert (m < 0) == (result["sign"] == "-")
        expected = {brute_digit_string(x // b ** (depth - width), b, width)
                    for x in (abs(m) - 1, abs(m), abs(m) + 1)}
        assert expected == {result["value_digits"][:width]}
