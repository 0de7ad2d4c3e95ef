"""Independent output checker for benchmark reports.

It checks soundness, not byte identity: unflagged digits against a deeper
evaluation built from the brute-force oracles in ``tests/oracles.py``, gap
runs against a direct i*k**j scan, forge certificates by modular arithmetic
with ``sympy.isprime`` for the primes, and relations by an exact residual.
Nothing here imports lacunary.

It converts long digit strings with ``int(s, base)``, so it runs in the
benchmark's parent process with the int/str digit limit lifted; no job runs
in that process.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import sympy

# The program's guard digits (lacunary.series.GUARD_DIGITS); jobs.py uses
# them too, to predict the known fraction_sci failures.
GUARD_DIGITS = 16
_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
# Below this, primality and squarefreeness come from the oracles' trial
# division; above it from sympy.
_TRIAL_LIMIT = 10**8
KNOWN_DEFECT_MESSAGE = "integer string conversion"
# The generator draws pair scales i from 3-smooth numbers, for which every
# minimal collision witness (u, v) stays below this cap (the largest is 1296).
COLLISION_CAP = 1500


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("lacunary_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Checker:
    """Checks one report against the job spec that produced it."""

    def __init__(self, oracles):
        self.oracles = oracles
        self._pell: dict[int, list[tuple[int, int]]] = {}

    def check(self, job: dict, code: int, report: dict | None) -> list[str]:
        """Problems with one job's outcome; empty when it is sound."""
        command = job["command"]
        if report is None:
            return [f"exit {code} without a report"]
        if report.get("command") != command or report.get("tool") != "lacunary":
            return ["report names the wrong tool or command"]
        return getattr(self, "_" + command)(job["spec"], code, report, job)

    # ------------------------------------------------------------ sets

    def _pell_pairs(self, D: int, limit: int) -> list[tuple[int, int]]:
        """Solutions of x^2 - D y^2 = 1 in increasing order, past limit in x and y."""
        pairs = self._pell.get(D)
        if pairs is None:
            pairs = self._pell[D] = [self.oracles.brute_pell_fundamental(D)]
        x1, y1 = pairs[0]
        while pairs[-1][1] <= limit:
            x, y = pairs[-1]
            pairs.append((x * x1 + D * y * y1, x * y1 + y * x1))
        return pairs

    def contains(self, s: dict, k: int) -> bool:
        if k < max(1, s.get("min", 1)):
            return False
        kind = s["kind"]
        if kind == "naturals":
            return True
        if kind == "primes":
            return self._is_prime(k)
        if kind == "primes_in_ap":
            return k % s["d"] == s["h"] % s["d"] and self._is_prime(k)
        if kind == "squarefree":
            return self._is_squarefree(k)
        if kind == "explicit":
            return k in s["members"]
        if kind == "geometric":
            if k % s["u"]:
                return False
            q = k // s["u"]
            return q & (q - 1) == 0 and (q.bit_length() - 1) % s["j"] == 0
        if kind == "pell_x":
            return any(x == k for x, _ in self._pell_pairs(s["D"], k))
        if kind == "pell_y":
            return any(s.get("scale", 1) * y == k for _, y in self._pell_pairs(s["D"], k))
        raise ValueError(f"unknown set kind {kind!r}")

    def members(self, s: dict, limit: int) -> list[int]:
        """Members of s up to limit, increasing."""
        kind = s["kind"]
        if limit < 1:
            return []
        if kind == "primes":
            candidates = self.oracles.sieve_primes(limit)
        elif kind == "squarefree":
            candidates = self.oracles.sieve_squarefree(limit)
        elif kind == "explicit":
            candidates = [m for m in s["members"] if m <= limit]
        elif kind == "geometric":
            candidates = [s["u"] << (s["j"] * m)
                          for m in range(max(limit // s["u"], 1).bit_length())]
        elif kind in ("pell_x", "pell_y"):
            pairs = self._pell_pairs(s["D"], limit)
            candidates = sorted(x if kind == "pell_x" else s.get("scale", 1) * y
                                for x, y in pairs)
        else:
            candidates = range(1, limit + 1)
        return [k for k in candidates if k <= limit and self.contains(s, k)]

    def _is_prime(self, k: int) -> bool:
        return self.oracles.trial_is_prime(k) if k < _TRIAL_LIMIT else bool(sympy.isprime(k))

    @staticmethod
    def _is_squarefree(k: int) -> bool:
        if k < _TRIAL_LIMIT:
            d = 2
            while d * d <= k:
                if k % (d * d) == 0:
                    return False
                d += 1
            return True
        return all(e == 1 for e in sympy.factorint(k).values())

    @staticmethod
    def coeff(c: dict, n: int) -> int:
        if c["kind"] == "const":
            return c["value"]
        if c["kind"] == "alternating":
            return -1 if n % 2 else 1
        return c["values"][str(n)]

    @staticmethod
    def coeff_bound(c: dict) -> int:
        if c["kind"] == "const":
            return abs(c["value"])
        if c["kind"] == "alternating":
            return 1
        return c.get("bound", max(abs(v) for v in c["values"].values()))

    # ------------------------------------------------------------ series values

    def series_interval(self, b: int, i: int, j: int, s: dict, c: dict,
                        depth: int) -> tuple[Fraction, Fraction]:
        """(partial sum over exponents <= depth, bound on everything omitted)."""
        n_cap = sympy.integer_nthroot(depth // i, j)[0] if i <= depth else 0
        members = self.members(s, n_cap)
        value = self.oracles.series_partial_sum(b, i, j, members, lambda n: self.coeff(c, n))
        if s["kind"] == "explicit" and all(i * m**j <= depth for m in s["members"]):
            return value, Fraction(0)
        return value, Fraction(self.coeff_bound(c), (b - 1) * b**depth)

    def form_interval(self, spec: dict, depth: int) -> tuple[Fraction, Fraction]:
        b = spec["base"]
        value, error = Fraction(spec.get("constant", 0)), Fraction(0)
        for t in spec["terms"]:
            v, e = self.series_interval(b, t["i"], t["j"], t["set"],
                                        t.get("coeff", {"kind": "const", "value": 1}), depth)
            value += t.get("weight", 1) * v
            error += abs(t.get("weight", 1)) * e
        return value, error

    # ------------------------------------------------------------ commands

    def _digit_job(self, spec, code, report, digits_key) -> list[str]:
        if code != 0 or report.get("status") != "ok":
            return [f"exit {code}, status {report.get('status')!r}"]
        b = spec["base"]
        count = spec.get("count", spec["digits"])
        result = report["result"]
        digits, flagged = result[digits_key], result["uncertain_positions"]
        if len(digits) != count or any(ch not in _DIGIT_CHARS[:b] for ch in digits):
            return [f"digit string is not {count} base-{b} digits"]
        first_flag = flagged[0] if flagged else count + 1
        if flagged != list(range(first_flag, count + 1)):
            return ["flagged positions do not form a suffix"]
        certain = first_flag - 1
        if certain == 0:
            return []
        extra = 32
        for _ in range(4):
            value, error = self.form_interval(spec, count + GUARD_DIGITS + extra)
            lo, hi = value - error, value + error
            if lo > 0 or hi < 0:
                small, large = (lo, hi) if lo > 0 else (-hi, -lo)
                scale = b**certain
                lo_prefix = small.numerator * scale // small.denominator
                hi_prefix = large.numerator * scale // large.denominator
                if lo_prefix == hi_prefix:
                    # The report holds fractional digits only: drop the integer part.
                    problems = []
                    if int(digits[:certain], b) != lo_prefix % scale:
                        problems.append(f"unflagged digits 1..{certain} differ from the oracle")
                    if result["sign"] != ("+" if lo > 0 else "-"):
                        problems.append("sign differs from the oracle")
                    return problems
            elif hi - lo < Fraction(1, b**certain):
                # |true value| < one unit of the last unflagged digit.
                return [] if digits[:certain] == "0" * certain else [
                    "unflagged digits are nonzero but the value is within error of 0"]
            extra *= 4
        return ["oracle could not decide the unflagged digits"]

    def _eval(self, spec, code, report, job):
        return self._digit_job(spec, code, report, "value_digits")

    def _digits(self, spec, code, report, job):
        return self._digit_job(spec, code, report, "digits")

    def _gaps(self, spec, code, report, job):
        if code != 0:
            return [f"exit {code}"]
        start, end = spec["range"]
        coeffs: dict[int, int] = {}
        for t in spec["terms"]:
            i, j, w = t["i"], t["j"], t.get("weight", 1)
            c = t.get("coeff", {"kind": "const", "value": 1})
            k_lo = _ceil_root(-(-start // i), j)
            k_hi = sympy.integer_nthroot(end // i, j)[0]
            for k in range(max(k_lo, 1), k_hi + 1):
                if self.contains(t["set"], k):
                    pos = i * k**j
                    coeffs[pos] = coeffs.get(pos, 0) + w * self.coeff(c, k)
        runs, cursor = [], start
        for pos in sorted(p for p, v in coeffs.items() if v):
            if pos > cursor:
                runs.append([cursor, pos - cursor])
            cursor = pos + 1
        if cursor <= end:
            runs.append([cursor, end - cursor + 1])
        result = report["result"]
        problems = []
        if result["runs"] != runs:
            problems.append("zero runs differ from the oracle scan")
        if result["longest"] != max((n for _, n in runs), default=0):
            problems.append("longest run is wrong")
        return problems

    def _forge(self, spec, code, report, job):
        if code != 0:
            return [f"exit {code}"]
        r = report["result"]
        system, excl = r["system"], r["exclusions"]
        i0, j0, window = spec["i0"], spec["j0"], spec["N"]
        d, h, p_min = spec.get("d", 1), spec.get("h", 1), spec.get("p_min", 2)
        problems = []
        if (system["i0"], system["j0"], system["window"], system["d"], system["h"]) != (
                i0, j0, window, d, h):
            problems.append("system parameters differ from the spec")
        offsets = [w["offset"] for w in system["witnesses"]]
        if sorted(offsets) != [l for l in range(1, 2 * window) if l != window]:
            problems.append("witness offsets do not cover 1..2N-1 without N")
        modulus, primes = d, set()
        for w in system["witnesses"]:
            p, x, v = w["p"], w["x"], w["v"]
            psq = p * p
            if (w["k"], w["u"], v) != (j0, i0, w["offset"] - window):
                problems.append(f"witness at offset {w['offset']} has the wrong polynomial")
            if p <= max(p_min, window, j0, i0, abs(v)) or not sympy.isprime(p):
                problems.append(f"witness p={p} is not an eligible prime")
            if (i0 * pow(x, j0, psq) + v - p) % psq:
                problems.append(f"witness p={p} fails u*x^k+v = p (mod p^2)")
            if p in primes or math.gcd(p, d) != 1:
                problems.append(f"witness p={p} repeats or divides d")
            primes.add(p)
            modulus *= psq
        sol = system["solution"]
        if system["modulus"] != modulus or not 0 <= sol < modulus:
            problems.append("combined modulus is wrong")
        if sol % d != h % d or any((sol - w["x"]) % (w["p"] ** 2) for w in system["witnesses"]):
            problems.append("CRT solution misses a congruence")
        q = r["q"]
        if (q - sol) % modulus or (spec.get("require_large", True) and q <= modulus):
            problems.append("q is not a large member of the progression")
        if not sympy.isprime(q):
            problems.append("q is not prime")
        if r["q_primality"] != ("exact" if q < 2**64 else "probable"):
            problems.append("q_primality label is wrong")
        family = [list(p) for p in spec["family"]]
        center = i0 * q**j0
        if excl["center"] != center or excl["window"] != window or excl["family"] != family:
            problems.append("exclusion report describes another window")
        if not excl["holds"] or excl["violations"]:
            problems.append("certificate reports a violated window")
        for u in range(1, window):
            for n in (center - u, center + u):
                for i, j in family:
                    if n % i == 0 and sympy.integer_nthroot(n // i, j)[1]:
                        problems.append(f"position {n} = {i}*k^{j} inside the window")
        return problems

    def _check(self, spec, code, report, job):
        pairs = [tuple(p) for p in spec["family"]]
        expected = []
        for a in range(len(pairs)):
            for c in range(a + 1, len(pairs)):
                w = self.oracles.brute_collision(*pairs[a], *pairs[c], cap=COLLISION_CAP)
                if w is not None:
                    expected.append({"pair1": list(pairs[a]), "pair2": list(pairs[c]),
                                     "u": w[0], "v": w[1]})
        squares = [list(p) for p in pairs if p[1] == 2]
        satisfied = not expected and len(squares) <= 1
        r = report["result"]
        problems = []
        if r["collisions"] != expected:
            problems.append("collisions differ from brute_collision")
        if r["square_exponent_pairs"] != squares or r["satisfied"] != satisfied:
            problems.append("square-exponent verdict is wrong")
        if code != (0 if satisfied else 1):
            problems.append(f"exit {code} does not match the verdict")
        return problems

    def _counterexample(self, spec, code, report, job):
        (i1, j1), (i2, j2) = spec["pair1"], spec["pair2"]
        b = spec["base"]
        r = report["result"]
        w = self.oracles.brute_collision(i1, j1, i2, j2, cap=COLLISION_CAP)
        if w is not None:
            u, v = w
            expected = {"kind": "scaled_sets", "weights": [0, 1, -1],
                        "set1": {"kind": "geometric", "u": u, "j": j2},
                        "set2": {"kind": "geometric", "u": v, "j": j1}}
        elif j1 == j2 == 2 and not sympy.integer_nthroot(i1 * i2, 2)[1]:
            D = i1 * i2
            self.oracles.brute_pell_fundamental(D)
            expected = {"kind": "pell", "weights": [0, b**i1, -1],
                        "set1": {"kind": "pell_x", "D": D},
                        "set2": {"kind": "pell_y", "D": D, "scale": i1}}
        else:
            ok = code == 1 and r.get("applicable") is False
            return [] if ok else ["a certificate was built for an independent pair"]
        if code != 0 or not r.get("applicable") or not r.get("verified"):
            return [f"exit {code}: no verified certificate for a dependent pair"]
        got = {key: r[key] for key in expected}
        return [] if got == expected else ["certificate differs from the oracle construction"]

    def _diophantine(self, spec, code, report, job):
        args = [spec[k] for k in ("i0", "j0", "i", "j", "u_max", "x_max")]
        expected = self.oracles.brute_equation_solutions(*args)
        r = report["result"]
        got = {(s["x"], s["y"], s["u"], s["sign"]) for s in r["solutions"]}
        problems = [] if code == 0 else [f"exit {code}"]
        if got != expected or r["count"] != len(expected) or len(r["solutions"]) != len(got):
            problems.append("solutions differ from brute_equation_solutions")
        if r["empirical_bound"] != max((s[0] for s in expected), default=0):
            problems.append("empirical bound is wrong")
        return problems

    def _hunt(self, spec, code, report, job):
        r = report["result"]
        relation = r.get("relation")
        planted = job.get("planted")
        if relation is None:
            if planted is not None:
                return ["planted relation not found"]
            return [] if code == 1 else [f"exit {code} without a relation"]
        if code != 0:
            return [f"exit {code} with a relation"]
        coeffs = relation["coefficients"]
        problems = []
        if planted is not None and coeffs not in (planted, [-c for c in planted]):
            problems.append(f"found {coeffs}, planted {planted}")
        b, precision = spec["base"], spec["precision"]
        depth = precision + GUARD_DIGITS + 32
        total, error = Fraction(0), Fraction(0)
        for c, item in zip(coeffs, spec["values"]):
            if item["kind"] == "int":
                total += c * item["value"]
                continue
            if item["kind"] == "digits":
                # A literal stands for any value within one unit of its last digit.
                scale = b ** len(item["digits"])
                total += c * Fraction(int(item["digits"], b), scale)
                error += abs(c) * Fraction(1, scale)
                continue
            v, e = self.series_interval(b, item["i"], item["j"], item["set"],
                                        item.get("coeff", {"kind": "const", "value": 1}), depth)
            total += c * v
            error += abs(c) * e
        noise = Fraction(1, math.isqrt(b**precision))
        if abs(total) - error > noise:
            problems.append("relation residual exceeds b**-(precision/2)")
        return problems


def _ceil_root(n: int, k: int) -> int:
    """Least r >= 0 with r**k >= n."""
    if n <= 0:
        return 0
    r, exact = sympy.integer_nthroot(n, k)
    return int(r) if exact else int(r) + 1
