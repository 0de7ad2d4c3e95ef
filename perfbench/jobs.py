"""Seeded job specs for the three benchmark workloads.

A workload is its ladder of size rungs below, every rung the same number of
times (COPIES); the seed only picks what varies inside a rung: set kinds,
coefficients, weights, offsets, families, the order of the jobs.  Keeping
the rung sizes fixed keeps the cost of a workload nearly independent of the
seed, so figures from different seeds can be compared.

A job is a dict:
  command      the lacunary subcommand
  rung         a short label of the size rung
  spec         the JSON job spec handed to the program (and nothing else is)
  planted      for hunts with a planted relation, the expected coefficients
  known_defect True when the report is expected to die in fraction_sci:
               str() of an integer past CPython's 4300-digit limit
"""

from __future__ import annotations

import math
import random
import string
from fractions import Fraction

from check import GUARD_DIGITS, Checker

WORKLOADS = ("precision", "windows", "relations")

INT_STR_LIMIT = 4300       # CPython's default int <-> str digit limit
_DIGITS = string.digits + string.ascii_lowercase

# Pell parameters whose fundamental solution the brute-force oracle finds.
PELL_D = (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24)

# How many times each workload runs its whole ladder.  The tail percentile
# (see run.py) needs at least 40 jobs to have 10 beyond p75; the precision
# ladder has 21 rungs, so it runs twice.  An odd rung count puts the median
# and p75 of the 42 jobs between two copies of one rung, not on the step
# between two rungs.
COPIES = {"precision": 2, "windows": 1, "relations": 1}

# Precision ladder: (base, digits).  Full-count eval/digits jobs, dominated
# by render_digits.
PRECISION_LADDER = (
    (10, 500), (10, 1000), (10, 2000), (10, 4000), (10, 5000),
    (3, 1000), (3, 2000), (3, 4000), (3, 6000), (3, 8000),
    (2, 2000), (2, 4000), (2, 8000), (2, 16000),
)
# Deep rung: digits jobs with count 64, dominated by eval_series.
DEEP_LADDER = ((2, 20000), (2, 60000), (2, 100000), (2, 150000),
               (3, 20000), (3, 50000), (3, 100000))
DEEP_COUNT = 64

# Windows ladder.  Gap forms use fixed (i, j) slots so that the number of
# root extractions per position, hence the cost, does not depend on the seed.
GAP_OFFSETS = (1, 10**12, 10**30)
GAP_WIDTHS = (5000, 20000, 50000)
GAP_TERM_COUNTS = (2, 6, 12)
GAP_I_SLOTS = (1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3)
GAP_J_SLOTS = (2, 3, 2, 2, 4, 3, 2, 3, 2, 5, 2, 4)
FORGE_LADDER = ((4, 2), (12, 2), (24, 2), (40, 2), (4, 10**3), (4, 10**4))  # (N, p_min)
DIOPHANTINE_LADDER = ((10**3, 1), (10**3, 20), (10**4, 1), (10**4, 20))  # (x_max, u_max)
DIOPHANTINE_EXPONENTS = ((3, 2), (2, 3))  # (j0, j), one job each

# Relations ladder: (base, n, precision).  Each rung runs once with a
# planted Pell relation and once over independent constants.  n=8 stops at
# P=600 in base 2 and P=150 in base 10, n=5 at P=300 in base 10, n=3 at
# P=600 in base 10: each next rung takes 3-20 s.
HUNT_LADDER = tuple((2, n, p) for n in (3, 5, 8) for p in (150, 300, 600, 1000)
                    if (n, p) != (8, 1000)) + (
    (10, 3, 150), (10, 3, 300), (10, 3, 600), (10, 5, 150), (10, 5, 300), (10, 8, 150))
HUNT_COEFF_BOUND = 1000
# (i1, i2) of planted Pell pairs: D = i1*i2 has fundamental solution (x, y)
# with i1*x^2 <= 36 and i2*(i1*y)^2 <= 36, a quarter of the least precision,
# so neither value is small enough to give a one-term relation.
PLANTED_PAIRS = ((1, 2), (2, 1), (1, 3), (3, 1), (1, 8), (1, 15))
COUNTEREXAMPLE_PRECISIONS = (200, 500, 1000, 2000, 3000)
COUNTEREXAMPLE_SHAPES = ("pell", "collision", "other")
CHECK_FAMILY_SIZES = (2, 3, 4, 5, 6)
# The check and counterexample jobs are mostly CLI work, and the CLI and
# build_counterexample are predicted to move the median job of relations, so
# they must outnumber the 34 hunts: each of their 10 rungs runs 4 times.
CLI_JOB_COPIES = 4


def workload_jobs(workload: str, seed: int) -> list[dict]:
    """The jobs of one workload, in seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job for _ in range(COPIES[workload]) for job in _BUILDERS[workload](rng)]
    rng.shuffle(jobs)
    return jobs


def trivial_job() -> tuple[str, dict]:
    """A job that touches the lazy trial-prime sieve (factor) and little else."""
    return "check", {"command": "check", "family": [[1, 2], [2, 4]]}


# ---------------------------------------------------------------- helpers

def _job(command, rung, spec, planted=None, known_defect=False) -> dict:
    return {"command": command, "rung": rung, "spec": {"command": command, **spec},
            "planted": planted, "known_defect": known_defect}


def _infinite_set(rng: random.Random, kinds=None) -> dict:
    kinds = kinds or ("naturals", "primes", "primes_in_ap", "squarefree",
                      "geometric", "pell_x", "pell_y")
    kind = rng.choice(kinds)
    obj: dict = {"kind": kind}
    if kind == "primes_in_ap":
        d = rng.choice((3, 4, 5, 6, 8, 10, 12))
        obj.update(d=d, h=rng.choice([h for h in range(1, d) if math.gcd(h, d) == 1]))
    elif kind == "geometric":
        obj.update(u=rng.randint(1, 5), j=rng.randint(2, 3))
    elif kind == "pell_x":
        obj["D"] = rng.choice(PELL_D)
    elif kind == "pell_y":
        obj.update(D=rng.choice(PELL_D), scale=rng.randint(1, 3))
    if rng.random() < 0.2:
        obj["min"] = rng.randint(2, 5)
    return obj


def _plain_coeff(rng: random.Random) -> dict:
    if rng.random() < 0.3:
        return {"kind": "alternating"}
    return {"kind": "const", "value": rng.choice((-3, -2, -1, 1, 2, 3, 5))}


def _explicit_term(rng: random.Random, weight: int, i: int, j: int = 2) -> dict:
    """An explicit set of members <= 12 with a table coefficient."""
    members = sorted(rng.sample(range(1, 13), rng.randint(2, 6)))
    values = {str(m): rng.choice((-4, -1, 1, 2, 7)) for m in members}
    coeff: dict = {"kind": "table", "values": values}
    if rng.random() < 0.5:
        coeff["bound"] = 9
    return {"weight": weight, "i": i, "j": j,
            "set": {"kind": "explicit", "members": members}, "coeff": coeff}


def _weight(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 1, 2, 3))


def _fraction_sci_overflows(base: int, digits: int, terms: list[dict]) -> bool:
    """Whether the report's error bound has more than INT_STR_LIMIT decimal digits.

    Explicit terms are generated small enough to be summed exactly, so only
    the infinite terms contribute to the error bound.
    """
    mass = sum(abs(t["weight"]) * Checker.coeff_bound(t["coeff"])
               for t in terms if t["set"]["kind"] != "explicit")
    bound = Fraction(mass, (base - 1) * base ** (digits + GUARD_DIGITS))
    return bound != 0 and max(bound.numerator, bound.denominator) >= 10**INT_STR_LIMIT


# ---------------------------------------------------------------- precision

def _precision_terms(rng: random.Random) -> list[dict]:
    """1-4 terms over every set and coefficient kind.

    The first term is a dense head whose leading exponent is at most 24, so
    every value has close to `digits` significant digits and the cost of
    rendering them depends on the rung, not on the seed.
    """
    count = rng.randint(1, 4)
    terms = []
    if count >= 2 and rng.random() < 0.4:
        # Cancelling weights: naturals minus a subset over the same exponents.
        i, j = rng.randint(1, 3), rng.randint(2, 3)
        w = rng.choice((1, 2))
        terms.append({"weight": w, "i": i, "j": j, "set": {"kind": "naturals"},
                      "coeff": {"kind": "const", "value": 1}})
        terms.append({"weight": -w, "i": i, "j": j,
                      "set": {"kind": rng.choice(("primes", "squarefree"))},
                      "coeff": {"kind": "const", "value": 1}})
    else:
        terms.append({"weight": _weight(rng), "i": rng.randint(1, 3), "j": rng.randint(2, 3),
                      "set": {"kind": rng.choice(("naturals", "squarefree", "primes"))},
                      "coeff": _plain_coeff(rng)})
    while len(terms) < count:
        if rng.random() < 0.25:
            terms.append(_explicit_term(rng, _weight(rng), rng.randint(1, 3)))
        else:
            terms.append({"weight": _weight(rng), "i": rng.randint(1, 3),
                          "j": rng.randint(2, 4), "set": _infinite_set(rng),
                          "coeff": _plain_coeff(rng)})
    return terms


def _precision(rng: random.Random) -> list[dict]:
    jobs = []
    for base, digits in PRECISION_LADDER:
        terms = _precision_terms(rng)
        command = rng.choice(("eval", "digits"))
        spec = {"base": base, "digits": digits, "terms": terms}
        if command == "digits":
            spec["count"] = digits
        if rng.random() < 0.2:
            spec["constant"] = rng.choice((-1, 1, 2))
        jobs.append(_job(command, f"b{base}-d{digits}", spec,
                         known_defect=_fraction_sci_overflows(base, digits, terms)))
    for base, digits in DEEP_LADDER:
        # Fixed dense head term (naturals, i=1, j=2) so eval_series cost is
        # set by the rung; the seed picks its coefficient and a sparse partner
        # with a handful of members.
        terms = [{"weight": 1, "i": 1, "j": 2, "set": {"kind": "naturals"},
                  "coeff": rng.choice(({"kind": "const", "value": 1}, {"kind": "alternating"}))},
                 {"weight": _weight(rng), "i": rng.randint(2, 3), "j": rng.randint(2, 3),
                  "set": _infinite_set(rng, ("pell_x", "pell_y", "geometric")),
                  "coeff": _plain_coeff(rng)}]
        spec = {"base": base, "digits": digits, "count": DEEP_COUNT, "terms": terms}
        jobs.append(_job("digits", f"deep-b{base}-d{digits}", spec,
                         known_defect=_fraction_sci_overflows(base, digits, terms)))
    return jobs


# ---------------------------------------------------------------- windows

def _gap_terms(rng: random.Random, count: int, offset: int) -> list[dict]:
    terms = []
    for slot in range(count):
        i, j = GAP_I_SLOTS[slot], GAP_J_SLOTS[slot]
        if slot < 2 or rng.random() < 0.3:
            index_set: dict = {"kind": "naturals"}
        else:
            index_set = _infinite_set(rng, ("primes", "squarefree", "pell_x", "pell_y",
                                            "primes_in_ap"))
        if offset == 1 and slot >= 2 and rng.random() < 0.15:
            terms.append(_explicit_term(rng, _weight(rng), i, j))
            continue
        terms.append({"weight": _weight(rng), "i": i, "j": j, "set": index_set,
                      "coeff": _plain_coeff(rng)})
    return terms


def _cancelling_gap_terms(rng: random.Random) -> list[dict]:
    """Naturals minus primes on one exponent pair, plus two dense terms."""
    w = rng.choice((1, 2))
    sparse = rng.choice(("primes", "squarefree"))
    return [
        {"weight": w, "i": 1, "j": 2, "set": {"kind": "naturals"}, "coeff": {"kind": "const", "value": 1}},
        {"weight": -w, "i": 1, "j": 2, "set": {"kind": sparse}, "coeff": {"kind": "const", "value": 1}},
        {"weight": _weight(rng), "i": 2, "j": 3, "set": {"kind": "naturals"}, "coeff": _plain_coeff(rng)},
        {"weight": _weight(rng), "i": 3, "j": 2, "set": {"kind": "naturals"}, "coeff": _plain_coeff(rng)},
    ]


def _windows(rng: random.Random) -> list[dict]:
    jobs = []
    for offset in GAP_OFFSETS:
        magnitude = "1" if offset == 1 else f"1e{len(str(offset)) - 1}"
        for width in GAP_WIDTHS:
            start = offset if offset == 1 else offset + rng.randrange(10**6)
            for count in GAP_TERM_COUNTS:
                spec = {"base": 2, "range": [start, start + width - 1],
                        "terms": _gap_terms(rng, count, offset)}
                jobs.append(_job("gaps", f"gaps-o{magnitude}-w{width}-t{count}", spec))
            spec = {"base": 2, "range": [start, start + width - 1],
                    "terms": _cancelling_gap_terms(rng)}
            jobs.append(_job("gaps", f"gaps-o{magnitude}-w{width}-cancel", spec))
    pairs = [(i, j) for i in range(1, 5) for j in range(2, 5)]
    for window, p_min in FORGE_LADDER:
        family = sorted(rng.sample(pairs, rng.randint(4, len(pairs))))
        spec = {"i0": 1, "j0": 2, "N": window, "p_min": p_min,
                "family": [list(p) for p in family]}
        if window <= 12 and p_min == 2:
            d = rng.choice((1, 3, 4, 5))
            spec.update(d=d, h=rng.choice([h for h in range(1, d + 1) if math.gcd(h, d) == 1]))
        jobs.append(_job("forge", f"forge-N{window}-p{p_min}", spec))
    for x_max, u_max in DIOPHANTINE_LADDER:
        # Exponents are fixed per copy and i = 1, so every candidate costs one
        # root extraction of a known degree; the seed picks i0.
        for j0, j in DIOPHANTINE_EXPONENTS:
            spec = {"i0": rng.randint(1, 3), "j0": j0, "i": 1, "j": j,
                    "u_max": u_max, "x_max": x_max}
            jobs.append(_job("diophantine", f"dio-x{x_max}-u{u_max}", spec))
    return jobs


# ---------------------------------------------------------------- relations

def _literal(rng: random.Random, base: int, precision: int) -> dict:
    """A random base-b digit string: an independent constant of full entropy.

    Series values with few terms inside the precision make LLL finish early
    by an amount that depends on the seed; literals keep the lattice work
    set by (base, n, precision).
    """
    length = precision + GUARD_DIGITS
    return {"kind": "digits", "digits": "".join(rng.choice(_DIGITS[:base]) for _ in range(length))}


def _hunt(rng: random.Random, base: int, n: int, precision: int, planted: bool) -> dict:
    rung = f"hunt-b{base}-n{n}-P{precision}-{'planted' if planted else 'indep'}"
    spec = {"base": base, "precision": precision, "coeff_bound": HUNT_COEFF_BOUND}
    if planted:
        # b**i1 * sum_x b**-(i1 x^2) == sum_y b**-(i2 (i1 y)^2) over x^2 - i1 i2 y^2 = 1.
        i1, i2 = rng.choice(PLANTED_PAIRS)
        D = i1 * i2
        head = [{"kind": "series", "i": i1, "j": 2, "set": {"kind": "pell_x", "D": D}},
                {"kind": "series", "i": i2, "j": 2, "set": {"kind": "pell_y", "D": D, "scale": i1}},
                {"kind": "int", "value": 1}]
    else:
        # Two dense series: their values have terms all through the precision.
        head = [{"kind": "series", "i": 1, "j": 2,
                 "set": {"kind": rng.choice(("naturals", "squarefree"))},
                 "coeff": rng.choice(({"kind": "const", "value": 1}, {"kind": "alternating"}))},
                {"kind": "series", "i": 2, "j": 2, "set": {"kind": "primes"},
                 "coeff": {"kind": "const", "value": 1}}]
    values = head + [_literal(rng, base, precision) for _ in range(n - len(head))]
    rng.shuffle(values)
    spec["values"] = values
    if not planted:
        return _job("hunt", rung, spec)
    expected = [0] * n
    expected[values.index(head[0])] = base**i1
    expected[values.index(head[1])] = -1
    return _job("hunt", rung, spec, planted=expected)


# 3-smooth pair scales keep minimal collision witnesses small enough for the
# checker's brute-force oracle.
SMOOTH_SCALES = (1, 2, 3, 4, 6, 8, 9, 12)


def _pair_family(rng: random.Random, size: int) -> list[list[int]]:
    pairs = [(i, j) for i in SMOOTH_SCALES for j in range(2, 6)]
    return [list(p) for p in rng.sample(pairs, size)]


def _counterexample_pair(rng: random.Random, shape: str) -> tuple[list[int], list[int]]:
    if shape == "pell":
        i1 = rng.choice((1, 2, 3, 4, 6))
        i2 = rng.choice([i2 for i2 in SMOOTH_SCALES if i2 != i1 and i1 * i2 in PELL_D])
        return [i1, 2], [i2, 2]
    if shape == "collision":
        # i1 * u**j1 == i2 * 1**j2 with i2 = i1 * u**j1.
        i1, j1, u = rng.randint(1, 3), rng.randint(2, 3), rng.randint(2, 3)
        return [i1, j1], [i1 * u**j1, rng.randint(2, 4)]
    return ([rng.choice(SMOOTH_SCALES), rng.randint(3, 5)],
            [rng.choice(SMOOTH_SCALES), rng.randint(3, 5)])


def _relations(rng: random.Random) -> list[dict]:
    jobs = []
    for base, n, precision in HUNT_LADDER:
        jobs.append(_hunt(rng, base, n, precision, planted=True))
        jobs.append(_hunt(rng, base, n, precision, planted=False))
    for copy in range(CLI_JOB_COPIES):
        for index, precision in enumerate(COUNTEREXAMPLE_PRECISIONS):
            shape = COUNTEREXAMPLE_SHAPES[(copy + index) % len(COUNTEREXAMPLE_SHAPES)]
            pair1, pair2 = _counterexample_pair(rng, shape)
            while pair1 == pair2:
                pair1, pair2 = _counterexample_pair(rng, shape)
            spec = {"pair1": pair1, "pair2": pair2, "base": rng.choice((2, 3, 10)),
                    "precision": precision}
            jobs.append(_job("counterexample", f"cex-P{precision}", spec))
        for size in CHECK_FAMILY_SIZES:
            jobs.append(_job("check", f"check-s{size}", {"family": _pair_family(rng, size)}))
    return jobs


_BUILDERS = {"precision": _precision, "windows": _windows, "relations": _relations}
