"""Span tracing of lacunary's layers, installed from outside the package.

``Tracer.install`` replaces each traced function, wherever a lacunary module
namespace or class holds it (including copies made by ``from .arith import
factor``), with a wrapper that records a span: name, start, end and parent.
Spans are aggregated in memory by (name, parent); a span's self time is its
duration minus the time its child spans cover.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

# module -> traced attributes ("Class.method" for methods).  Span names are
# "<module>.<function>", methods drop the class: "sets.contains".
TRACED = {
    "lacunary.cli": ("main", "run_job"),
    "lacunary.series": ("eval_series", "eval_linear_form", "render_digits", "fraction_sci",
                        "coefficient_at", "gap_scan", "exclusion_window_check"),
    "lacunary.sets": ("ExponentSet.contains", "ExponentSet.members_up_to",
                      "set_contains", "set_enumerate"),
    "lacunary.arith": ("is_prime", "factor", "int_nth_root", "is_exponent_image", "crt_solve"),
    "lacunary.forge": ("find_witnesses", "build_congruence_system", "find_prime",
                       "verify_exclusions", "build_certificate"),
    "lacunary.dependence": ("enumerate_equation_solutions", "build_counterexample",
                            "independence_conditions", "pell_fundamental", "pell_iter"),
    "lacunary.relations": ("lll_reduce", "verify_relation", "search_relations", "find_relation"),
}

ROOT = "<job>"

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.calls", "count"), ("cli.io_s", "s"), ("cli.run_job.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("series.render_digits.calls", "count"), ("series.render_digits.self_s", "s"),
    ("series.render_digits.digits", "count"),
    ("series.fraction_sci.calls", "count"), ("series.fraction_sci.self_s", "s"),
    ("series.eval_series.calls", "count"), ("series.eval_series.self_s", "s"),
    ("series.eval_series.digits", "count"), ("series.eval_linear_form.self_s", "s"),
    ("series.coefficient_at.calls", "count"), ("series.coefficient_at.self_s", "s"),
    ("series.gap_scan.calls", "count"), ("series.gap_scan.self_s", "s"),
    ("series.gap_scan.positions", "count"), ("series.gap_scan.nonzero_ratio", "ratio"),
    ("sets.contains.calls", "count"), ("sets.contains.self_s", "s"),
    ("sets.contains.hit_ratio", "ratio"),
    ("sets.members_up_to.calls", "count"), ("sets.members_up_to.self_s", "s"),
    ("sets.members_up_to.members", "count"),
    ("arith.is_prime.calls", "count"), ("arith.is_prime.self_s", "s"),
    ("arith.is_prime.big_calls", "count"),
    ("arith.factor.calls", "count"), ("arith.factor.self_s", "s"),
    ("arith.int_nth_root.calls", "count"), ("arith.int_nth_root.self_s", "s"),
    ("arith.is_exponent_image.calls", "count"), ("arith.is_exponent_image.self_s", "s"),
    ("arith.is_exponent_image.hit_ratio", "ratio"),
    ("arith.crt_solve.calls", "count"), ("arith.crt_solve.self_s", "s"),
    ("forge.find_witnesses.calls", "count"), ("forge.find_witnesses.self_s", "s"),
    ("forge.factor_per_witness", "ratio"),
    ("forge.find_prime.calls", "count"), ("forge.find_prime.self_s", "s"),
    ("forge.prime_yield", "ratio"),
    ("forge.verify_exclusions.calls", "count"), ("forge.verify_exclusions.self_s", "s"),
    ("forge.exclusion_pass_ratio", "ratio"), ("forge.modulus_bits", "bits"),
    ("dependence.enumerate_equation_solutions.calls", "count"),
    ("dependence.enumerate_equation_solutions.self_s", "s"),
    ("dependence.enumerate_equation_solutions.candidates", "count"),
    ("dependence.build_counterexample.calls", "count"),
    ("dependence.build_counterexample.self_s", "s"),
    ("dependence.independence_conditions.self_s", "s"),
    ("dependence.pell_fundamental.calls", "count"), ("dependence.pell_fundamental.self_s", "s"),
    ("relations.lll_reduce.calls", "count"), ("relations.lll_reduce.self_s", "s"),
    ("relations.lll_reduce.dim", "count"), ("relations.lll_reduce.entry_bits", "bits"),
    ("relations.verify_relation.calls", "count"), ("relations.verify_relation.self_s", "s"),
    ("relations.search_relations.self_s", "s"), ("relations.search_relations.found_ratio", "ratio"),
    ("series.render_digits.growth", "exponent"), ("series.eval_series.growth", "exponent"),
    ("series.gap_scan.growth", "exponent"), ("relations.lll_reduce.growth", "exponent"),
    ("trace.overhead", "ratio"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Per-call observers: (tracer, args, kwargs, result, self_s) -> None.  They
# run after the span closes, so their cost lands in the caller's self time.
def _render_digits(tr, args, kwargs, result, self_s):
    value, count = _arg(args, kwargs, 0, "v"), _arg(args, kwargs, 1, "count")
    tr.add("series.render_digits.digits", count)
    full = value.scale - count <= tr.guard_digits
    tr.sample("series.render_digits", count, (value.base, full), self_s)


def _eval_series(tr, args, kwargs, result, self_s):
    spec, b, digits = (_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "b"),
                       _arg(args, kwargs, 2, "digits"))
    tr.add("series.eval_series.digits", digits)
    tr.sample("series.eval_series", digits, (b, spec.i, spec.j, spec.set.kind), self_s)


def _gap_scan(tr, args, kwargs, result, self_s):
    form = _arg(args, kwargs, 0, "form")
    start, end = _arg(args, kwargs, 1, "range_start"), _arg(args, kwargs, 2, "range_end")
    width = end - start + 1
    tr.add("series.gap_scan.positions", width)
    tr.add("series.gap_scan.nonzero", width - sum(length for _, length in result))
    tr.sample("series.gap_scan", width, (len(form.terms), start.bit_length() // 16), self_s)


def _hit(counter):
    def observe(tr, args, kwargs, result, self_s):
        tr.add(counter, result is not None and result is not False)
    return observe


def _members_up_to(tr, args, kwargs, result, self_s):
    tr.add("sets.members_up_to.members", len(result))


def _is_prime(tr, args, kwargs, result, self_s):
    if _arg(args, kwargs, 0, "n") >= 2**64:
        tr.add("arith.is_prime.big_calls", 1)


def _lll_reduce(tr, args, kwargs, result, self_s):
    rows = _arg(args, kwargs, 0, "rows")
    bits = max((abs(int(x)).bit_length() for row in rows for x in row), default=0)
    tr.add("relations.lll_reduce.dim", len(rows))
    tr.add("relations.lll_reduce.entry_bits", bits)
    tr.sample("relations.lll_reduce", bits, len(rows), self_s)


def _count(counter, measure):
    def observe(tr, args, kwargs, result, self_s):
        tr.add(counter, measure(result))
    return observe


OBSERVERS = {
    "series.render_digits": _render_digits,
    "series.eval_series": _eval_series,
    "series.gap_scan": _gap_scan,
    "sets.contains": _hit("sets.contains.hits"),
    "sets.members_up_to": _members_up_to,
    "arith.is_prime": _is_prime,
    "arith.is_exponent_image": _hit("arith.is_exponent_image.hits"),
    "forge.find_witnesses": _count("forge.witnesses", len),
    "forge.find_prime": _count("forge.primes_found", lambda q: 1),
    "forge.verify_exclusions": _count("forge.exclusions_held", lambda r: int(r.holds)),
    "forge.build_congruence_system": _count("forge.modulus_bits", lambda s: s.modulus.bit_length()),
    "relations.lll_reduce": _lll_reduce,
    "relations.search_relations": _count("relations.relations_found",
                                         lambda r: int(r.relation is not None)),
}


class Tracer:
    """Span aggregation for one process; install() wraps, uninstall() restores."""

    def __init__(self):
        self.frames: list[list] = [[ROOT, 0.0]]       # [name, child time] stack
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}            # name -> [[size, group, self_s], ...]
        self.self_sum = [0.0]
        self.missing: list[str] = []
        self._originals: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []     # (owner, attr, original)
        self.guard_digits = importlib.import_module("lacunary.series").GUARD_DIGITS

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def sample(self, name: str, size, group, self_s: float) -> None:
        self.samples.setdefault(name, []).append([size, repr(group), self_s])

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str):
        frames, spans, self_sum = self.frames, self.spans, self.self_sum
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def close(frame, parent, elapsed):
            parent[1] += elapsed
            own = elapsed - frame[1]
            self_sum[0] += own
            row = spans.get((name, parent[0]))
            if row is None:
                row = spans[(name, parent[0])] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += elapsed
            row[2] += own
            return own

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the work inside the generator body
            # is charged to it and not to whoever iterates.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    parent, frame = frames[-1], [name, 0.0]
                    frames.append(frame)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        frames.pop()
                        close(frame, parent, elapsed)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, frame = frames[-1], [name, 0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                own = close(frame, parent, elapsed)
            if observe is not None:
                observe(self, args, kwargs, result, own)
            return result
        return traced

    @staticmethod
    def _lacunary_namespaces():
        """Every module namespace and class dict a lacunary module defines."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lacunary" or mod_name.startswith("lacunary.")):
                continue
            yield module
            for value in list(vars(module).values()):
                if inspect.isclass(value) and value.__module__.startswith("lacunary"):
                    yield value

    def install(self) -> None:
        self.missing = []
        for mod_name, attrs in TRACED.items():
            module = importlib.import_module(mod_name)
            short = mod_name.split(".")[-1]
            for attr in attrs:
                owner, _, field = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = vars(holder).get(field)
                if not callable(original):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(original, f"{short}.{field}")
                self._originals[id(original)] = (original, wrapper)
        for holder in self._lacunary_namespaces():
            for field, value in list(vars(holder).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(holder, field, entry[1])
                    self._patched.append((holder, field, value))

    def uninstall(self) -> None:
        for holder, field, original in reversed(self._patched):
            setattr(holder, field, original)
        self._patched.clear()

    def coverage_problems(self) -> list[str]:
        """Places that still hold an unwrapped traced function."""
        problems = []
        for holder in self._lacunary_namespaces():
            for field, value in vars(holder).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    problems.append(f"{getattr(holder, '__name__', holder)}.{field} is unwrapped")
        return problems

    # ------------------------------------------------------------ per job

    def job_mark(self) -> tuple[float, float]:
        return self.frames[0][1], self.self_sum[0]

    def job_problems(self, mark: tuple[float, float]) -> list[str]:
        """The job's self times must add up to its root span."""
        root = self.frames[0][1] - mark[0]
        selfs = self.self_sum[0] - mark[1]
        problems = []
        if len(self.frames) != 1:
            problems.append(f"{len(self.frames) - 1} spans left open")
        if abs(root - selfs) > 1e-6 + 1e-9 * root:
            problems.append(f"self times sum to {selfs:.9f} s, root span is {root:.9f} s")
        return problems

    def summary(self) -> dict:
        return {"spans": [[n, p, *row] for (n, p), row in sorted(self.spans.items())],
                "counters": self.counters, "samples": self.samples,
                "missing": self.missing}


# ---------------------------------------------------------------- metrics

def _growth(samples) -> float:
    """Log-log slope of self time on size, with one intercept per group."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for size, group, self_s in samples:
        if size > 0 and self_s > 0:
            groups.setdefault(group, []).append((math.log(size), math.log(self_s)))
    num = den = 0.0
    for points in groups.values():
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        num += sum((x - mx) * (y - my) for x, y in points)
        den += sum((x - mx) ** 2 for x, _ in points)
    return num / den if den > 0 else 0.0


def per_layer_metrics(summary: dict, report_bytes: int, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run; 0 where a layer did no work."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    under: dict[tuple[str, str], int] = {}
    for name, parent, n, _total, own in summary["spans"]:
        calls[name] = calls.get(name, 0) + n
        self_s[name] = self_s.get(name, 0.0) + own
        under[(name, parent)] = under.get((name, parent), 0) + n
    counters = summary["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(stem, 0)
        elif field == "self_s":
            out[name] = self_s.get(stem, 0.0)
        elif field == "growth":
            out[name] = _growth(summary["samples"].get(stem, []))
    out["cli.calls"] = calls.get("cli.main", 0)
    out["cli.io_s"] = self_s.get("cli.main", 0.0)
    out["cli.report_bytes"] = report_bytes
    out["series.render_digits.digits"] = counters.get("series.render_digits.digits", 0)
    out["series.eval_series.digits"] = counters.get("series.eval_series.digits", 0)
    positions = counters.get("series.gap_scan.positions", 0)
    out["series.gap_scan.positions"] = positions
    out["series.gap_scan.nonzero_ratio"] = ratio(counters.get("series.gap_scan.nonzero", 0), positions)
    out["sets.contains.hit_ratio"] = ratio(counters.get("sets.contains.hits", 0),
                                           calls.get("sets.contains", 0))
    out["sets.members_up_to.members"] = counters.get("sets.members_up_to.members", 0)
    out["arith.is_prime.big_calls"] = counters.get("arith.is_prime.big_calls", 0)
    out["arith.is_exponent_image.hit_ratio"] = ratio(
        counters.get("arith.is_exponent_image.hits", 0), calls.get("arith.is_exponent_image", 0))
    out["forge.factor_per_witness"] = ratio(under.get(("arith.factor", "forge.find_witnesses"), 0),
                                            counters.get("forge.witnesses", 0))
    out["forge.prime_yield"] = ratio(counters.get("forge.primes_found", 0),
                                     under.get(("arith.is_prime", "forge.find_prime"), 0))
    out["forge.exclusion_pass_ratio"] = ratio(counters.get("forge.exclusions_held", 0),
                                              calls.get("forge.verify_exclusions", 0))
    out["forge.modulus_bits"] = ratio(counters.get("forge.modulus_bits", 0),
                                      calls.get("forge.build_congruence_system", 0))
    out["dependence.enumerate_equation_solutions.candidates"] = under.get(
        ("arith.is_exponent_image", "dependence.enumerate_equation_solutions"), 0)
    lll_calls = calls.get("relations.lll_reduce", 0)
    out["relations.lll_reduce.dim"] = ratio(counters.get("relations.lll_reduce.dim", 0), lll_calls)
    out["relations.lll_reduce.entry_bits"] = ratio(
        counters.get("relations.lll_reduce.entry_bits", 0), lll_calls)
    out["relations.search_relations.found_ratio"] = ratio(
        counters.get("relations.relations_found", 0), calls.get("relations.search_relations", 0))
    out["trace.overhead"] = overhead
    return {name: out[name] for name, _unit in PER_LAYER}
