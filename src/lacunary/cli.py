"""Batch front-end: JSON job specs in, machine-readable reports out.

Every run is deterministic given the same spec; reports embed the normalized
spec and carry no timestamps, so replaying a report's embedded spec
reproduces it byte for byte.

Exit codes: 0 success, 1 verified violation or nothing found, 2 input error,
3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, dependence, forge, relations, series, sets
from .arith import BudgetExceeded
from .series import CoeffFn, FixedPointValue, GUARD_DIGITS, LinearFormSpec, SeriesSpec, fraction_sci

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

COMMANDS = ("eval", "digits", "gaps", "forge", "check", "counterexample",
            "diophantine", "hunt")

_FINITE_NOTE = ("at least one index set is a finite explicit list; its series "
                "is a rational partial sum and is trivially dependent with 1")

_MISSING = object()


class SpecError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


def _get(spec: dict, field: str, kind, default=_MISSING, minimum=None, where=None):
    """spec[field], checked; errors name the field as `where.field` when given."""
    name = field if where is None else f"{where}.{field}"
    if field not in spec:
        if default is _MISSING:
            raise SpecError(name, "required field is missing")
        return default
    val = spec[field]
    if kind is int and isinstance(val, bool):
        raise SpecError(name, "expected an integer, got a boolean")
    if not isinstance(val, kind):
        raise SpecError(name, f"expected {getattr(kind, '__name__', kind)}")
    if minimum is not None and val < minimum:
        raise SpecError(name, f"must be >= {minimum}")
    return val


def _parse_pair(raw, field: str) -> tuple[int, int]:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw)):
        raise SpecError(field, "expected a pair [i, j] of integers")
    return (raw[0], raw[1])


def _parse_family(spec: dict, field: str = "family"):
    raw = _get(spec, field, list)
    return [_parse_pair(p, f"{field}[{idx}]") for idx, p in enumerate(raw)]


def _parse_series(item: dict, where: str) -> SeriesSpec:
    i = _get(item, "i", int, minimum=1, where=where)
    j = _get(item, "j", int, minimum=2, where=where)
    try:
        index_set = sets.from_json(_get(item, "set", dict, where=where))
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"{where}.set", str(exc)) from exc
    try:
        coeff = CoeffFn.from_json(item.get("coeff", {"kind": "const", "value": 1}))
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"{where}.coeff", str(exc)) from exc
    return SeriesSpec(i, j, index_set, coeff)


def _parse_terms(spec: dict) -> tuple[list[tuple[int, SeriesSpec]], bool]:
    raw = _get(spec, "terms", list, default=[])
    terms: list[tuple[int, SeriesSpec]] = []
    for idx, item in enumerate(raw):
        where = f"terms[{idx}]"
        if not isinstance(item, dict):
            raise SpecError(where, "expected an object")
        weight = _get(item, "weight", int, default=1)
        terms.append((weight, _parse_series(item, where)))
    return terms, any(s.set.is_finite for _, s in terms)


def _normalized_term(weight: int, spec: SeriesSpec) -> dict:
    return {"weight": weight, **spec.to_json()}


def _form_from_spec(spec: dict) -> tuple[LinearFormSpec, dict, bool]:
    base = _get(spec, "base", int, minimum=2)
    constant = _get(spec, "constant", int, default=0)
    terms, finite = _parse_terms(spec)
    form = LinearFormSpec(base, constant, tuple(terms))
    normalized = {
        "base": base,
        "constant": constant,
        "terms": [_normalized_term(w, s) for w, s in terms],
    }
    return form, normalized, finite


# ---------------------------------------------------------------- commands

def _run_eval(spec: dict):
    form, normalized, finite = _form_from_spec(spec)
    digits = _get(spec, "digits", int, minimum=1)
    normalized["command"] = "eval"
    normalized["digits"] = digits
    value = series.eval_linear_form(form, digits)
    rendering = series.render_digits(value, digits)
    result = {
        "value_digits": rendering.digits,
        "uncertain_positions": list(rendering.uncertain),
        "sign": "-" if value.mantissa < 0 else "+",
        "decimal": value.to_decimal(min(digits, 48)),
        "error_bound": fraction_sci(value.error_bound),
        "exact": value.is_exact,
        "base": form.base,
        "scale": value.scale,
    }
    if finite:
        result["finite_set_note"] = _FINITE_NOTE
    return normalized, result, "ok", EXIT_OK


def _run_digits(spec: dict):
    form, normalized, finite = _form_from_spec(spec)
    digits = _get(spec, "digits", int, minimum=1)
    count = _get(spec, "count", int, default=digits, minimum=1)
    if count > digits:
        raise SpecError("count", "cannot exceed 'digits'")
    normalized["command"] = "digits"
    normalized["digits"] = digits
    normalized["count"] = count
    value = series.eval_linear_form(form, digits)
    rendering = series.render_digits(value, count)
    result = {
        "digits": rendering.digits,
        "uncertain_positions": list(rendering.uncertain),
        "sign": "-" if value.mantissa < 0 else "+",
        "error_bound": fraction_sci(value.error_bound),
    }
    if finite:
        result["finite_set_note"] = _FINITE_NOTE
    return normalized, result, "ok", EXIT_OK


def _run_gaps(spec: dict):
    form, normalized, finite = _form_from_spec(spec)
    rng = _get(spec, "range", list)
    if len(rng) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in rng):
        raise SpecError("range", "expected [start, end] with integers")
    start, end = rng
    if not 1 <= start <= end:
        raise SpecError("range", "need 1 <= start <= end")
    normalized["command"] = "gaps"
    normalized["range"] = [start, end]
    runs = series.gap_scan(form, start, end)
    result = {"runs": [[s, l] for s, l in runs],
              "longest": max((l for _, l in runs), default=0)}
    if finite:
        result["finite_set_note"] = _FINITE_NOTE
    return normalized, result, "ok", EXIT_OK


def _default_family() -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, 5) for j in range(2, 5)]


def _run_forge(spec: dict):
    i0 = _get(spec, "i0", int, minimum=1)
    j0 = _get(spec, "j0", int, minimum=2)
    window = _get(spec, "N", int, minimum=1)
    d = _get(spec, "d", int, default=1, minimum=1)
    h = _get(spec, "h", int, default=1, minimum=1)
    p_min = _get(spec, "p_min", int, default=2, minimum=2)
    family = (_parse_family(spec) if "family" in spec else _default_family())
    scan_budget = _get(spec, "scan_budget", int, default=forge.DEFAULT_SCAN_LIMIT, minimum=1)
    attempt_budget = _get(spec, "attempt_budget", int, default=forge.DEFAULT_PRIME_BUDGET, minimum=1)
    retries = _get(spec, "retries", int, default=32, minimum=1)
    require_large = _get(spec, "require_large", bool, default=True)

    normalized = {
        "command": "forge", "i0": i0, "j0": j0, "N": window, "d": d, "h": h,
        "p_min": p_min, "family": [list(p) for p in family],
        "scan_budget": scan_budget, "attempt_budget": attempt_budget,
        "retries": retries, "require_large": require_large,
    }
    cert = forge.build_certificate(i0, j0, window, family, d, h, p_min,
                                   scan_budget, attempt_budget, retries,
                                   require_large)
    return normalized, cert.to_json(), "ok", EXIT_OK


def _run_check(spec: dict):
    family = dependence.FamilyIndex.of(_parse_family(spec))
    normalized = {"command": "check", "family": [list(p) for p in family.pairs]}
    report = dependence.independence_conditions(family)
    status = "ok" if report.satisfied else "violation"
    code = EXIT_OK if report.satisfied else EXIT_NOT_FOUND
    return normalized, report.to_json(), status, code


def _run_counterexample(spec: dict):
    pair1 = _parse_pair(_get(spec, "pair1", list), "pair1")
    pair2 = _parse_pair(_get(spec, "pair2", list), "pair2")
    base = _get(spec, "base", int, minimum=2)
    precision = _get(spec, "precision", int, default=200, minimum=1)
    normalized = {"command": "counterexample", "pair1": list(pair1),
                  "pair2": list(pair2), "base": base, "precision": precision}
    try:
        cert = dependence.build_counterexample(pair1, pair2, base, precision)
    except dependence.NotApplicable as exc:
        return normalized, {"applicable": False, "reason": str(exc)}, "not-applicable", EXIT_NOT_FOUND
    status = "ok" if cert.verified else "violation"
    code = EXIT_OK if cert.verified else EXIT_NOT_FOUND
    return normalized, {"applicable": True, **cert.to_json()}, status, code


def _run_diophantine(spec: dict):
    i0 = _get(spec, "i0", int, minimum=1)
    j0 = _get(spec, "j0", int, minimum=2)
    i = _get(spec, "i", int, minimum=1)
    j = _get(spec, "j", int, minimum=2)
    u_max = _get(spec, "u_max", int, minimum=1)
    x_max = _get(spec, "x_max", int, minimum=1)
    normalized = {"command": "diophantine", "i0": i0, "j0": j0, "i": i, "j": j,
                  "u_max": u_max, "x_max": x_max}
    sols = dependence.enumerate_equation_solutions(i0, j0, i, j, u_max, x_max)
    result = {
        "solutions": [s.to_json() for s in sols],
        "count": len(sols),
        # Below is an observed cutoff, not a proof of finiteness.
        "empirical_bound": max((s.x for s in sols), default=0),
    }
    return normalized, result, "ok", EXIT_OK


def _hunt_value(item: dict, base: int, precision: int, where: str) -> tuple[FixedPointValue, dict, bool]:
    if not isinstance(item, dict):
        raise SpecError(where, "expected an object")
    kind = _get(item, "kind", str)
    if kind == "int":
        value = _get(item, "value", int)
        scale = precision + GUARD_DIGITS
        return (FixedPointValue.from_int(value, base, scale),
                {"kind": "int", "value": value}, False)
    if kind == "digits":
        raw = _get(item, "digits", str)
        if len(raw) < precision:
            raise SpecError(f"{where}.digits",
                            f"need at least {precision} digits for this precision")
        try:
            mantissa = series.parse_digits(raw, base)
        except ValueError as exc:
            raise SpecError(f"{where}.digits", f"not base-{base} digits") from exc
        return (FixedPointValue(base, mantissa, len(raw), Fraction(1, base ** len(raw))),
                {"kind": "digits", "digits": raw}, False)
    if kind == "series":
        spec_obj = _parse_series(item, where)
        return (series.eval_series(spec_obj, base, precision),
                {"kind": "series", **spec_obj.to_json()}, spec_obj.set.is_finite)
    raise SpecError(f"{where}.kind", "expected one of: int, digits, series")


def _run_hunt(spec: dict):
    base = _get(spec, "base", int, minimum=2)
    precision = _get(spec, "precision", int, minimum=50)
    coeff_bound = _get(spec, "coeff_bound", int, default=1000, minimum=1)
    raw_values = _get(spec, "values", list)
    if len(raw_values) < 2:
        raise SpecError("values", "need at least two values")
    values, norm_values, finite = [], [], False
    for idx, item in enumerate(raw_values):
        v, norm, fin = _hunt_value(item, base, precision, f"values[{idx}]")
        values.append(v)
        norm_values.append(norm)
        finite = finite or fin
    normalized = {"command": "hunt", "base": base, "precision": precision,
                  "coeff_bound": coeff_bound, "values": norm_values}
    query = relations.RelationQuery(tuple(values), coeff_bound, precision)
    report = relations.search_relations(query)
    result: dict = {"coeff_bound": coeff_bound, "precision": precision}
    if finite:
        result["finite_set_note"] = _FINITE_NOTE
    if report.relation is not None:
        result["relation"] = {
            "coefficients": list(report.relation.coefficients),
            "residual": fraction_sci(report.relation.residual),
        }
        return normalized, result, "ok", EXIT_OK
    result["relation"] = None
    result["residual_floor"] = fraction_sci(report.residual_floor)
    result["exclusion"] = (f"no relation with max|c| <= {coeff_bound} "
                           f"at {precision} base-{base} digits")
    return normalized, result, "not-found", EXIT_NOT_FOUND


_RUNNERS = {
    "eval": _run_eval,
    "digits": _run_digits,
    "gaps": _run_gaps,
    "forge": _run_forge,
    "check": _run_check,
    "counterexample": _run_counterexample,
    "diophantine": _run_diophantine,
    "hunt": _run_hunt,
}

_PRECISION_FIELD = {"eval": "digits", "digits": "digits",
                    "counterexample": "precision", "hunt": "precision"}
_BUDGET_FIELD = {"forge": "attempt_budget"}


def run_job(command: str, spec: dict) -> tuple[dict, int]:
    """Validate and execute one job; returns (report, exit_code)."""
    if "command" in spec and spec["command"] != command:
        raise SpecError("command", f"spec says {spec['command']!r} but the "
                                   f"{command!r} subcommand was invoked")
    normalized, result, status, code = _RUNNERS[command](spec)
    report = {
        "tool": "lacunary",
        "version": __version__,
        "command": command,
        "spec": normalized,
        "status": status,
        "result": result,
    }
    return report, code


def _render_text(report: dict) -> str:
    lines = [f"lacunary {report['version']} :: {report['command']} :: {report['status']}"]

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}{key}.", node[key])
        elif isinstance(node, list):
            if all(not isinstance(x, (dict, list)) for x in node):
                lines.append(f"{prefix[:-1]} = {node}")
            else:
                for idx, item in enumerate(node):
                    walk(f"{prefix}{idx}.", item)
        else:
            lines.append(f"{prefix[:-1]} = {node}")

    walk("", report["result"])
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lacunary",
        description="reproducible experiments over lacunary series in base-b",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a '{name}' job spec")
        p.add_argument("--spec", required=True, help="path to the JSON job spec")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--precision", type=int,
                       help="override the spec's precision/digits field")
        p.add_argument("--budget", type=int,
                       help="override the spec's main budget field")
        p.add_argument("--format", choices=("json", "text"), default="json")
    args = parser.parse_args(argv)

    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"spec error: cannot read {args.spec}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"spec error: {args.spec} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not isinstance(spec, dict):
        print("spec error: top level must be a JSON object", file=sys.stderr)
        return EXIT_INPUT

    if args.precision is not None and args.command in _PRECISION_FIELD:
        spec[_PRECISION_FIELD[args.command]] = args.precision
    if args.budget is not None and args.command in _BUDGET_FIELD:
        spec[_BUDGET_FIELD[args.command]] = args.budget

    try:
        report, code = run_job(args.command, spec)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    payload = (json.dumps(report, indent=2, sort_keys=True) + "\n"
               if args.format == "json" else _render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
