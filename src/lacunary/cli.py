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

_FINITE_NOTE = ("at least one index set is a finite explicit list; its series "
                "is a rational partial sum and is trivially dependent with 1")

_MISSING = object()


class SpecError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")


def _get(spec: dict, field: str, kind, default=_MISSING, minimum=None, where: str = ""):
    """spec[field], checked; errors name the field as where + field."""
    name = where + field
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


def _pair(raw, field: str, message: str = "expected a pair [i, j] of integers") -> tuple[int, int]:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw)):
        raise SpecError(field, message)
    return (raw[0], raw[1])


def _index_pair(raw, field: str) -> tuple[int, int]:
    """An exponent pair [i, j] with i >= 1 and j >= 2."""
    i, j = _pair(raw, field)
    if i < 1 or j < 2:
        raise SpecError(field, f"need i >= 1 and j >= 2, got [{i}, {j}]")
    return i, j


def _items(raw: list, field: str):
    """(where, item) for each entry of a list of objects; where is `field[idx].`"""
    for idx, item in enumerate(raw):
        if not isinstance(item, dict):
            raise SpecError(f"{field}[{idx}]", "expected an object")
        yield f"{field}[{idx}].", item


def _read(obj: dict, rows, where: str = "") -> tuple[dict, dict]:
    """(parsed fields, normalized JSON) of one spec object, read row by row.

    A key that no row lists is rejected first. A field's parser in _PARSERS
    maps (raw JSON value, the fields read so far) to (value, normalized
    JSON); a ValueError or TypeError it raises is named after the field."""
    if unknown := [key for key in obj if key not in [row[0] for row in rows]]:
        raise SpecError(where + unknown[0], "unknown field")
    fields, normalized = {}, {}
    for name, kind, default, minimum in rows:
        raw = _get(obj, name, kind, default, minimum, where)
        parse = _PARSERS.get(name)
        try:
            fields[name], normalized[name] = parse(raw, fields) if parse else (raw, raw)
        except (ValueError, TypeError) as exc:
            raise SpecError(where + name, str(exc)) from exc
    return fields, normalized


# ------------------------------------------------------------- field tables
# Rows are (name, JSON type, default, minimum), read in order; a default of
# _MISSING makes the field required. A term has one table, each hunt value
# kind one, and each subcommand's top level one.

_SERIES = (("i", int, _MISSING, 1), ("j", int, _MISSING, 2), ("set", dict, _MISSING, None),
           # any JSON value, so that CoeffFn.from_json says what is wrong with it
           ("coeff", object, {"kind": "const", "value": 1}, None))
_TERM = (("weight", int, 1, None),) + _SERIES
_KIND = ("kind", str, _MISSING, None)
_VALUES = {"int": (_KIND, ("value", int, _MISSING, None)),
           "digits": (_KIND, ("digits", str, _MISSING, None)),
           "series": (_KIND,) + _SERIES}

_FORM = (("base", int, _MISSING, 2), ("constant", int, 0, None), ("terms", list, [], None))
_FIELDS = {
    "eval": _FORM + (("digits", int, _MISSING, 1),),
    # count defaults to digits (None is no JSON int, so it only marks absence)
    "digits": _FORM + (("digits", int, _MISSING, 1), ("count", int, None, 1)),
    "gaps": _FORM + (("range", list, _MISSING, None),),
    "forge": (("i0", int, _MISSING, 1), ("j0", int, _MISSING, 2), ("N", int, _MISSING, 1),
              ("d", int, 1, 1), ("h", int, 1, 1), ("p_min", int, 2, 2),
              ("family", list, [[i, j] for i in range(1, 5) for j in range(2, 5)], None),
              ("scan_budget", int, forge.DEFAULT_SCAN_LIMIT, 1),
              ("attempt_budget", int, forge.DEFAULT_PRIME_BUDGET, 1),
              ("retries", int, 32, 1), ("require_large", bool, True, None)),
    "check": (("family", list, _MISSING, None),),
    "counterexample": (("pair1", list, _MISSING, None), ("pair2", list, _MISSING, None),
                       ("base", int, _MISSING, 2), ("precision", int, 200, 1)),
    "diophantine": (("i0", int, _MISSING, 1), ("j0", int, _MISSING, 2),
                    ("i", int, _MISSING, 1), ("j", int, _MISSING, 2),
                    ("u_max", int, _MISSING, 1), ("x_max", int, _MISSING, 1)),
    "hunt": (("base", int, _MISSING, 2), ("precision", int, _MISSING, 50),
             ("coeff_bound", int, 1000, 1), ("values", list, _MISSING, None)),
}
COMMANDS = tuple(_FIELDS)


def _series(f: dict) -> SeriesSpec:
    return SeriesSpec(f["i"], f["j"], f["set"], f["coeff"])


def _parse_terms(raw: list, fields: dict):
    parsed = [_read(item, _TERM, where) for where, item in _items(raw, "terms")]
    return tuple((f["weight"], _series(f)) for f, _ in parsed), [n for _, n in parsed]


def _parse_family(raw: list, fields: dict):
    family = [_index_pair(p, f"family[{idx}]") for idx, p in enumerate(raw)]
    return family, [list(p) for p in family]


def _parse_range(raw: list, fields: dict):
    start, end = _pair(raw, "range", "expected [start, end] with integers")
    if not 1 <= start <= end:
        raise SpecError("range", "need 1 <= start <= end")
    return (start, end), [start, end]


def _parse_count(raw, fields: dict):
    count = fields["digits"] if raw is None else raw
    if count > fields["digits"]:
        raise SpecError("count", "cannot exceed 'digits'")
    return count, count


def _literal(raw: str, base: int, precision: int, where: str) -> FixedPointValue:
    """A digit string read as 0.d1d2... with one unit of error in its last place."""
    if len(raw) < precision:
        raise SpecError(f"{where}digits", f"need at least {precision} digits for this precision")
    try:
        mantissa = series.parse_digits(raw, base)
    except ValueError as exc:
        raise SpecError(f"{where}digits", f"not base-{base} digits") from exc
    return FixedPointValue(base, mantissa, len(raw), Fraction(1, base ** len(raw)))


def _parse_values(raw: list, fields: dict):
    """Hunt values as data: an int, a digit literal's FixedPointValue or a SeriesSpec."""
    if len(raw) < 2:
        raise SpecError("values", "need at least two values")
    values, normalized = [], []
    for where, item in _items(raw, "values"):
        kind = _get(item, "kind", str, where=where)
        if kind not in _VALUES:
            raise SpecError(f"{where}kind", "expected one of: int, digits, series")
        f, item_json = _read(item, _VALUES[kind], where)
        values.append(_series(f) if kind == "series" else f["value"] if kind == "int"
                      else _literal(f["digits"], fields["base"], fields["precision"], where))
        normalized.append(item_json)
    return values, normalized


_PARSERS = {
    "terms": _parse_terms,
    "family": _parse_family,
    "pair1": lambda raw, fields: (_index_pair(raw, "pair1"), list(raw)),
    "pair2": lambda raw, fields: (_index_pair(raw, "pair2"), list(raw)),
    "range": _parse_range,
    "count": _parse_count,
    "values": _parse_values,
    "set": lambda raw, fields: (s := sets.from_json(raw), s.to_json()),
    "coeff": lambda raw, fields: (c := CoeffFn.from_json(raw), c.to_json()),
}


# ---------------------------------------------------------------- commands
# A runner takes the parsed fields and returns (result, status, exit code).

def _form(f: dict) -> LinearFormSpec:
    return LinearFormSpec(f["base"], f["constant"], f["terms"])


def _run_eval(f: dict):
    value = series.eval_linear_form(_form(f), f["digits"])
    rendering = series.render_digits(value, f["digits"])
    return {
        "value_digits": rendering.digits,
        "uncertain_positions": list(rendering.uncertain),
        "sign": "-" if value.mantissa < 0 else "+",
        "decimal": value.to_decimal(min(f["digits"], 48)),
        "error_bound": fraction_sci(value.error_bound),
        "exact": value.is_exact,
        "base": f["base"],
        "scale": value.scale,
    }, "ok", EXIT_OK


def _run_digits(f: dict):
    value = series.eval_linear_form(_form(f), f["digits"])
    rendering = series.render_digits(value, f["count"])
    return {
        "digits": rendering.digits,
        "uncertain_positions": list(rendering.uncertain),
        "sign": "-" if value.mantissa < 0 else "+",
        "error_bound": fraction_sci(value.error_bound),
    }, "ok", EXIT_OK


def _run_gaps(f: dict):
    runs = series.gap_scan(_form(f), *f["range"])
    return {"runs": [[s, l] for s, l in runs],
            "longest": max((l for _, l in runs), default=0)}, "ok", EXIT_OK


def _run_forge(f: dict):
    cert = forge.build_certificate(
        f["i0"], f["j0"], f["N"], f["family"], f["d"], f["h"], f["p_min"],
        f["scan_budget"], f["attempt_budget"], f["retries"], f["require_large"])
    return cert.to_json(), "ok", EXIT_OK


def _run_check(f: dict):
    report = dependence.independence_conditions(dependence.FamilyIndex.of(f["family"]))
    if report.satisfied:
        return report.to_json(), "ok", EXIT_OK
    return report.to_json(), "violation", EXIT_NOT_FOUND


def _run_counterexample(f: dict):
    try:
        cert = dependence.build_counterexample(f["pair1"], f["pair2"], f["base"], f["precision"])
    except dependence.NotApplicable as exc:
        return {"applicable": False, "reason": str(exc)}, "not-applicable", EXIT_NOT_FOUND
    status, code = ("ok", EXIT_OK) if cert.verified else ("violation", EXIT_NOT_FOUND)
    return {"applicable": True, **cert.to_json()}, status, code


def _run_diophantine(f: dict):
    sols = dependence.enumerate_equation_solutions(**f)
    return {
        "solutions": [s.to_json() for s in sols],
        "count": len(sols),
        # Below is an observed cutoff, not a proof of finiteness.
        "empirical_bound": max((s.x for s in sols), default=0),
    }, "ok", EXIT_OK


def _run_hunt(f: dict):
    base, coeff_bound, precision = f["base"], f["coeff_bound"], f["precision"]
    values = tuple(series.eval_series(v, base, precision) if isinstance(v, SeriesSpec)
                   else FixedPointValue.from_int(v, base, precision + GUARD_DIGITS)
                   if isinstance(v, int) else v for v in f["values"])
    query = relations.RelationQuery(values, coeff_bound, precision)
    report = relations.search_relations(query)
    result: dict = {"coeff_bound": coeff_bound, "precision": precision}
    if report.relation is not None:
        result["relation"] = {
            "coefficients": list(report.relation.coefficients),
            "residual": fraction_sci(report.relation.residual),
        }
        return result, "ok", EXIT_OK
    result["relation"] = None
    result["residual_floor"] = fraction_sci(report.residual_floor)
    result["exclusion"] = (f"no relation with max|c| <= {coeff_bound} "
                           f"at {precision} base-{base} digits")
    return result, "not-found", EXIT_NOT_FOUND


_RUNNERS = {"eval": _run_eval, "digits": _run_digits, "gaps": _run_gaps, "forge": _run_forge,
            "check": _run_check, "counterexample": _run_counterexample,
            "diophantine": _run_diophantine, "hunt": _run_hunt}

# (flag, spec field): a subcommand takes the flag when its _FIELDS has the field.
_OVERRIDES = (("--precision", "digits"), ("--precision", "precision"), ("--budget", "attempt_budget"))


def run_job(command: str, spec: dict) -> tuple[dict, int]:
    """Validate and execute one job; returns (report, exit_code)."""
    if "command" in spec and spec["command"] != command:
        raise SpecError("command", f"spec says {spec['command']!r} but the "
                                   f"{command!r} subcommand was invoked")
    fields, normalized = _read({k: v for k, v in spec.items() if k != "command"}, _FIELDS[command])
    # every series of the job, by the name a coefficient-table miss gives it
    named = [(f"terms[{idx}].", s) for idx, (_, s) in enumerate(fields.get("terms", ()))]
    named += [(f"values[{idx}].", v) for idx, v in enumerate(fields.get("values", ()))
              if isinstance(v, SeriesSpec)]
    try:
        result, status, code = _RUNNERS[command](fields)
    except series.MissingCoefficient as exc:
        where = next(where for where, s in named if s.coeff is exc.coeff)
        raise SpecError(f"{where}coeff", str(exc)) from exc
    if any(s.set.is_finite for _, s in named):
        result["finite_set_note"] = _FINITE_NOTE
    report = {
        "tool": "lacunary",
        "version": __version__,
        "command": command,
        "spec": {"command": command, **normalized},
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
    for name, rows in _FIELDS.items():
        p = sub.add_parser(name, help=f"run a '{name}' job spec")
        p.add_argument("--spec", required=True, help="path to the JSON job spec")
        p.add_argument("--out", help="write the report here instead of stdout")
        for flag, field in _OVERRIDES:
            if field in [row[0] for row in rows]:
                p.add_argument(flag, type=int, dest=field, help=f"override the '{field}' field")
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

    for _, field in _OVERRIDES:
        if getattr(args, field, None) is not None:
            spec[field] = getattr(args, field)

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
