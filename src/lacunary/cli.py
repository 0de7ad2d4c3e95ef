"""Batch front-end: JSON job specs in, machine-readable reports out.

Every run is deterministic given the same spec; reports embed the normalized
spec and carry no timestamps, so replaying a report's embedded spec
reproduces it byte for byte.

Exit codes: 0 success, 1 verified violation or nothing found, 2 input error,
3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
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


class _LongLiteral:
    """An integer literal longer than the int/str digit limit, kept by its
    length so that the field holding it can be named when it is read."""

    def __init__(self, text: str):
        self.digits = len(text.lstrip("-"))

    def __repr__(self) -> str:
        return f"<integer literal of {self.digits} digits>"

    def error(self, name: str) -> SpecError:
        return SpecError(name, f"integer literal of {self.digits} digits is over the "
                               f"{sys.get_int_max_str_digits()}-digit limit")


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:  # past the int/str digit limit
        return _LongLiteral(text)


def _get(spec: dict, field: str, kind, default=_MISSING, minimum=None, where: str = ""):
    """spec[field], checked; errors name the field as where + field."""
    name = where + field
    if field not in spec:
        if default is _MISSING:
            raise SpecError(name, "required field is missing")
        return default
    val = _typed(spec[field], kind, name)
    if minimum is not None and val < minimum:
        raise SpecError(name, f"must be >= {minimum}")
    return val


def _typed(val, kind, name: str):
    """val if it is of JSON type kind (a boolean is no integer); else a SpecError naming name."""
    if isinstance(val, _LongLiteral):
        raise val.error(name)
    if kind is int and isinstance(val, bool):
        raise SpecError(name, "expected an integer, got a boolean")
    if not isinstance(val, kind):
        raise SpecError(name, f"expected {kind.__name__}")
    return val


def _pair(raw, field: str, message: str = "expected a pair [i, j] of integers") -> tuple[int, int]:
    for x in raw if isinstance(raw, list) else ():
        if isinstance(x, _LongLiteral):
            raise x.error(field)
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

    A key that no row lists is rejected first. A ValueError or TypeError
    that a row's parser raises is named after the field."""
    names = [row[0] for row in rows]
    if unknown := [key for key in obj if key not in names]:
        raise SpecError(where + unknown[0], "unknown field")
    fields, normalized = {}, {}
    for name, kind, default, minimum, *parser in rows:
        raw = _get(obj, name, kind, default, minimum, where)
        try:
            fields[name], normalized[name] = (parser[0](raw, fields, where + name) if parser
                                              else (raw, raw))
        except (ValueError, TypeError) as exc:
            raise SpecError(where + name, str(exc)) from exc
    return fields, normalized


def _read_kind(obj: dict, tables: dict, where: str) -> tuple[dict, dict]:
    """_read of an object whose "kind" field picks its rows from tables."""
    kind = _get(obj, "kind", str, where=where)
    if kind not in tables:
        raise SpecError(f"{where}kind", f"expected one of: {', '.join(tables)}")
    return _read(obj, tables[kind], where)


# ------------------------------------------------------------------ parsers
# A parser maps (raw JSON value, the fields read so far, the field's path)
# to (value, normalized JSON); the field tables below name each row's parser.

def _series(f: dict) -> SeriesSpec:
    return SeriesSpec(f["i"], f["j"], f["set"], f["coeff"])


def _parse_terms(raw: list, fields: dict, name: str):
    parsed = [_read(item, _TERM, where) for where, item in _items(raw, name)]
    return tuple((f["weight"], _series(f)) for f, _ in parsed), [n for _, n in parsed]


def _parse_set(raw: dict, fields: dict, name: str):
    f, _ = _read_kind(raw, _SETS, name + ".")
    s = sets.KINDS[f.pop("kind")].factory(*f.values())
    return s, s.to_json()


def _parse_members(raw: list, fields: dict, name: str):
    return [_typed(m, int, f"{name}[{idx}]") for idx, m in enumerate(raw)], None


def _parse_coeff(raw: dict, fields: dict, name: str):
    f, _ = _read_kind(raw, _COEFFS, name + ".")
    c = CoeffFn(f["kind"], f.get("value", 1), f.get("values"), f.get("bound"))
    return c, c.to_json()


_TABLE_KEY = re.compile(r"-?[1-9][0-9]*|0")  # the keys k with str(int(k)) == k


def _parse_table(raw: dict, fields: dict, name: str):
    """A coefficient table: canonical decimal keys, so that it replays as it reads."""
    if bad := [k for k in raw if not _TABLE_KEY.fullmatch(k)]:
        raise ValueError(f"table key {bad[0]!r} is not a canonical decimal integer")
    try:
        return {int(k): _typed(v, int, f"{name}.{k}") for k, v in raw.items()}, None
    except ValueError:  # a canonical key fails only past the int/str digit limit
        digits = max(len(k.lstrip("-")) for k in raw)
        raise ValueError(f"table key of {digits} digits is too long (the int/str limit "
                         f"is {sys.get_int_max_str_digits()} digits)") from None


def _parse_render_base(raw: int, fields: dict, name: str):
    if raw > len(series._DIGIT_CHARS):
        raise ValueError(f"must be <= {len(series._DIGIT_CHARS)} to render digits")
    return raw, raw


def _parse_family(raw: list, fields: dict, name: str):
    family = [_index_pair(p, f"{name}[{idx}]") for idx, p in enumerate(raw)]
    for idx, pair in enumerate(family):
        if family.index(pair) < idx:
            raise SpecError(f"{name}[{idx}]", f"duplicate pair {pair}")
    return family, [list(p) for p in family]


def _parse_pair(raw: list, fields: dict, name: str):
    if (pair := _index_pair(raw, name)) == fields.get("pair1"):  # only pair2 can meet pair1
        raise SpecError(name, "must differ from 'pair1'")
    return pair, list(raw)


def _parse_range(raw: list, fields: dict, name: str):
    start, end = _pair(raw, name, "expected [start, end] with integers")
    if not 1 <= start <= end:
        raise SpecError(name, "need 1 <= start <= end")
    return (start, end), [start, end]


def _parse_count(raw, fields: dict, name: str):
    count = fields["digits"] if raw is None else raw
    if count > fields["digits"]:
        raise SpecError(name, "cannot exceed 'digits'")
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


def _parse_values(raw: list, fields: dict, name: str):
    """Hunt values as data: an int, a digit literal's FixedPointValue or a SeriesSpec."""
    if len(raw) < 2:
        raise SpecError(name, "need at least two values")
    values, normalized = [], []
    for where, item in _items(raw, name):
        f, item_json = _read_kind(item, _VALUES, where)
        values.append(_series(f) if f["kind"] == "series" else f["value"] if f["kind"] == "int"
                      else _literal(f["digits"], fields["base"], fields["precision"], where))
        normalized.append(item_json)
    return values, normalized


# ------------------------------------------------------------- field tables
# Rows are (name, JSON type, default, minimum[, parser]), read in order; a
# default of _MISSING makes the field required. A term has one table, each
# kind of set, coefficient and hunt value one, and each subcommand's top
# level one.

_KIND = ("kind", str, _MISSING, None)
_SETS = {kind: (_KIND, *(("members", list, _MISSING, None, _parse_members) if name == "members"
                         else (name, int, rules.defaults.get(name, _MISSING), None)
                         for name in rules.fields), ("min", int, 1, None))
         for kind, rules in sets.KINDS.items()}
_COEFFS = {"const": (_KIND, ("value", int, 1, None)),
           "alternating": (_KIND,),
           # bound defaults to the largest |value| (None is no JSON int, so it only marks absence)
           "table": (_KIND, ("values", dict, _MISSING, None, _parse_table),
                     ("bound", int, None, None))}
_SERIES = (("i", int, _MISSING, 1), ("j", int, _MISSING, 2),
           ("set", dict, _MISSING, None, _parse_set),
           ("coeff", dict, {"kind": "const", "value": 1}, None, _parse_coeff))
_TERM = (("weight", int, 1, None),) + _SERIES
_VALUES = {"int": (_KIND, ("value", int, _MISSING, None)),
           "digits": (_KIND, ("digits", str, _MISSING, None)),
           "series": (_KIND,) + _SERIES}

_BASE = ("base", int, _MISSING, 2)
_FORM = (("constant", int, 0, None), ("terms", list, [], None, _parse_terms))
_RENDER = (_BASE + (_parse_render_base,),) + _FORM + (("digits", int, _MISSING, 1),)
_FIELDS = {
    "eval": _RENDER,
    # count defaults to digits (None is no JSON int, so it only marks absence)
    "digits": _RENDER + (("count", int, None, 1, _parse_count),),
    "gaps": (_BASE,) + _FORM + (("range", list, _MISSING, None, _parse_range),),
    "forge": (("i0", int, _MISSING, 1), ("j0", int, _MISSING, 2), ("N", int, _MISSING, 1),
              ("d", int, 1, 1), ("h", int, 1, 1), ("p_min", int, 2, 2),
              ("family", list, [[i, j] for i in range(1, 5) for j in range(2, 5)], None,
               _parse_family),
              ("scan_budget", int, forge.DEFAULT_SCAN_LIMIT, 1),
              ("attempt_budget", int, forge.DEFAULT_PRIME_BUDGET, 1),
              ("retries", int, 32, 1), ("require_large", bool, True, None)),
    "check": (("family", list, _MISSING, None, _parse_family),),
    "counterexample": (("pair1", list, _MISSING, None, _parse_pair),
                       ("pair2", list, _MISSING, None, _parse_pair),
                       _BASE, ("precision", int, 200, 1)),
    "diophantine": (("i0", int, _MISSING, 1), ("j0", int, _MISSING, 2),
                    ("i", int, _MISSING, 1), ("j", int, _MISSING, 2),
                    ("u_max", int, _MISSING, 1), ("x_max", int, _MISSING, 1)),
    "hunt": (_BASE, ("precision", int, _MISSING, 50),
             ("coeff_bound", int, 1000, 1), ("values", list, _MISSING, None, _parse_values)),
}
COMMANDS = tuple(_FIELDS)


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call of main."""
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
    return parser


def _load(path: str):
    """The JSON document at path, an integer literal past the int/str digit limit
    read as a _LongLiteral. A ValueError names path when the file cannot be read
    or decoded (bad UTF-8, nesting too deep for the parser) or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage and message (or --help)
        return exc.code

    try:
        spec = _load(args.spec)
        if not isinstance(spec, dict):
            raise ValueError("top level must be a JSON object")
        for _, field in _OVERRIDES:
            if getattr(args, field, None) is not None:
                spec[field] = getattr(args, field)
        report, code = run_job(args.command, spec)
        # The int/str digit limit guards the parsing of input; the report's
        # integers come from a finished job, so it is lifted only to write them.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            payload = (json.dumps(report, indent=2, sort_keys=True) + "\n"
                       if args.format == "json" else _render_text(report))
        finally:
            sys.set_int_max_str_digits(limit)
        if args.out:
            _write(args.out, payload)
        else:
            sys.stdout.write(payload)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpecError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
