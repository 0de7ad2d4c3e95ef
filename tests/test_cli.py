import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lacunary.cli import (
    _COEFFS,
    _FIELDS,
    _MISSING,
    _SETS,
    _TERM,
    _VALUES,
    COMMANDS,
    EXIT_BUDGET,
    EXIT_INPUT,
    EXIT_NOT_FOUND,
    EXIT_OK,
    main,
)
import lacunary
from lacunary import dependence, series
from lacunary.series import GUARD_DIGITS

from oracles import brute_digit_string, series_partial_sum, sieve_primes

ALPHA_TERM = {"weight": 1, "i": 1, "j": 2, "set": {"kind": "naturals"},
              "coeff": {"kind": "const", "value": 1}}


def write_spec(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_job(tmp_path, capsys):
    spec = write_spec(tmp_path, {"command": "eval", "base": 2, "digits": 40,
                                 "terms": [ALPHA_TERM]})
    code, out, _ = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["value_digits"].startswith("100100001")
    assert report["result"]["value_digits"][15] == "1"  # position 16
    assert report["result"]["error_bound"].endswith("e-17")
    assert report["status"] == "ok"
    assert report["spec"]["digits"] == 40


def test_eval_precision_override(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "digits": 10, "terms": [ALPHA_TERM]})
    code, out, _ = run_cli(["eval", "--spec", spec, "--precision", "25"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["spec"]["digits"] == 25


PRIMES_TERM = {"weight": 2, "i": 1, "j": 2, "set": {"kind": "primes"}}


def assert_certain_digits_match_oracle(result, key, b, digits):
    """The unflagged digits of an ALPHA_TERM + PRIMES_TERM report are those of
    the exact value, bracketed by two partial sums that go deeper than `digits`."""
    depth = digits + GUARD_DIGITS + 40
    cap = math.isqrt(depth)
    low = (series_partial_sum(b, 1, 2, range(1, cap + 1))
           + 2 * series_partial_sum(b, 1, 2, sieve_primes(cap)))
    high = low + Fraction(3, b**depth)  # omitted terms: mass 3 beyond position depth
    flagged = result["uncertain_positions"]
    certain = flagged[0] - 1 if flagged else len(result[key])
    assert certain > 0
    scale = b**certain
    expected = [brute_digit_string(x.numerator * scale // x.denominator % scale, b, certain)
                for x in (low, high)]
    assert expected == [result[key][:certain]] * 2
    assert result["sign"] == "+"


def test_eval_past_the_int_str_limit(tmp_path, capsys):
    # The error bound 3.33e-5017 has a denominator of 5000+ decimal digits.
    spec = write_spec(tmp_path, {"base": 10, "digits": 5000,
                                 "terms": [ALPHA_TERM, PRIMES_TERM]})
    code, out, err = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_OK, err
    result = json.loads(out)["result"]
    assert result["error_bound"] == "3.33e-5017"
    assert_certain_digits_match_oracle(result, "value_digits", 10, 5000)


def test_deep_digits_job_past_the_int_str_limit(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "digits": 20000, "count": 64,
                                 "terms": [ALPHA_TERM, PRIMES_TERM]})
    code, out, err = run_cli(["digits", "--spec", spec], capsys)
    assert code == EXIT_OK, err
    result = json.loads(out)["result"]
    assert len(result["digits"]) == 64
    assert_certain_digits_match_oracle(result, "digits", 2, 20000)


def test_digits_job_with_finite_note(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "base": 2, "digits": 30, "count": 12,
        "terms": [{"i": 1, "j": 2, "set": {"kind": "explicit", "members": [2, 3]}}]})
    code, out, _ = run_cli(["digits", "--spec", spec], capsys)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["digits"] == "000100001000"
    assert "finite_set_note" in result


# Each override flag with the subcommands that take it, a spec whose first
# error can only be the flag's field, that field and its minimum.
OVERRIDES = [
    ("--precision", "eval", {"base": 2}, "digits", 1),
    ("--precision", "digits", {"base": 2}, "digits", 1),
    ("--precision", "counterexample", {"pair1": [1, 3], "pair2": [2, 3], "base": 2},
     "precision", 1),
    ("--precision", "hunt", {"base": 2}, "precision", 50),
    ("--budget", "forge", {"i0": 1, "j0": 2, "N": 2}, "attempt_budget", 1),
]


@pytest.mark.parametrize("flag,command,payload,field,minimum", OVERRIDES,
                         ids=[f"{c}{f}" for f, c, *_ in OVERRIDES])
def test_override_flags_set_their_field(tmp_path, capsys, flag, command, payload, field, minimum):
    spec = write_spec(tmp_path, payload)
    code, _, err = run_cli([command, "--spec", spec, flag, str(minimum - 1)], capsys)
    assert (code, err) == (EXIT_INPUT, f"spec error: field '{field}': must be >= {minimum}\n")


@pytest.mark.parametrize("flag,command", [
    (flag, command) for flag in ("--precision", "--budget") for command in COMMANDS
    if (flag, command) not in {(f, c) for f, c, *_ in OVERRIDES}])
def test_override_flags_only_where_they_apply(tmp_path, capsys, flag, command):
    # e.g. `gaps --precision 5` has no field to override: argparse refuses it
    code, out, err = run_cli([command, "--spec", write_spec(tmp_path, {}), flag, "5"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("usage: lacunary ")
    assert f"unrecognized arguments: {flag} 5" in err


def test_gaps_job(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "range": [1, 16], "terms": [ALPHA_TERM]})
    code, out, _ = run_cli(["gaps", "--spec", spec], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["runs"] == [[2, 2], [5, 4], [10, 6]]


def test_forge_job(tmp_path, capsys):
    spec = write_spec(tmp_path, {"i0": 1, "j0": 2, "N": 2, "d": 1, "h": 1})
    code, out, _ = run_cli(["forge", "--spec", spec], capsys)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["q"] == 227
    assert report["result"]["exclusions"]["holds"] is True
    assert report["spec"]["family"]  # default family got embedded


def test_forge_budget_exhausted(tmp_path, capsys):
    spec = write_spec(tmp_path, {"i0": 1, "j0": 2, "N": 2, "attempt_budget": 1,
                                 "retries": 1})
    code, _, err = run_cli(["forge", "--spec", spec], capsys)
    assert code == EXIT_BUDGET
    assert "budget" in err.lower()


def test_check_job_violation_exit(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": [[1, 2], [4, 2]]})
    code, out, _ = run_cli(["check", "--spec", spec], capsys)
    assert code == EXIT_NOT_FOUND
    report = json.loads(out)
    assert report["status"] == "violation"
    [col] = report["result"]["collisions"]
    assert (col["u"], col["v"]) == (2, 1)


def test_check_job_clean_family(tmp_path, capsys):
    spec = write_spec(tmp_path, {"family": [[1, 3], [2, 3], [4, 3]]})
    code, out, _ = run_cli(["check", "--spec", spec], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["satisfied"] is True


def test_counterexample_jobs(tmp_path, capsys):
    spec = write_spec(tmp_path, {"pair1": [1, 2], "pair2": [2, 2], "base": 2,
                                 "precision": 120})
    code, out, _ = run_cli(["counterexample", "--spec", spec], capsys)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["weights"] == [0, 2, -1]
    assert result["verified"] is True

    na = write_spec(tmp_path, {"pair1": [1, 3], "pair2": [2, 3], "base": 2},
                    name="na.json")
    code, out, _ = run_cli(["counterexample", "--spec", na], capsys)
    assert code == EXIT_NOT_FOUND
    assert json.loads(out)["status"] == "not-applicable"


def test_diophantine_job(tmp_path, capsys):
    spec = write_spec(tmp_path, {"i0": 1, "j0": 3, "i": 1, "j": 2,
                                 "u_max": 1, "x_max": 100})
    code, out, _ = run_cli(["diophantine", "--spec", spec], capsys)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert {"x": 2, "y": 3, "u": 1, "sign": "-"} in result["solutions"]
    assert result["empirical_bound"] == 2


def test_hunt_finds_planted_relation(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "base": 2, "precision": 150, "coeff_bound": 1000,
        "values": [
            {"kind": "int", "value": 1},
            {"kind": "series", "i": 1, "j": 2, "set": {"kind": "pell_x", "D": 2}},
            {"kind": "series", "i": 2, "j": 2, "set": {"kind": "pell_y", "D": 2}},
        ]})
    code, out, _ = run_cli(["hunt", "--spec", spec], capsys)
    assert code == EXIT_OK
    coeffs = json.loads(out)["result"]["relation"]["coefficients"]
    assert coeffs in ([0, 2, -1], [0, -2, 1])


def test_hunt_reports_exclusion(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "base": 2, "precision": 100, "coeff_bound": 50,
        "values": [
            {"kind": "int", "value": 1},
            {"kind": "series", "i": 1, "j": 2, "set": {"kind": "naturals"}},
        ]})
    code, out, _ = run_cli(["hunt", "--spec", spec], capsys)
    assert code == EXIT_NOT_FOUND
    result = json.loads(out)["result"]
    assert result["relation"] is None
    assert result["residual_floor"] != "0"
    assert "no relation" in result["exclusion"]


def test_hunt_literal_digit_values(tmp_path, capsys):
    digit_str = "31" * 40  # 80 decimal digits
    spec = write_spec(tmp_path, {
        "base": 10, "precision": 60, "coeff_bound": 100,
        "values": [{"kind": "int", "value": 1},
                   {"kind": "digits", "digits": digit_str}]})
    code, out, _ = run_cli(["hunt", "--spec", spec], capsys)
    assert code in (EXIT_OK, EXIT_NOT_FOUND)
    assert json.loads(out)["spec"]["values"][1]["digits"] == digit_str


def test_hunt_literal_past_the_int_str_limit(tmp_path, capsys):
    rng = random.Random(7)
    digit_str = "".join(rng.choice("0123456789") for _ in range(5000))
    payload = {"base": 10, "precision": 50, "coeff_bound": 100,
               "values": [{"kind": "int", "value": 1},
                          {"kind": "digits", "digits": digit_str}]}
    code, out, err = run_cli(["hunt", "--spec", write_spec(tmp_path, payload)], capsys)
    assert code in (EXIT_OK, EXIT_NOT_FOUND), err
    assert json.loads(out)["spec"]["values"][1]["digits"] == digit_str

    payload["values"][1]["digits"] = digit_str[:4000] + "a" + digit_str[4000:]
    code, _, err = run_cli(["hunt", "--spec", write_spec(tmp_path, payload, "bad.json")], capsys)
    assert code == EXIT_INPUT
    assert "values[1].digits" in err


def test_hunt_literal_counts_only_digits(tmp_path, capsys):
    # The scale of a literal is its length, so only digits may appear in it.
    for base, literal in ((10, "+" + "31" * 40), (16, "0x" + "3f" * 40)):
        payload = {"base": base, "precision": 60, "coeff_bound": 100,
                   "values": [{"kind": "int", "value": 1},
                              {"kind": "digits", "digits": literal}]}
        code, out, err = run_cli(["hunt", "--spec", write_spec(tmp_path, payload)], capsys)
        assert code == EXIT_INPUT and out == ""
        assert "values[1].digits" in err


def test_square_pell_parameter_names_its_field(tmp_path, capsys):
    square = {"kind": "pell_x", "D": 4}
    spec = write_spec(tmp_path, {"base": 2, "digits": 20, "terms": [
        {"i": 1, "j": 2, "set": square}]})
    code, _, err = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_INPUT
    assert "terms[0].set" in err and "perfect square" in err

    spec = write_spec(tmp_path, {"base": 2, "precision": 60, "values": [
        {"kind": "int", "value": 1},
        {"kind": "series", "i": 1, "j": 2, "set": square}]}, name="hunt.json")
    code, _, err = run_cli(["hunt", "--spec", spec], capsys)
    assert code == EXIT_INPUT
    assert "values[1].set" in err and "perfect square" in err


def test_term_errors_name_their_term(tmp_path, capsys):
    no_j = {"i": 1, "set": {"kind": "naturals"}}
    spec = write_spec(tmp_path, {"base": 2, "digits": 20, "terms": [ALPHA_TERM, no_j]})
    code, _, err = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_INPUT
    assert "field 'terms[1].j': required field is missing" in err

    spec = write_spec(tmp_path, {"base": 2, "precision": 60, "values": [
        {"kind": "int", "value": 1}, {"kind": "int", "value": 2},
        {"kind": "series", **no_j}]}, name="hunt.json")
    code, _, err = run_cli(["hunt", "--spec", spec], capsys)
    assert code == EXIT_INPUT
    assert "field 'values[2].j': required field is missing" in err

    bad_i = write_spec(tmp_path, {"base": 2, "range": [1, 9], "terms": [
        {**ALPHA_TERM, "i": 0}]}, name="gaps.json")
    code, _, err = run_cli(["gaps", "--spec", bad_i], capsys)
    assert code == EXIT_INPUT
    assert "field 'terms[0].i': must be >= 1" in err


def test_item_fields_name_their_item(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "digits": 20, "terms": [{**ALPHA_TERM, "weight": "x"}]})
    code, out, err = run_cli(["eval", "--spec", spec], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "spec error: field 'terms[0].weight': expected int\n"

    for value, message in (({"value": 2}, "field 'values[1].kind': required field is missing"),
                           ({"kind": "int"}, "field 'values[1].value': required field is missing"),
                           ({"kind": "digits", "digits": 1}, "field 'values[1].digits': expected str")):
        spec = write_spec(tmp_path, {"base": 2, "precision": 60, "values": [
            {"kind": "int", "value": 1}, value]}, name="hunt.json")
        code, out, err = run_cli(["hunt", "--spec", spec], capsys)
        assert (code, out, err) == (EXIT_INPUT, "", f"spec error: {message}\n")


BOOL = "expected an integer, got a boolean"


@pytest.mark.parametrize("change, field, message", [
    ({"coeff": {"kind": "const", "value": 2.5}}, "coeff.value", "expected int"),
    ({"coeff": {"kind": "const", "value": True}}, "coeff.value", BOOL),
    ({"coeff": {"kind": "table", "values": {"1": 1.5}}}, "coeff.values.1", "expected int"),
    ({"coeff": {"kind": "table", "values": [1]}}, "coeff.values", "expected dict"),
    ({"set": {"kind": "explicit", "members": [1.5, 2]}}, "set.members[0]", "expected int"),
    ({"set": {"kind": "geometric", "u": 1, "j": 2.0}}, "set.j", "expected int"),
    ({"set": {"kind": "pell_x", "D": 2.0}}, "set.D", "expected int"),
    ({"set": {"kind": "naturals", "min": 2.5}}, "set.min", "expected int"),
    ({"set": {"kind": "pell_y", "D": 2, "scale": True}}, "set.scale", BOOL),
])
def test_non_integer_set_and_coeff_parameters_exit_2(tmp_path, capsys, change, field, message):
    spec = write_spec(tmp_path, {"base": 10, "digits": 5, "terms": [{**ALPHA_TERM, **change}]})
    code, out, err = run_cli(["eval", "--spec", spec], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"spec error: field 'terms[0].{field}': {message}\n"


@pytest.mark.parametrize("command, payload, field, pair", [
    ("counterexample", {"pair1": [1, 2], "pair2": [2, 1], "base": 2}, "pair2", "[2, 1]"),
    ("forge", {"i0": 1, "j0": 2, "N": 2, "family": [[1, 2], [3, 0]]}, "family[1]", "[3, 0]"),
    ("check", {"family": [[1, 2], [-1, 3]]}, "family[1]", "[-1, 3]"),
])
def test_exponent_pairs_name_their_field(tmp_path, capsys, command, payload, field, pair):
    code, out, err = run_cli([command, "--spec", write_spec(tmp_path, payload)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"spec error: field '{field}': need i >= 1 and j >= 2, got {pair}\n"


@pytest.mark.parametrize("command, payload, expected", [
    ("gaps", {"range": [1, 16], "terms": [ALPHA_TERM]}, EXIT_OK),
    ("hunt", {"precision": 50, "values": [{"kind": "int", "value": 1},
                                          {"kind": "series", "i": 1, "j": 2, "set": {"kind": "primes"}}]},
     EXIT_NOT_FOUND),
    ("counterexample", {"pair1": [1, 2], "pair2": [2, 2], "precision": 20}, EXIT_OK),
])
def test_base_above_36_is_refused_only_where_digits_are_rendered(tmp_path, capsys, command, payload,
                                                                   expected):
    # eval and digits refuse base 37 (error corpus); these never render digits
    code, _, err = run_cli([command, "--spec", write_spec(tmp_path, {"base": 37, **payload})], capsys)
    assert (code, err) == (expected, "")


def test_missing_spec_flag_returns_2(capsys):
    code, out, err = run_cli(["eval"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("usage: lacunary eval ") and "required: --spec" in err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process: an argparse error, an override
    # and plain calls in a row must each answer as a fresh process does.
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    spec = write_spec(tmp_path, {"base": 2, "digits": 10, "terms": [ALPHA_TERM]})
    gaps = write_spec(tmp_path, {"base": 2, "range": [1, 16], "terms": [ALPHA_TERM]}, "gaps.json")
    calls = [["eval", "--spec", spec, "--budget", "5"],
             ["eval", "--spec", spec, "--precision", "7"],
             ["eval", "--spec", spec],
             ["gaps", "--spec", gaps]]
    in_process = [run_cli(args, capsys) for args in calls]
    env = {**os.environ, "PYTHONPATH": str(Path(lacunary.__file__).resolve().parents[1])}
    fresh = [subprocess.run([sys.executable, "-m", "lacunary.cli", *args],
                            capture_output=True, text=True, env=env) for args in calls]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
    assert [code for code, _, _ in in_process] == [EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_OK]
    assert [json.loads(out)["spec"]["digits"] for _, out, _ in in_process[1:3]] == [7, 10]


def test_range_is_not_an_exponent_pair(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "terms": [ALPHA_TERM], "range": [1, 1]})
    code, _, err = run_cli(["gaps", "--spec", spec], capsys)
    assert (code, err) == (EXIT_OK, "")


def test_gaps_coefficient_table_miss_names_its_term(tmp_path, capsys):
    table = {"kind": "table", "values": {"1": 1}}
    spec = write_spec(tmp_path, {"base": 2, "range": [1, 10], "terms": [
        ALPHA_TERM, {**ALPHA_TERM, "i": 2, "coeff": table}]})
    code, out, err = run_cli(["gaps", "--spec", spec], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == ("spec error: field 'terms[1].coeff': "
                   "coefficient table has no entry for member 2\n")


def test_hunt_values_parse_before_any_is_evaluated(tmp_path, capsys):
    # values[1] misses a table entry, but only evaluation finds that; the
    # short literal of values[2] is a parse error and is reported first.
    miss = {"kind": "series", "i": 1, "j": 2, "set": {"kind": "primes"},
            "coeff": {"kind": "table", "values": {"2": 1}}}
    payload = {"base": 2, "precision": 60, "values": [
        {"kind": "int", "value": 1}, miss, {"kind": "digits", "digits": "1"}]}
    code, out, err = run_cli(["hunt", "--spec", write_spec(tmp_path, payload)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "spec error: field 'values[2].digits': need at least 60 digits for this precision\n"


def test_gaps_range_above_the_candidate_cap_exits_3(tmp_path, capsys):
    # [1, 10**13] holds about 3.2 million squares, past the cap of 10**6; the
    # count comes from two roots, so the job stops without enumerating.
    spec = write_spec(tmp_path, {"base": 2, "range": [1, 10**13], "terms": [ALPHA_TERM]})
    code, out, err = run_cli(["gaps", "--spec", spec], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("budget exhausted: range [1, 10000000000000]")
    assert "3162277 candidate positions" in err



def test_gaps_candidate_cap_boundary(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(series, "MAX_GAP_CANDIDATES", 100)
    at_cap = write_spec(tmp_path, {"base": 2, "range": [1, 10**4], "terms": [ALPHA_TERM]})
    code, out, _ = run_cli(["gaps", "--spec", at_cap], capsys)
    assert code == EXIT_OK  # exactly 100 squares
    assert json.loads(out)["result"]["longest"] == 2 * 99
    past = write_spec(tmp_path, {"base": 2, "range": [1, 101**2], "terms": [ALPHA_TERM]},
                      name="past.json")
    code, _, err = run_cli(["gaps", "--spec", past], capsys)
    assert code == EXIT_BUDGET and "101 candidate positions" in err


def test_diophantine_x_max_above_the_cap_exits_3(tmp_path, capsys):
    spec = write_spec(tmp_path, {"i0": 1, "j0": 3, "i": 1, "j": 2,
                                 "u_max": 1, "x_max": 10**6 + 1})
    code, out, err = run_cli(["diophantine", "--spec", spec], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err == "budget exhausted: x_max = 1000001 is above the cap of 1000000\n"


def test_diophantine_u_max_above_the_candidate_cap_exits_3(tmp_path, capsys):
    # x = 1 alone has about 10**7 candidates y with y**2 within u_max of 1.
    spec = write_spec(tmp_path, {"i0": 1, "j0": 3, "i": 1, "j": 2,
                                 "u_max": 10**14, "x_max": 3})
    code, out, err = run_cli(["diophantine", "--spec", spec], capsys)
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exhausted: u_max = 100000000000000 gives 10000000 candidates "
                   "by x = 1, above the cap of 1000000\n")


def test_diophantine_candidate_cap_boundary(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dependence, "MAX_CANDIDATES", 10)
    # x = 1: the window [1, 1 + u_max] holds the squares of 1..isqrt(1 + u_max)
    at_cap = write_spec(tmp_path, {"i0": 1, "j0": 3, "i": 1, "j": 2, "u_max": 99, "x_max": 1})
    code, out, _ = run_cli(["diophantine", "--spec", at_cap], capsys)
    assert code == EXIT_OK and json.loads(out)["result"]["count"] == 9
    past = write_spec(tmp_path, {"i0": 1, "j0": 3, "i": 1, "j": 2, "u_max": 120, "x_max": 1},
                      name="past.json")
    code, _, err = run_cli(["diophantine", "--spec", past], capsys)
    assert code == EXIT_BUDGET and "gives 11 candidates by x = 1" in err


def test_diophantine_candidate_cap_on_the_short_side(tmp_path, capsys, monkeypatch):
    # y**3 <= 1000**2 + 20 holds y <= 100 < x_max, so the scan walks y. It
    # meets 39 candidate pairs: 29 solutions and the 10 exact x**2 == y**3.
    # Past a cap, the message is the walk over x's, with the x it reached.
    spec = write_spec(tmp_path, {"i0": 1, "j0": 2, "i": 1, "j": 3, "u_max": 20, "x_max": 1000})
    for cap, reached in ((30, "31 candidates by x = 216"), (38, "39 candidates by x = 1000")):
        monkeypatch.setattr(dependence, "MAX_CANDIDATES", cap)
        code, out, err = run_cli(["diophantine", "--spec", spec], capsys)
        assert code == EXIT_BUDGET and out == ""
        assert err == f"budget exhausted: u_max = 20 gives {reached}, above the cap of {cap}\n"
    monkeypatch.setattr(dependence, "MAX_CANDIDATES", 39)
    code, out, _ = run_cli(["diophantine", "--spec", spec], capsys)
    assert code == EXIT_OK and json.loads(out)["result"]["count"] == 29


def test_malformed_specs(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "terms": [ALPHA_TERM]})  # no digits
    code, _, err = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_INPUT
    assert "'digits'" in err

    bad_set = write_spec(tmp_path, {"base": 2, "digits": 10, "terms": [
        {"i": 1, "j": 2, "set": {"kind": "moonphase"}}]}, name="b.json")
    code, _, err = run_cli(["eval", "--spec", bad_set], capsys)
    assert code == EXIT_INPUT
    assert "terms[0].set" in err

    mismatch = write_spec(tmp_path, {"command": "eval", "family": [[1, 2]]},
                          name="c.json")
    code, _, err = run_cli(["check", "--spec", mismatch], capsys)
    assert code == EXIT_INPUT
    assert "'command'" in err

    notjson = tmp_path / "broken.json"
    notjson.write_text("{nope")
    code, _, err = run_cli(["eval", "--spec", str(notjson)], capsys)
    assert code == EXIT_INPUT

    code, _, err = run_cli(["eval", "--spec", str(tmp_path / "missing.json")], capsys)
    assert code == EXIT_INPUT


# Failures outside run_job must exit 2 with one stderr line: a traceback
# exits 1, which reads as a verdict. Each case builds (arguments, the text its
# stderr line must hold) in a directory; integers are sized from the int/str
# digit limit.
def _unreadable_spec(tmp):
    spec = tmp / "latin1.json"
    spec.write_bytes(b'{"base": 2, "digits": 5, "note": "\xff"}')
    return ["eval", "--spec", str(spec)], str(spec)


def _deep_spec(tmp):
    spec = tmp / "deep.json"
    spec.write_text("[" * 10**5 + "]" * 10**5)
    return ["eval", "--spec", str(spec)], str(spec)


def _long_integer_spec(tmp):
    spec = tmp / "long.json"
    spec.write_text('{"base": 2, "digits": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}")
    return ["eval", "--spec", str(spec)], "field 'digits': integer literal of"


def _long_integer_in_a_pair(tmp):
    spec = tmp / "long.json"
    long = "9" * (sys.get_int_max_str_digits() + 1)
    spec.write_text('{"family": [[1, 2], [3, -' + long + "]]}")
    return ["check", "--spec", str(spec)], "field 'family[1]': integer literal of"


def _out_is_a_directory(tmp):
    return ["eval", "--spec", write_spec(tmp, {"base": 2, "digits": 5}), "--out", str(tmp)], str(tmp)


def _out_in_a_missing_directory(tmp):
    out = str(tmp / "missing" / "report.json")
    return ["eval", "--spec", write_spec(tmp, {"base": 2, "digits": 5}), "--out", out], out


UNREADABLE = [_unreadable_spec, _deep_spec, _long_integer_spec, _long_integer_in_a_pair,
              _out_is_a_directory, _out_in_a_missing_directory]


def _assert_one_input_error_line(code, out, err, names):
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("spec error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert names in err and "Traceback" not in err


@pytest.mark.parametrize("case", UNREADABLE, ids=[c.__name__[1:] for c in UNREADABLE])
def test_unreadable_input_and_unwritable_report_exit_2(tmp_path, capsys, case):
    args, names = case(tmp_path)
    _assert_one_input_error_line(*run_cli(args, capsys), names)
    proc = subprocess.run([sys.executable, "-m", "lacunary.cli", *args],
                          capture_output=True, text=True)
    _assert_one_input_error_line(proc.returncode, proc.stdout, proc.stderr, names)


def _loads_past_the_digit_limit(text: str):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_report_past_the_digit_limit_is_written(tmp_path, capsys):
    # center = i0 * q**2 has one digit more than the limit allows i0: main
    # lifts the limit only to write the report, in either format, and the
    # report's embedded spec, whose i0 is at the limit, replays it.
    limit = sys.get_int_max_str_digits()
    spec = tmp_path / "forge.json"
    spec.write_text('{"i0": ' + "9" * limit + ', "j0": 2, "N": 1}')
    outs = {}
    for fmt in ("json", "text"):
        args = ["forge", "--spec", str(spec), "--format", fmt]
        code, outs[fmt], err = run_cli(args, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert sys.get_int_max_str_digits() == limit
        proc = subprocess.run([sys.executable, "-m", "lacunary.cli", *args],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, outs[fmt], "")
    report = _loads_past_the_digit_limit(outs["json"])
    result = report["result"]
    assert result["exclusions"]["center"] == (10**limit - 1) * result["q"] ** 2 >= 10**limit
    center = re.search(r'"center": (\d+)', outs["json"])[1]
    assert f"exclusions.center = {center}\n" in outs["text"]
    replay = write_spec(tmp_path, report["spec"], name="replay.json")
    assert run_cli(["forge", "--spec", replay], capsys) == (EXIT_OK, outs["json"], "")


def test_forge_report_is_independently_reverifiable(tmp_path, capsys):
    spec = write_spec(tmp_path, {"i0": 1, "j0": 2, "N": 2, "d": 1, "h": 1})
    code, out, _ = run_cli(["forge", "--spec", spec], capsys)
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    sysinfo = result["system"]
    # every claim in the certificate re-checks by plain modular arithmetic
    for w in sysinfo["witnesses"]:
        psq = w["p"] ** 2
        assert (w["u"] * w["x"] ** w["k"] + w["v"] - w["p"]) % psq == 0
        assert (sysinfo["solution"] - w["x"]) % psq == 0
    q = result["q"]
    assert q % sysinfo["modulus"] == sysinfo["solution"]
    assert all(q % d for d in range(2, int(q**0.5) + 1))  # trial-division primality
    center = result["exclusions"]["center"]
    assert center == sysinfo["i0"] * q ** sysinfo["j0"]
    for i, j in result["exclusions"]["family"]:
        for n in (center - 1, center + 1):
            if n % i == 0:
                k = round((n // i) ** (1 / j))
                assert all(i * c**j != n for c in (k - 1, k, k + 1) if c >= 1)


def test_replay_reproduces_report_byte_for_byte(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "digits": 30, "terms": [ALPHA_TERM]})
    code, out1, _ = run_cli(["eval", "--spec", spec], capsys)
    assert code == EXIT_OK
    embedded = json.loads(out1)["spec"]
    replay = write_spec(tmp_path, embedded, name="replay.json")
    code, out2, _ = run_cli(["eval", "--spec", replay], capsys)
    assert code == EXIT_OK
    assert out1 == out2


def test_out_file_and_text_format(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": 2, "digits": 20, "terms": [ALPHA_TERM]})
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["eval", "--spec", spec, "--out", str(out_path)], capsys)
    assert code == EXIT_OK and out == ""
    assert json.loads(out_path.read_text())["status"] == "ok"

    code, out, _ = run_cli(["eval", "--spec", spec, "--format", "text"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("lacunary")
    assert any("value_digits" in line for line in out.splitlines())


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lacunary.cli", "eval", "--spec", "/nonexistent.json"],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_INPUT


def test_readme_spec_fields_match_the_field_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in readme.splitlines() if line.count("|") == 6]
    # one README table for the subcommands' top levels, one for terms and hunt
    # values, and one for the set and coefficient objects of each kind
    tables = {"command": _FIELDS,
              "object": {"term": _TERM, **{f"{kind} value": t for kind, t in _VALUES.items()}},
              "kind": {**{f"{kind} set": t for kind, t in _SETS.items()},
                       **{f"{kind} coeff": t for kind, t in _COEFFS.items()}}}
    starts = [idx for idx, row in enumerate(rows) if row[1:] == ["field", "type", "default", "minimum"]]
    assert [rows[idx][0] for idx in starts] == list(tables)
    types = {"integer": int, "list": list, "boolean": bool, "object": dict, "string": str}
    for start, end in zip(starts, starts[1:] + [len(rows)]):
        table, body = tables[rows[start][0]], rows[start + 2:end]
        assert [(c, f, types[t], int(m) if m else None) for c, f, t, _, m in body] == [
            (owner, name, kind, minimum)
            for owner, fields in table.items() for name, kind, _, minimum, *_ in fields]
        defaults = [row[2] for fields in table.values() for row in fields]
        for (_, name, _, cell, _), default in zip(body, defaults):
            if default is _MISSING:
                assert cell.startswith("required"), name
            elif cell.startswith("`"):
                assert json.loads(cell.strip("`")) == default, name
