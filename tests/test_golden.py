"""Replay the saved job specs under tests/golden/ and compare report bytes.

Each case in tests/golden/cases.json names a spec (<name>.spec.json), the
subcommand, the output format and the exit code; the expected report is
<name>.report.json or <name>.report.txt. Together the cases cover every
subcommand, set kind and coefficient kind, `min` cutoffs, and an exit-1
check. A report that changes is a change of output, not of layout: update
the saved file only on purpose.

tests/golden/errors.json pins the other side: error and edge specs, each
with its subcommand, extra arguments, exit code and exact stderr. A case
whose spec JSON cannot hold (an integer literal past the int/str digit
limit) gives the spec file's text as "spec_text" instead.
"""

import json
from pathlib import Path

import pytest

from lacunary.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
ERRORS = json.loads((GOLDEN / "errors.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_saved_bytes(case, tmp_path):
    ext = "json" if case["format"] == "json" else "txt"
    out = tmp_path / f"report.{ext}"
    code = main([case["command"], "--spec", str(GOLDEN / f"{case['name']}.spec.json"),
                 "--out", str(out), "--format", case["format"]])
    assert code == case["exit"]
    assert out.read_bytes() == (GOLDEN / f"{case['name']}.report.{ext}").read_bytes()


def test_corpus_covers_every_command_and_kind():
    commands = {c["command"] for c in CASES}
    set_kinds, coeff_kinds = set(), set()
    for case in CASES:
        spec = json.loads((GOLDEN / f"{case['name']}.spec.json").read_text(encoding="utf-8"))
        for term in spec.get("terms", []) + spec.get("values", []):
            if "set" in term:
                set_kinds.add(term["set"]["kind"])
                coeff_kinds.add(term.get("coeff", {"kind": "const"})["kind"])
    assert commands == set(COMMANDS)
    assert set_kinds == {"naturals", "primes", "primes_in_ap", "squarefree", "explicit",
                         "geometric", "pell_x", "pell_y"}
    assert coeff_kinds == {"const", "alternating", "table"}
    assert any(c["exit"] == 1 and c["command"] == "check" for c in CASES)


@pytest.mark.parametrize("case", ERRORS, ids=[c["name"] for c in ERRORS])
def test_error_matches_saved_stderr(case, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(case.get("spec_text") or json.dumps(case["spec"]), encoding="utf-8")
    code = main([case["command"], "--spec", str(spec), *case.get("args", [])])
    assert (code, capsys.readouterr().err) == (case["exit"], case["stderr"])


def _objects(spec: dict):
    """(where, object) for the top level, each term and hunt value, and their sets and coeffs."""
    yield "", spec
    for key in ("terms", "values"):
        for idx, item in enumerate(spec.get(key, [])):
            yield f"{key}[{idx}].", item
            for field in ("set", "coeff"):
                if field in item:
                    yield f"{key}[{idx}].{field}.", item[field]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_unknown_field_at_every_level_is_named(case, tmp_path, capsys):
    text = (GOLDEN / f"{case['name']}.spec.json").read_text(encoding="utf-8")
    for where, _ in _objects(json.loads(text)):
        spec = json.loads(text)  # a fresh copy for each level
        dict(_objects(spec))[where]["unlisted"] = 1
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main([case["command"], "--spec", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            2, "", f"spec error: field '{where}unlisted': unknown field\n")
