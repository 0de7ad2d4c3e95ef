"""Self-tests of the benchmark's span tracer.

After installing, no lacunary module namespace or class may still hold an
unwrapped traced function, and for every job the self times of its spans
must add up to the job's root span.  Every test uninstalls the wrappers
before it ends.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

from lacunary import arith, cli, dependence, forge, relations, series, sets  # noqa: E402
import lacunary  # noqa: E402

SMALL_JOBS = [
    ("eval", {"base": 10, "digits": 40, "terms": [
        {"weight": 1, "i": 1, "j": 2, "set": {"kind": "pell_x", "D": 2}},
        {"weight": -1, "i": 1, "j": 3, "set": {"kind": "primes"}, "coeff": {"kind": "alternating"}}]}),
    ("digits", {"base": 3, "digits": 60, "count": 20, "terms": [
        {"i": 2, "j": 2, "set": {"kind": "squarefree"}}]}),
    ("gaps", {"base": 2, "range": [1, 400], "terms": [
        {"i": 1, "j": 2, "set": {"kind": "naturals"}},
        {"weight": -1, "i": 1, "j": 2, "set": {"kind": "pell_y", "D": 3, "scale": 2}}]}),
    ("forge", {"i0": 1, "j0": 2, "N": 3, "family": [[1, 2], [2, 3]]}),
    ("check", {"family": [[1, 2], [4, 2], [2, 5]]}),
    ("counterexample", {"pair1": [1, 2], "pair2": [2, 2], "base": 2, "precision": 80}),
    ("diophantine", {"i0": 1, "j0": 3, "i": 1, "j": 2, "u_max": 3, "x_max": 50}),
    ("hunt", {"base": 2, "precision": 80, "values": [
        {"kind": "int", "value": 1},
        {"kind": "series", "i": 1, "j": 2, "set": {"kind": "pell_x", "D": 2}},
        {"kind": "series", "i": 2, "j": 2, "set": {"kind": "pell_y", "D": 2}}]}),
]


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_every_copy_of_a_traced_function_is_wrapped(tracer):
    assert tracer.coverage_problems() == []
    # The copies made by `from .arith import ...` and the package re-exports.
    for holder, name in [(forge, "factor"), (forge, "is_prime"), (sets, "factor"),
                         (sets, "is_prime"), (series, "is_exponent_image"),
                         (dependence, "factor"), (lacunary, "factor"),
                         (series, "set_enumerate"), (lacunary, "lll_reduce")]:
        if hasattr(holder, name):
            assert hasattr(getattr(holder, name), "__wrapped__"), f"{holder.__name__}.{name}"
    for method in ("contains", "members_up_to"):
        assert hasattr(vars(sets.ExponentSet)[method], "__wrapped__")


def test_uninstall_restores_the_originals():
    before = {(id(h), k): v for h in (arith, series, sets, forge, dependence, relations, cli, lacunary)
              for k, v in vars(h).items()}
    contains = vars(sets.ExponentSet)["contains"]
    tr = tracing.Tracer()
    for _ in range(2):  # a second install must wrap the originals, not the wrappers
        tr.install()
        assert tr.coverage_problems() == []
        tr.uninstall()
    after = {(id(h), k): v for h in (arith, series, sets, forge, dependence, relations, cli, lacunary)
             for k, v in vars(h).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert vars(sets.ExponentSet)["contains"] is contains


def test_call_time_import_of_pell_iter_is_traced(tracer):
    assert sets.pell_x(2).contains(577)
    spans = {(name, parent) for name, parent, *_ in tracer.summary()["spans"]}
    assert ("dependence.pell_iter", "sets.contains") in spans
    assert ("dependence.pell_fundamental", "dependence.pell_iter") in spans


@pytest.mark.parametrize("command,spec", SMALL_JOBS, ids=[c for c, _ in SMALL_JOBS])
def test_self_times_add_up_to_the_root_span(tracer, tmp_path, command, spec):
    spec_path, out_path = tmp_path / "job.json", tmp_path / "report.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    mark = tracer.job_mark()
    code = cli.main([command, "--spec", str(spec_path), "--out", str(out_path)])
    assert code in (0, 1)
    assert tracer.job_problems(mark) == []
    names = {name for name, parent, *_ in tracer.summary()["spans"] if parent == tracing.ROOT}
    assert names == {"cli.main"}


def test_per_layer_metrics_match_the_benchmark_definition(tracer):
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = tracing.per_layer_metrics(tracer.summary(), 0, 0.0)
    assert list(metrics) == [m["name"] for m in definition["per_layer"]]
    assert dict(tracing.PER_LAYER) == {m["name"]: m["unit"] for m in definition["per_layer"]}
