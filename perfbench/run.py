"""lacunary benchmark: seeded CLI job workloads, end to end or traced per layer.

Run from the root of a lacunary checkout:

  python3 perfbench/run.py --workload precision --seed 1 --seconds 10 --trace 0

The seed fixes one list of job specs (jobs.py).  With ``--trace 0`` that list
runs in full passes, each in a fresh child interpreter (worker.py) that
feeds the specs to ``lacunary.cli.main`` one at a time, a closed loop with
one client.  Passes repeat (one or two, by workload) until their wall times
add up to ``--seconds``; then re-timing passes, each in a fresh child, run
the cheapest 80% of the jobs again.  A job's latency is the least of its
timings, and the job list's wall time the least of the full passes'.  With
``--trace 1`` the list runs once with span wrappers installed and once
without, each in a fresh child, and the per-layer metrics come from the
traced pass.  Then one more child replays every report from its embedded
spec, untimed.  This process checks every report with the independent
checker (check.py) and requires every other run of a job to match its first
byte for byte.
``--workload all`` runs the workloads one after another.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the checker imports sympy; write nothing outside the checkout

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import jobs as jobgen  # noqa: E402
import tracer  # noqa: E402

WORK_DIR = ".bench_run"
WORKLOAD_TIMEOUT_S = 170  # for one workload; each child gets what is left
SETUP_SAMPLES_PER_PASS = 5
# Full passes per workload, within the benchmark's time limit: a precision
# pass takes twice as long as the others.  Then re-timing passes, each in a
# fresh child, over the cheapest share of the jobs by rank after the full
# passes: the jobs that set job_s.p50 and job_s.tail, which a busy moment of
# the host moves most.  The share and the pass counts are fixed, so the jobs
# re-timed do not depend on the program's speed; jobs_per_s and peak_rss_mb
# come from the full passes alone.
MIN_PASSES = {"precision": 1, "windows": 2, "relations": 2}
RETIME_PASSES = {"precision": 2, "windows": 4, "relations": 4}
RETIME_SHARE = 0.8

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s",
                    "peak_rss_mb": "MiB", "verified_ratio": "ratio"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)  # jobs must meet the default limit
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every run
    env["PYTHONPATH"] = str(root / "src")
    return env


_deadline = 0.0  # set when a workload starts


def time_left() -> float:
    return max(1.0, _deadline - time.monotonic())


def run_child(root: Path, work: Path, name: str, manifest: list, trace: bool = False) -> dict:
    """Run the manifest's jobs in a fresh child interpreter; jobs never run here."""
    manifest_path, result_path = work / f"{name}.manifest.json", work / f"{name}.result.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    argv = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
            "--result", str(result_path)] + (["--trace"] if trace else [])
    proc = subprocess.run(argv, env=child_env(root), cwd=root, capture_output=True, text=True,
                          timeout=time_left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def setup_samples(root: Path, work: Path, count: int) -> list[float]:
    """Seconds for a fresh interpreter to import lacunary and return from a trivial job."""
    command, spec = jobgen.trivial_job()
    spec_path = work / "setup.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = "import sys; from lacunary.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, command, "--spec", str(spec_path),
            "--out", str(work / "setup.report.json")]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(root), cwd=root, capture_output=True,
                              text=True, timeout=time_left())
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up job exited {proc.returncode}: {proc.stderr.strip()}")
    return samples


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least 10 jobs beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def report_of(run: dict) -> Path | None:
    out = Path(run["out_path"])
    return out if isinstance(run["exit"], int) and out.is_file() else None


def classify(checker: check.Checker, job: dict) -> list[str]:
    """Problems with one job; a predicted fraction_sci failure has the single
    problem "known defect".  Every other run of the job must exit alike and
    write the same bytes as the first."""
    first = job["first"]
    code = first["exit"]
    if job["known_defect"] and code == 2 and check.KNOWN_DEFECT_MESSAGE in first["stderr"]:
        return ["known defect"]
    out = report_of(first)
    report = json.loads(out.read_text(encoding="utf-8")) if out else None
    problems = checker.check(job, code, report)
    if problems and first["stderr"]:
        problems.append("stderr: " + first["stderr"].strip().splitlines()[-1])
    if not problems:
        for label, again in job["others"]:
            other = report_of(again)
            if again["exit"] != code or other is None or other.read_bytes() != out.read_bytes():
                problems.append(f"{label} differs from the first run")
                break
    return problems


def replay_manifest(jobs: list[dict], work: Path) -> list[list[str]]:
    """Each report's embedded spec, to be run again; jobs without a report are left out."""
    manifest = []
    for idx, job in enumerate(jobs):
        out = report_of(job["first"])
        if out is None:
            continue
        report = json.loads(out.read_text(encoding="utf-8"))
        spec_path = work / f"{idx:03d}.replay.spec.json"
        spec_path.write_text(json.dumps(report["spec"]), encoding="utf-8")
        manifest.append([report["command"], str(spec_path), str(work / f"{idx:03d}.replay.json")])
        job["replay_index"] = len(manifest) - 1
    return manifest


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    global _deadline
    _deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    work = root / WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    jobs = jobgen.workload_jobs(workload, seed)
    for idx, job in enumerate(jobs):
        job["stem"] = str(work / f"{idx:03d}")
        job["spec_path"] = job["stem"] + ".spec.json"
        Path(job["spec_path"]).write_text(json.dumps(job["spec"]), encoding="utf-8")
        job["others"] = []  # (label, run) of every run after the first

    def run_pass(name: str, subset: list[dict] = jobs, trace: bool = False) -> dict:
        """Run the jobs in a fresh child; file each run under its job."""
        result = run_child(root, work, name, [
            [job["command"], job["spec_path"], f"{job['stem']}.{name}.json"]
            for job in subset], trace)
        for job, run in zip(subset, result["runs"]):
            if "first" in job:
                job["others"].append((f"run {name}", run))
            else:
                job["first"] = run
        return result

    # One untimed start first, so the bytecode cache is written as an
    # installed CLI would have it.
    setup_samples(root, work, 1)
    setup, walls, rss = [], [], []
    if trace:
        # The same specs in two fresh children, traced and untraced; their
        # wall times give trace.overhead.
        traced = run_pass("traced", jobs, trace=True)
        untraced = run_pass("untraced")
    else:
        # Full passes, each in a fresh child, of every job: at least
        # MIN_PASSES, and more until their wall times add up to `seconds`.
        # A job's latency is the least of its timings.
        while len(walls) < MIN_PASSES[workload] or sum(walls) < seconds:
            setup += setup_samples(root, work, SETUP_SAMPLES_PER_PASS)
            result = run_pass(f"p{len(walls)}")
            for job, run in zip(jobs, result["runs"]):
                job.setdefault("timings", []).append(run["seconds"])
            walls.append(result["wall_s"])
            rss.append(result["peak_rss_mb"])
        cheapest = sorted(jobs, key=lambda job: min(job["timings"]))
        cheapest = cheapest[:math.ceil(RETIME_SHARE * len(jobs))]
        for index in range(RETIME_PASSES[workload]):
            result = run_pass(f"r{index}", cheapest)
            for job, run in zip(cheapest, result["runs"]):
                job["timings"].append(run["seconds"])
    # The README's contract: the spec embedded in a report reproduces it.
    # Run outside the timed passes, in a fresh child.
    replays = run_child(root, work, "replay", replay_manifest(jobs, work))
    for job in jobs:
        if "replay_index" in job:
            job["others"].append(("replay of the embedded spec", replays["runs"][job["replay_index"]]))

    checker = check.Checker(check.load_oracles(root))
    for job in jobs:
        job["problems"] = classify(checker, job)
    verified = [job for job in jobs if not job["problems"]]
    known = [job for job in jobs if job["problems"] == ["known defect"]]
    failures = [job for job in jobs if job["problems"] and job["problems"] != ["known defect"]]

    passes = "traced and untraced" if trace else (
        f"full passes {len(walls)}, re-timing passes {RETIME_PASSES[workload]} "
        f"(the cheapest {math.ceil(RETIME_SHARE * len(jobs))} jobs)")
    lines = [f"# {workload}: seed {seed}, {len(jobs)} jobs, {passes}; {len(verified)} verified "
             f"and replayed byte-identical, {len(known)} known fraction_sci failures, "
             f"{len(failures)} other failures"]
    if known:
        rungs = sorted({job["rung"] for job in known})
        lines.append(f"# {workload}: known fraction_sci failures (exit 2) on rungs: {', '.join(rungs)}")
    for job in failures[:20]:
        lines.append(f"# {workload}: FAILED {job['rung']} {job['spec_path']}: "
                     f"{'; '.join(job['problems'])}")

    trace_ok = True
    if trace:
        summary = traced["trace"]
        report_bytes = sum(out.stat().st_size for job in jobs
                           if (out := report_of(job["first"])) is not None)
        values = tracer.per_layer_metrics(summary, report_bytes,
                                          traced["wall_s"] / untraced["wall_s"] - 1)
        units = dict(tracer.PER_LAYER)
        samples = {name: len(jobs) for name in units}
        for problem in summary["problems"][:20]:
            lines.append(f"# {workload}: TRACE PROBLEM {problem}")
        if summary["missing"]:
            lines.append(f"# {workload}: TRACE PROBLEM not traced (absent): "
                         f"{', '.join(summary['missing'])}")
        trace_ok = not summary["problems"] and not summary["missing"]
    else:
        latencies = [min(job["timings"]) for job in jobs]
        tail_p = tail_percentile(len(jobs))
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(verified) / min(walls),
            "job_s.p50": statistics.median(latencies),
            "job_s.tail": percentile(latencies, tail_p),
            "peak_rss_mb": max(rss),
            "verified_ratio": len(verified) / len(jobs),
        }
        units = END_TO_END_UNITS
        samples = {name: len(jobs) for name in units}
        samples.update({"setup_s": len(setup), "jobs_per_s": len(walls), "peak_rss_mb": len(rss)})
    for name, value in values.items():
        note = f" (p{tail_p:g})" if name == "job_s.tail" else ""
        lines.append(f"{workload:<10} {name:<52} {value:>14.6g} {units[name]:<8} "
                     f"n={samples[name]}{note}")
    return {"lines": lines, "attempted": len(jobs), "failed": len(jobs) - len(verified),
            "correct": not failures and trace_ok,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lacunary benchmark")
    parser.add_argument("--workload", default="all", choices=(*jobgen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lacunary" / "cli.py").is_file() or not (
            root / "tests" / "oracles.py").is_file():
        print("perfbench: run from the root of a lacunary checkout "
              "(src/lacunary/cli.py and tests/oracles.py are needed)", file=sys.stderr)
        return 2
    # The checker converts long digit strings; no job runs in this process.
    sys.set_int_max_str_digits(0)

    workloads = jobgen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            results[workload] = run_workload(root, workload, args.seed, args.seconds,
                                             bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(results[workload]["lines"]), flush=True)

    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
