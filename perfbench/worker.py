"""Child process of the benchmark: runs a list of jobs through lacunary.cli.main.

  worker.py --manifest M --result R [--trace]

M is a JSON list of [command, spec path, report path].  The jobs run one at
a time in this fresh interpreter, in order: a closed loop with one client.
It never raises the int/str digit limit.  R receives each job's exit code,
latency (from the call of cli.main to its return) and stderr tail, the wall
time of the whole list, and ru_maxrss.  With --trace the span wrappers of
tracer.py are installed for the whole list, and R also receives the span
summary and every coverage or self-time problem.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

DEFAULT_INT_MAX_STR_DIGITS = 4300


def _call(main, command: str, spec_path: str, out_path: str) -> dict:
    """One closed-loop call of cli.main, timed from the call to its return."""
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--spec", spec_path, "--out", out_path])
    except Exception:  # a crash of the program is a job failure, not ours
        code = "crash"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"exit": code, "seconds": seconds, "stderr": err.getvalue()[-2000:],
            "out_path": out_path}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if sys.get_int_max_str_digits() != DEFAULT_INT_MAX_STR_DIGITS:
        raise SystemExit("worker: the int/str digit limit was changed; unset PYTHONINTMAXSTRDIGITS")
    with open(args.manifest, encoding="utf-8") as f:
        manifest = json.load(f)
    from lacunary import cli

    tracer, problems = None, []
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        problems += tracer.coverage_problems()
    main = cli.main  # the wrapper while traced

    runs = []
    start = time.perf_counter()
    for command, spec_path, out_path in manifest:
        mark = tracer.job_mark() if tracer else None
        runs.append(_call(main, command, spec_path, out_path))
        if tracer:
            problems += [f"{spec_path}: {p}" for p in tracer.job_problems(mark)]
    wall_s = time.perf_counter() - start

    result = {"runs": runs, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        result["trace"] = {**tracer.summary(), "problems": problems}
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
