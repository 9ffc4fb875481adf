"""One measured workload run, in its own process (started by ``run.py``).

Sets up the workload's inputs, then runs ops in a closed loop with one
client for up to ``--seconds`` (always at least one op), checks every op's
output, and prints the result as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import REPEAT_RTOL, WORKLOADS  # noqa: E402

#: End-to-end metrics of an untraced run: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("cpu_s_p50", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: Exit code of a CLI command whose solve did not converge.  Its output is
#: still checked, and the op counts as failed.
EXIT_NO_CONVERGENCE = 3


def import_library():
    """Import hyperspec from this checkout's ``src`` and nowhere else."""
    package = ROOT / "src" / "hyperspec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no hyperspec package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import hyperspec.cli

    if Path(hyperspec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hyperspec from {hyperspec.__file__}, not {package}")
    return hyperspec.cli


def run_command(cli, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call; a raised
    exception is reported as exit code -1 with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the op fails; the run goes on and reports it
            code = -1
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def check_op(workload, results) -> tuple[list[float], list[str], bool]:
    """(radii, wrong outputs, failed) for one op's command results."""
    radii, problems, failed = [], [], False
    for index, (code, stdout, stderr) in enumerate(results):
        where = workload.commands[index][0]
        if code != 0:
            failed = True
            if code != EXIT_NO_CONVERGENCE:
                problems.append(f"{where}: exit {code}: {stderr.strip()[:200]}")
                continue
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as exc:
            problems.append(f"{where}: output is not JSON: {exc}")
            continue
        got, wrong = workload.check(index, payload)
        radii.extend(got)
        problems.extend(wrong)
    return radii, problems, failed or bool(problems)


def repeat_problems(first: list[float], radii: list[float]) -> list[str]:
    if len(first) != len(radii):
        return [f"op reported {len(radii)} radii, first op {len(first)}"]
    return [f"radius {b!r} differs from the first op's {a!r}"
            for a, b in zip(first, radii)
            if not math.isclose(a, b, rel_tol=REPEAT_RTOL, abs_tol=0.0)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s, and exit")
    args = parser.parse_args(argv)

    cli = import_library()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](workdir, args.seed)
        if args.setup_only:
            print(json.dumps({"setup_s": time.monotonic() - args.t0}))
            return 0
        rec = None
        if args.trace:
            rec = tracing.Recorder()
            tracing.install(rec)
        setup_s = time.monotonic() - args.t0

        walls, cpus, problems = [], [], []
        failed, first = 0, None
        loop_start = time.perf_counter()
        # start an op only if it should end within --seconds, judged by the
        # median op so far, so a run lasts about --seconds (at least one op)
        while not walls or (time.perf_counter() - loop_start
                            + statistics.median(walls) <= args.seconds):
            if rec is not None:
                rec.begin_op()
            w0, c0 = time.perf_counter(), time.process_time()
            results = [run_command(cli, command) for command in workload.commands]
            walls.append(time.perf_counter() - w0)
            cpus.append(time.process_time() - c0)
            radii, wrong, op_failed = check_op(workload, results)
            if first is None:
                first = radii
            else:
                wrong += repeat_problems(first, radii)
            problems += wrong
            failed += op_failed or bool(wrong)
            codes = [code for code, _, _ in results]
            print(f"op {len(walls)}: {walls[-1]:.4f} s wall, {cpus[-1]:.4f} s cpu, exit {codes}")
        loop_s = time.perf_counter() - loop_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    attempted = len(walls)
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed "
          f"(failed_frac {failed / attempted:.4g}), op_s_p50 over {attempted} samples")
    if rec is None:
        values = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(walls),
            "cpu_s_p50": statistics.median(cpus),
            "ops_per_s": attempted / loop_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        rec.save(HERE / "_out" / f"spans-{args.workload}.npz")
        values = rec.metrics(walls)
        units = dict(tracing.PER_LAYER)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
