"""The hyperspec benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Every process of the run is a fresh child (``worker.py``) with the BLAS and
OpenMP thread pools pinned to one thread.  With ``--trace 0`` the run
reports the end-to-end metrics; ``setup_s`` is the median over
``SETUP_SAMPLES`` children that each import hyperspec and build the inputs,
the last of which goes on to run the ops.  With ``--trace 1`` a single
traced child reports the per-layer metrics.  The last line of standard
output is the result as one JSON object.

Workloads, metrics and the layer each metric belongs to are described in
``workloads.py`` and ``tracing.py``; ``report.py`` runs every workload and
prints them all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Processes that set up per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: The whole run, set-up samples included, must end within this many seconds.
RUN_DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    """A child process failed; the run prints no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, deadline: float, extra: list[str]) -> dict:
    """Run one worker process and return the JSON object on its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("no time left for another child process")
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(argv + ["--t0", repr(time.monotonic())], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {RUN_DEADLINE_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            result = spawn(args, deadline, [])
        else:
            samples = [spawn(args, deadline, ["--setup-only"])["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
            result = spawn(args, deadline, [])
            setup = result["metrics"]["setup_s"]
            samples.append(setup["value"])
            setup["value"] = statistics.median(samples)
            print(f"setup_s samples: {samples}")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
