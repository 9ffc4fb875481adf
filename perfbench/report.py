"""Run every workload once untraced and once traced, print every end-to-end
and per-layer metric by name and unit, and write the results together with
the machine they ran on.

    python3 perfbench/report.py [--out PATH]

The tracing overhead of a workload is its traced ``op_s_p50`` minus its
untraced ``op_s_p50``.  ``failed_frac`` is failed ops over attempted ops;
it is printed here but is not a ``BENCHMARK.json`` metric, because it is 0
on most workloads and a run reports it as ``failed`` and ``attempted``.
Exits 1 if any run reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def machine_info() -> dict:
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "_out" / "report.json")
    args = parser.parse_args(argv)

    machine = machine_info()
    print(f"machine: {json.dumps(machine)}")
    seconds = bench["run_seconds"]
    report = {"machine": machine, "seed": SEED, "seconds": seconds, "workloads": {}}
    all_correct = True
    for entry in bench["workloads"]:
        name = entry["name"]
        plain = run(name, SEED, seconds, 0)
        traced = run(name, SEED, seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        attempted, failed = plain["attempted"], plain["failed"]
        e2e = {k: m["value"] for k, m in plain["metrics"].items()}
        layers = {k: m["value"] for k, m in traced["metrics"].items()}
        overhead = layers["trace.op_s_p50"] - e2e["op_s_p50"]
        print(f"\n== {name}: {entry['why']}")
        print(f"  correct={plain['correct'] and traced['correct']}  "
              f"untraced {attempted} ops, traced {traced['attempted']} ops")
        for metric in bench["end_to_end"]:
            note = f"median of {attempted} samples" if metric["name"].endswith("_p50") else ""
            show(metric["name"], e2e[metric["name"]], metric["unit"], note)
        show("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} ops")
        print("  per layer (traced run):")
        for metric in bench["per_layer"]:
            show(metric["name"], layers[metric["name"]], metric["unit"])
        show("trace.overhead_s", overhead, "s",
             f"{100 * overhead / e2e['op_s_p50']:+.1f}% of untraced op_s_p50")
        report["workloads"][name] = {
            "untraced": plain,
            "traced": traced,
            "failed_frac": failed / attempted,
            "trace_overhead_s": overhead,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
