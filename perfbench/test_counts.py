"""The benchmark's own checks.

    python3 -m pytest perfbench/test_counts.py

Two traced one-op runs of each workload on one seed must report exactly the
same counts, so a later change may rest a claim on them.  Takes one to
two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS, PER_LAYER  # noqa: E402
from worker import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload: str) -> dict[str, float]:
    """Every metric of a one-op traced run that is not a time."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    assert set(EXACT_COUNTS) <= set(first)
    assert first == second


def test_benchmark_json_lists_what_the_code_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
