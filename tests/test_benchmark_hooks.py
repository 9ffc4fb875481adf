"""The traced benchmark wraps library functions by name; they must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracing_installs():
    # perfbench/tracing.py fails in install() if a wrapped name is missing
    script = (
        "import sys\n"
        "import hyperspec.cli\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracing\n"
        "tracing.install(tracing.Recorder())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
