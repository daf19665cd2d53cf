"""The benchmark's own test: ``python3 -m pytest perfbench``.

Runs ``perfbench/run.py --smoke``: both workloads, untraced and traced, at a
tiny configuration, with every output check, and the metric names and units
compared against ``BENCHMARK.json``. Takes about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=300, cwd=RUN.parent.parent)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")
