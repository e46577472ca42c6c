"""The benchmark's tracer still wraps every traced name of the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_coverage_selftest():
    """A dropped or renamed traced name fails here, not first in the benchmark."""
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "coverage"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
