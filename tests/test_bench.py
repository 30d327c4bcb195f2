"""The benchmark under bench/ still runs against this library.

The benchmark's tracer wraps library functions by name and its checks
call the library directly, so a rename or a broken check shows here
rather than only when the benchmark itself is run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
