"""The example scripts run end to end against the library in `src`."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_gcd_determinant_table():
    proc = run_script("gcd_determinant_table.py", "-n", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 13
    # the four routes agree on det of the 12 x 12 gcd grid, the totient product
    assert lines[-1].split() == ["12", "737280", "737280", "737280", "737280"]


def test_pentagon_demo():
    proc = run_script("pentagon_demo.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "meet matrix over x1 x2 x3 x4 x5:"
    assert lines[-3:] == [
        "zero diagonal recursion values: k = 4",
        "rank bounds [1, 4], exact rank 4",
        "determinant: 0",
    ]
