"""The scripts under scripts/ run end to end against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

from lienil.rootsys import all_types

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_round_trip_demo():
    # E6 (dim 36) is the largest type whose Jacobi check makes P over
    # every pair in one product; B3 is small.
    for name in ("B3", "E6"):
        proc = run_script("round_trip_demo.py", name, "--seed", "1")
        assert proc.returncode == 0, proc.stderr
        assert "Jacobi holds" in proc.stdout
        assert "matches the canonical identification" in proc.stdout


def test_invariant_table():
    proc = run_script("invariant_table.py", "--max-rank", "3")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[0] == "type"
    assert [row.split()[0] for row in rows] == [str(t) for t in all_types(3)]
