import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_b3_discrepancy_sweep_prints_relation_and_witness():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "b3_discrepancy_sweep.py"),
         "--degree-bound", "6"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "relation: left-strictly-contained" in lines
    at = lines.index("witness (6 terms, primitive):")
    assert lines[at + 1].startswith("x2*x3^2*y1^2*y2 - ")
