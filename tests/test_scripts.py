"""Smoke tests for the scripts under scripts/: each runs to exit 0 and prints
a known row."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *argv: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [" ".join(line.split()) for line in proc.stdout.splitlines()]


def test_sympow_tables_script():
    lines = run_script("sympow_tables.py", "--p-list", "5,7")
    assert "=== symmetric powers in Ver_5 ===" in lines
    seven = lines[lines.index("=== symmetric powers in Ver_7 ===") :]
    l3 = seven[seven.index("L3:") :]
    assert "S^2 = L1+L5 dim=6 dim mod p=6 invariants=1" in l3


def test_invariant_survey_script():
    lines = run_script("invariant_survey.py", "--max-total", "8")
    assert lines[0].startswith("i m | p=3 p=5 p=7 p=11")
    assert "4 4 | . . . 1 1 1 1 1 | 1" in lines
