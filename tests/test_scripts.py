"""The scripts under scripts/ run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("RSCELLS_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _suite_lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("n=")]
    assert all(" PASS (" in line for line in lines), proc.stdout
    return lines


def test_run_verifications_passes_every_suite():
    proc = _run_script("run_verifications.py", "--max-n", "4")
    # degrees 2..4, eight suites each
    assert len(_suite_lines(proc)) == 24


def test_run_verifications_long_honours_max_n():
    proc = _run_script("run_verifications.py", "--long", "--max-n", "4")
    assert len(_suite_lines(proc)) == 24


def test_cell_census_has_no_mixed_cells():
    proc = _run_script("cell_census.py", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("S_4: 10 left cells\n")
    assert proc.stdout.count("\ncell: ") == 10
    assert "MIXED Q-SYMBOLS" not in proc.stdout
