"""The scripts under scripts/ run against the current API."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from children import run_child
from rscells.verify import Report

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


@pytest.mark.parametrize("max_n", ["1", "0"])
def test_run_verifications_refuses_a_max_n_that_runs_nothing(max_n):
    # degrees start at 2: a smaller --max-n would print nothing and exit 0
    proc = _run_script("run_verifications.py", "--max-n", max_n)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"--max-n must be at least 2, got {max_n}" in proc.stderr


def test_run_verifications_long_reaches_degree_9():
    top_degree = runpy.run_path(str(ROOT / "scripts" / "run_verifications.py"))["top_degree"]
    assert [top_degree(None, False), top_degree(5, False)] == [5, 5]
    assert [top_degree(None, True), top_degree(8, True), top_degree(9, True)] == [6, 8, 9]
    with pytest.raises(ValueError, match="--max-n stops at degree 5 without --long, got 6"):
        top_degree(6, False)
    with pytest.raises(ValueError, match="--max-n stops at degree 9, got 10"):
        top_degree(10, True)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--max-n", "9"), "--max-n stops at degree 5 without --long, got 9"),
        (("--long", "--max-n", "10"), "--max-n stops at degree 9, got 10"),
    ],
    ids=["9-without-long", "10-with-long"],
)
def test_run_verifications_refuses_a_degree_it_would_not_run(argv, message):
    # it used to run 2..5 or 2..9 and exit 0; the timeout catches a run
    proc = _run_script("run_verifications.py", *argv)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: {message}\n"


def test_run_verifications_names_the_suites_it_skips(monkeypatch, capsys):
    # at 9 every suite that reads KL polynomials is above its cap, so the
    # degree builds no table
    run_degree = runpy.run_path(str(ROOT / "scripts" / "run_verifications.py"))["run_degree"]
    ran = []

    def fake_run_suite(name, n, table):
        assert table is None
        ran.append(name)
        return Report(name, n, cases=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("built a KL table")

    globals_ = run_degree.__globals__
    monkeypatch.setitem(globals_, "run_suite", fake_run_suite)
    monkeypatch.setitem(globals_, "KLTable", forbidden)
    assert run_degree(9) == 0
    assert ran == ["crystal-theorem-a", "evacuation", "knuth"]
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (
        "skipped at n=9, above their degree caps: "
        "bar-invariance crystal-djm descents knuth-mu theorem-a"
    )


# the child exits 1 if a suite failed, as the script does
_DEGREE = """
import runpy, sys
run_degree = runpy.run_path(sys.argv[1])["run_degree"]
sys.exit(1 if run_degree(int(sys.argv[2])) else 0)
"""


def _degree_child(n):
    """The process that runs run_degree(n) with no cache, and its VmHWM
    peak in MB."""
    return run_child(_DEGREE, str(ROOT / "scripts" / "run_verifications.py"), str(n))


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_run_verifications_degree_8_on_one_table_long():
    # every suite that runs at n = 8: theorem-a, descents and knuth-mu read
    # one warm S_8 table and its one left-cell partition, and
    # crystal-theorem-a, evacuation and knuth read none.  About 6.5 s at an
    # 81 MB peak, and the bound is that peak plus about 10 %
    proc, peak_mb = _degree_child(8)
    lines = _suite_lines(proc)
    # bar-invariance stops at n = 7 and crystal-djm at 6
    suites = ["crystal-theorem-a", "descents", "evacuation", "knuth", "knuth-mu", "theorem-a"]
    assert [line.split()[:2] for line in lines] == [["n=8", name] for name in suites]
    assert peak_mb < 90, peak_mb


@pytest.mark.skipif(not os.environ.get("RSCELLS_LONG"), reason="long run; set RSCELLS_LONG=1")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_run_verifications_degree_9_without_a_table_long():
    # knuth, evacuation and crystal-theorem-a, which read no KL table; an
    # S_9 table would take hours.  About 7.4 s at a 220 MB peak, set by the
    # crystal walk; the bound is that peak plus about 10 %
    proc, peak_mb = _degree_child(9)
    lines = _suite_lines(proc)
    suites = ["crystal-theorem-a", "evacuation", "knuth"]
    assert [line.split()[:2] for line in lines] == [["n=9", name] for name in suites]
    assert proc.stdout.startswith(
        "skipped at n=9, above their degree caps: "
        "bar-invariance crystal-djm descents knuth-mu theorem-a\n"
    )
    assert peak_mb < 242, peak_mb


def test_cell_census_has_no_mixed_cells():
    proc = _run_script("cell_census.py", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("S_4: 10 left cells\n")
    assert proc.stdout.count("\ncell: ") == 10
    assert "MIXED Q-SYMBOLS" not in proc.stdout


@pytest.mark.parametrize("n", ["0", "9", "10"])
def test_cell_census_refuses_degrees_it_cannot_finish(n):
    # an S_9 table would take hours, and the timeout catches a census that
    # starts one
    proc = _run_script("cell_census.py", n)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: degree {n} outside 1..8\n"
