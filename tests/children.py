"""Run test code in a fresh interpreter and read its peak memory.

The long tests bound a run's VmHWM, the high-water mark of its own address
space: getrusage's ru_maxrss, in the child or from wait4, also counts the
RSS of the parent it was started from.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# `rscells ARGV...`: the exit code of main() is the child's
MAIN = """
import sys
from rscells.cli import main
sys.exit(main(sys.argv[1:]))
"""

# put in front of the child's code: at exit, after sys.exit or a traceback,
# print the VmHWM peak in MB as the last line of stdout
_PEAK_AT_EXIT = """
import atexit

def _print_peak():
    peak = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
    print(int(peak.split()[1]) // 1024)

atexit.register(_print_peak)
"""


def run_child(code, *argv, timeout=900):
    """Run ``python -c CODE ARGV...`` with this checkout's src first on
    PYTHONPATH and no RSCELLS_CACHE_DIR.  Return the finished process, with
    its stdout up to the peak line, and the VmHWM peak in MB."""
    env = {k: v for k, v in os.environ.items() if k != "RSCELLS_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_AT_EXIT + code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    *out, peak = proc.stdout.splitlines(keepends=True)
    proc.stdout = "".join(out)
    return proc, int(peak)
