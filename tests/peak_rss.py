"""The peak resident set of a fresh Python process, as ``wait4`` reports it.

Linux carries the peak of the address space that ``exec`` replaces into the
peak it reports for the new program, so a process started straight from a
test process reports at least the test process's own peak, which in a
pytest run is larger than that of any trapcc command measured.  A small
launcher process starts the measured one and reports its figure instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import trapcc

SRC = str(Path(trapcc.__file__).resolve().parents[1])
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def peak_rss_mb(*args: str) -> float:
    """The peak resident set, in MB, of ``python *args`` run with trapcc
    importable, which must exit 0; its stdout is discarded."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True,
    )
    code, kibibytes = map(int, proc.stdout.split())  # kibibytes on Linux
    assert code == 0, proc.stderr
    return kibibytes / 1024
