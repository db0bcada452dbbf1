"""The CLI's golden bytes.

``scripts/cli_golden.py`` runs a fixed set of commands and prints, for
each, its exit code and the SHA-256 of its stdout, its stderr and every
file it writes.  ``tests/cli_golden.txt`` holds that output after one line
naming the numpy and Python versions it was taken with, since numpy's
float kernels and argparse's messages may change between versions.  A
change of bytes made on purpose rewrites the file, and shows as its diff:

    (python -c 'import sys, numpy; print("# numpy", numpy.__version__,
                                         "python %d.%d" % sys.version_info[:2])'
     python scripts/cli_golden.py) > tests/cli_golden.txt
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_golden_command_prints_its_recorded_bytes():
    golden = (ROOT / "tests" / "cli_golden.txt").read_text(encoding="utf-8")
    header, *expected = golden.splitlines()
    _, _, numpy_version, _, python_version = header.split()
    here = "%d.%d" % sys.version_info[:2]
    if (np.__version__, here) != (numpy_version, python_version):
        pytest.skip(f"golden bytes taken with numpy {numpy_version} on Python {python_version}, "
                    f"not numpy {np.__version__} on Python {here}")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "cli_golden.py")],
                          capture_output=True, text=True, check=True)
    actual = proc.stdout.splitlines()
    # the first word of a line names its command
    changed = sorted({line.split()[0] for line in set(expected) ^ set(actual)})
    assert changed == []
    assert actual == expected
