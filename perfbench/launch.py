"""Run one command and print its wall time, CPU time and peak RSS as JSON.

    launch.py STDOUT_FILE STDERR_FILE TIMEOUT_S COMMAND...

The benchmark starts every trapcc process through this small launcher.
Linux carries the peak RSS of the process that starts a child over into the
child's own figure, so a child started straight from the benchmark (which
holds numpy, scipy and the checks' data) would report at least the
benchmark's size.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(stdout_file: str, stderr_file: str, timeout: str, *cmd: str) -> int:
    with open(stdout_file, "wb") as out, open(stderr_file, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "returncode": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
