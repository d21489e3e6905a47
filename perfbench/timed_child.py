"""Run a command to its end; print its wall time and peak RSS as JSON.

Usage: python3 perfbench/timed_child.py CMD [ARGS...]

The benchmark starts commands through this small interpreter.  A child's
``ru_maxrss`` also counts the memory of the process it was forked from, up
to its ``exec``; starting from here, that is this interpreter's few MiB and
not the benchmark's fitted models.  ``wait4`` reports the peak of the
command and of every worker it reaped.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    print(json.dumps({"wall_s": wall, "peak_kib": usage.ru_maxrss, "returncode": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
