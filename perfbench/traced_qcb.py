"""Run the qcb command line with tracing installed, then write the spans.

Usage: python3 perfbench/traced_qcb.py SPANS.json <qcb arguments...>

It is the same ``qcb`` invocation the untraced workloads make, in a process
of its own, so the difference between the two wall clocks is the tracing
overhead.  The wall clock stored with the spans runs from the start of this
script to the return of ``qcb``; the span dump after it is not counted.
"""
import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spantrace import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, qcb_args = argv[0], argv[1:]
    from qcb import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(qcb_args)
    tracer.wall_s = time.perf_counter() - STARTED
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
