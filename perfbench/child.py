"""One round of a workload, in a fresh interpreter.

    python3 perfbench/child.py JOB.json RESULT.json

JOB.json holds {"calls": [argv, ...], "configs": [path, ...], "trace": bool}.
The round imports margauss, numpy and scipy, reads the configs, and then
calls `margauss.cli.main(argv)` once per argv, capturing what each call
prints. RESULT.json gets the monotonic time at which set-up ended, each
call's duration, exit code and output, the process's peak RSS, the BLAS
thread count and, when traced, the spans.
"""

import contextlib
import ctypes
import io
import json
import resource
import sys
import time
import traceback

# Part of set-up: the round's parent times from process start to `ready`.
import numpy  # noqa: F401
import scipy  # noqa: F401

import margauss.cli


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "numpy" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    for path in job["configs"]:
        with open(path) as fh:
            json.load(fh)
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for argv in job["calls"]:
        out = io.StringIO()
        error = None
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out):
                code = margauss.cli.main(argv)
        except (Exception, SystemExit):  # a crashing call is a failed operation, not a crashed round
            code, error = None, traceback.format_exc()
        seconds = time.monotonic() - start
        calls.append({"argv": argv, "code": code, "error": error,
                      "stdout": out.getvalue(), "seconds": seconds})

    result = {
        "ready": ready,
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "margauss_file": margauss.cli.__file__,
        "trace": tracer.dump() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
