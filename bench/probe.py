"""Run one nesthilb CLI command in this fresh interpreter, as `nesthilb` would.

Usage: probe.py [--trace] <nesthilb arguments...>

Stdout, stderr and the exit code are the CLI's own.  A JSON report goes to
the file descriptor named by $BENCH_REPORT_FD: `setup_end`, the
time.monotonic() of the first engine or suite call, and with --trace the
layer spans of bench/layers.py.
"""

import json
import os
import resource
import sys
import time

from nesthilb import cli, engine, verify


def peak_rss_mb():
    """Peak resident memory of this process after exec, or of a pool worker.

    ru_maxrss of RUSAGE_SELF would also count the launching process, whose
    memory the kernel records for the child at exec; VmHWM does not.
    """
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(hwm_kb, workers_kb) / 1024


def main(argv):
    tracer = None
    if argv[:1] == ["--trace"]:
        from layers import Tracer

        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    report = {"setup_end": None}

    def first_call(module, name):
        fn = getattr(module, name)

        def marked(*args, **kwargs):
            if report["setup_end"] is None:
                report["setup_end"] = time.monotonic()
            return fn(*args, **kwargs)

        setattr(module, name, marked)

    for module, name in ((engine, "invariant_record"), (engine, "z_nest_series"),
                         (verify, "run_suite")):
        first_call(module, name)
    code = cli.main(argv)
    sys.stdout.flush()
    report["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        report["trace"] = tracer.report()
    with os.fdopen(int(os.environ["BENCH_REPORT_FD"]), "w") as channel:
        json.dump(report, channel)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
