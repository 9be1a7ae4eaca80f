"""Run one benchmark job in this (fresh) interpreter.

    python3 perfbench/child.py lib NAME ARG...          library job
    python3 perfbench/child.py --trace cli ARGV...      flagquiver.cli.main(ARGV), traced
    python3 perfbench/child.py --trace lib NAME ARG...  library job, traced

The job's result goes to stdout and its exit code is the job's.  A traced
job also prints one last stderr line, TRACE_MARKER followed by JSON: the
import time of ``flagquiver.cli``, the in-process time of the job and the
span summary.  ``flagquiver`` must be importable (run.py puts the
checkout's ``src`` on PYTHONPATH).
"""
from __future__ import annotations

import json
import sys
import time

TRACE_MARKER = "@@trace "


def _run(kind, args):
    if kind == "cli":
        from flagquiver import cli
        return cli.main(list(args))
    # imported here so a traced run binds the wrapped library functions
    import libjobs
    sys.stdout.write(libjobs.JOBS[args[0]](*args[1:]))
    return 0


def main(argv):
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    kind, args = argv[0], argv[1:]
    if not trace:
        return _run(kind, args)
    import spans
    t0 = time.perf_counter()
    import flagquiver.cli  # noqa: F401  (the import a CLI user pays)
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code = _run(kind, args)
    sys.stdout.flush()
    run_s = time.perf_counter() - t0
    report = {"import_s": import_s, "run_s": run_s, "spans": tracer.summary(),
              "counts": tracer.counts}
    sys.stderr.write(TRACE_MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
