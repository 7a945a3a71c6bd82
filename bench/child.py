"""Run one fractaldim CLI command in this fresh interpreter, the way its users do.

    python3 bench/child.py REPORT TRACE -- ARGV...

Times three things apart: the import of ``fractaldim.cli``, a fixed
reference computation, and the call ``cli.main(ARGV)`` including the flush of
stdout, so interpreter start-up is kept out of the command's time.  With
TRACE = 1 the span recorder is installed just before the command.  The exit
status, stdout and stderr are those of the ``fractaldim`` console script: an
uncaught exception still prints its traceback and exits 1.  REPORT receives a
JSON object with the three times, the peak resident set and, when traced,
the recorded spans.
"""

import sys
import time


def reference() -> int:
    """A fixed piece of interpreter, big-integer and float work (about 30 ms).

    It runs just before the command, in the same process, so that its time
    tracks the speed of the machine at the moment the command runs.
    """
    import math

    x = 0
    for i in range(60000):
        x += (i * i) % 7
    digits = len(str(3**8000))
    logs = math.fsum(math.log(i) for i in range(1, 30000))
    table = {i: str(i) for i in range(30000)}
    pairs = sorted((v, k) for k, v in table.items())
    return x + digits + int(logs) + len(pairs)


def peak_rss_kb() -> int:
    """Peak resident set of this process image in KiB.

    VmHWM starts afresh at exec; ru_maxrss would carry over the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    t0 = time.perf_counter()
    from fractaldim import cli

    t1 = time.perf_counter()
    import json

    t_ref = time.perf_counter()
    reference()
    ref_s = time.perf_counter() - t_ref
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    rc = 1
    t2 = time.perf_counter()
    try:
        rc = cli.main(argv)
        sys.stdout.flush()
    finally:
        t3 = time.perf_counter()
        report = {
            "import_s": t1 - t0,
            "op_s": t3 - t2,
            "ref_s": ref_s,
            "maxrss_kb": peak_rss_kb(),
        }
        if tracer is not None:
            report["spans"] = tracer.spans
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    sys.exit(rc)
