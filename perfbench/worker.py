"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec holds ``argv`` (the timed CLI call), ``mode`` ("memory" runs it
under tracemalloc, anything else plainly) and, to trace the call instead,
``spans_path`` and ``op``.  The worker imports hkmulti, prints ``ready``,
runs the operation and prints one JSON result line.  The parent times the
span from process start to ``ready`` as set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def quiet(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(argv)
    return rc, out.getvalue(), err.getvalue()


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` would not do: Linux carries the peak of the process that
    started this one over the exec, so it reads at least the harness's size.
    The high-water mark of the current address space starts afresh.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    from hkmulti import cli

    print("ready", flush=True)

    call = cli.main
    tracer = None
    retained: list[int] = []
    if "spans_path" in spec:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        call = tracer.wrap(spans.ROOT, cli.main)
    elif spec["mode"] == "memory":
        import tracemalloc

        def measured(fn):
            def inner(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                result = fn(*args, **kwargs)
                retained.append(tracemalloc.get_traced_memory()[0] - before)
                return result

            return inner

        # what the returned Trajectory objects hold while the CLI uses them
        cli.run = measured(cli.run)
        cli.batch_run = measured(cli.batch_run)
        tracemalloc.start()

    c0 = time.process_time()
    t0 = time.perf_counter()
    rc, out, err = quiet(call, spec["argv"])
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0

    result = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "stdout": out,
        "stderr": err[-2000:],
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for record in tracer.span_records(spec["op"]):
                fh.write(json.dumps(record) + "\n")
        result["counts"] = tracer.counts()
    if retained:
        result["retained_bytes"] = sum(retained)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
