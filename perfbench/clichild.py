"""Traced ``qprolate.cli`` process, for the traced runs of cli-cold.

    python perfbench/clichild.py TRACE_FILE SPAWN_TIME CLI_ARGS...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so
``import_s`` covers interpreter start-up and the imports.  The command's
spans are written to TRACE_FILE.spans.json, and their per-layer sums, the
lattice cache statistics and ``import_s`` to TRACE_FILE.
"""

import sys
import time

if __name__ == "__main__":
    trace_file, spawned = sys.argv[1], float(sys.argv[2])
    import qprolate.cli as cli

    import_s = time.monotonic() - spawned
    from tracing import Tracer, aggregate, cache_stats, write_json

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(cli.main, "cli.main")
    tracer.op = 0
    tracer.active = True
    try:
        rc = main(sys.argv[3:])
    finally:
        tracer.active = False
        write_json(trace_file + ".spans.json", tracer.dump())
        write_json(trace_file, {"layers": aggregate(tracer.dump()), "cache": cache_stats(),
                                "import_s": import_s})
    sys.exit(rc)
