"""Run one ``masspoly`` CLI command with tracing on.

    python perfbench/cli_runner.py probe --base legendre --mass 1:1 --p 3 --n 100

Times ``import masspoly.cli`` in this fresh interpreter, wraps the library
functions (see ``tracing.py``), calls ``masspoly.cli.main(argv)`` and exits
with its return code.  The CLI payload goes to stdout as usual; the spans and
counts go to stderr as one line starting with ``TRACE_PREFIX``.
"""

import json
import sys
from time import perf_counter

TRACE_PREFIX = "perfbench-trace "


def main(argv):
    t0 = perf_counter()
    import masspoly.cli

    t1 = perf_counter()
    from tracing import Tracer  # this script's directory is sys.path[0]

    tracer = Tracer()
    tracer.spans.append(["cli.import", t0, t1, -1, "child"])
    tracer.install()
    tracer.job = "child"
    try:
        code = masspoly.cli.main(argv)
    finally:
        tracer.job = None
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.to_dict()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
