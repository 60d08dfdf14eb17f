"""Traced CLI child: python3 perfbench/cli_child.py TRACE_FILE CLI-ARGS...

Times the import of the package, installs the span wrappers, runs the CLI
exactly as ``python -m bircharts.cli CLI-ARGS...`` would, and writes the
spans to TRACE_FILE.  The benchmark merges that file into its own trace.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import bircharts.cli  # noqa: E402

import_s = perf_counter() - t0

from spans import Tracer  # noqa: E402  (this script's directory is on sys.path)


def main() -> int:
    tracer = Tracer()
    tracer.import_s.append(import_s)
    tracer.op_id = 0
    tracer.install(bircharts)
    try:
        return bircharts.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
