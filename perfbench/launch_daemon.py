#!/usr/bin/env python3
"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/launch_daemon.py SPANS.npz serve [repro serve args ...]

Installs the same wrappers as every traced run (``spans.install``),
enters the normal ``repro`` command line, and writes the spans to
SPANS.npz once the daemon has drained.
"""

import sys
from pathlib import Path

import spans


def main() -> int:
    log = spans.SpanLog()
    spans.install(log)
    from repro.__main__ import main as repro_main

    code = repro_main(sys.argv[2:])
    log.save(Path(sys.argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main())
