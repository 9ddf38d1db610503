"""Traced stand-in for ``python -m qgas``.

Usage: ``python perfbench/launch.py SPANS_FILE ARG...`` installs the layer
wrappers, runs ``qgas.cli.main(ARG...)``, writes the recorded spans to
SPANS_FILE as JSON and exits with main's exit code.  The qgas sources are
taken from ``src/`` next to the benchmark directory.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import Tracer, dump, install

    tracer = Tracer()
    package = install(tracer)
    code = package.cli.main(sys.argv[2:])
    sys.stdout.flush()
    dump(tracer.spans, sys.argv[1])
    return code


if __name__ == "__main__":
    raise SystemExit(main())
