"""Traced CLI process: install the tracer, run ``lmbd.cli.main`` on the
given arguments, and write the spans as JSON to ``spans_path``.  The
artifact on stdout is the same as an untraced ``python -m lmbd.cli``.

    PYTHONPATH=src python3 bench/cliboot.py <spans_path> <subcommand> [args...]
"""

import json
import sys

import lmbd.cli
import tracer

if __name__ == "__main__":
    t = tracer.Tracer()
    t.install()
    code = lmbd.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(t.spans, fh)
    sys.exit(code)
