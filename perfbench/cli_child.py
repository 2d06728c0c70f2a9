"""`python -m sympl.cli` under the tracer, for the traced cli_cold rounds.

Runs the same `sympl.cli.main` in a fresh interpreter, with every sympl
layer wrapped, and writes the spans and per-layer totals to the file
named by PERFBENCH_TRACE_FILE. Exit code, stdout and stderr are the
command's own.
"""

import os
import sys

import sympl.cli

import tracer

if __name__ == "__main__":
    spans = tracer.Tracer()
    spans.op_id = int(os.environ.get("PERFBENCH_OP_ID", "0"))
    spans.install()
    try:
        code = sympl.cli.main(sys.argv[1:])
    finally:
        spans.uninstall()
        spans.write(os.environ["PERFBENCH_TRACE_FILE"])
    sys.exit(code)
