"""Run one dnamagic CLI command in this fresh interpreter with span tracing.

    python perfbench/cli_driver.py SPANS_JSON OP_ID CLI_ARG...

Installs the wrappers, calls dnamagic.cli.run(CLI_ARGS) exactly as the
console script does, writes the spans to SPANS_JSON and exits with the CLI's
code.  The package's import and caches start cold, as in a real invocation.
"""

import json
import sys
from pathlib import Path

import dnamagic.cli
import tracing


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op
    with tracing.traced(tracer):
        code = dnamagic.cli.run(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
