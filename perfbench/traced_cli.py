"""Run one ``arithfractal`` CLI command with spans around the package's
public functions, then write the spans as JSON.

Usage: python3 perfbench/traced_cli.py SPANS.json [arithfractal arguments...]
The exit code is the CLI's.
"""

import sys

from tracer import Tracer, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    instrument(tracer)
    from arithfractal import cli

    root = tracer.span_open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.span_close(root)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
