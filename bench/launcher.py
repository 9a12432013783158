"""Start the `stellar` CLI with the benchmark's span wrappers installed.

    python -m bench.launcher TRACE_FILE [stellar arguments ...]

Runs `stellar.cli.main` on the arguments, then appends one JSON line with
the span summary of this process to TRACE_FILE, and exits with main's code.
"""

import json
import sys

from bench.trace import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import stellar.cli

    try:
        return stellar.cli.main(argv)
    finally:
        with open(trace_file, "a") as fh:
            fh.write(json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
