"""Run one ``hypopep.cli`` command with the tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_OUT CLI_ARGS...

Writes the span and counter summary of the command to SPANS_OUT as JSON
and exits with the command's exit code. PYTHONPATH must name the
checkout's ``src`` directory.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from hypopep import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
