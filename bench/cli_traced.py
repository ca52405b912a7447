"""Run one ``biphoton`` CLI command with the benchmark's span recorder.

Usage: python bench/cli_traced.py SPANS_JSON OP_ID -- <biphoton arguments>

The spans are written to SPANS_JSON when the command exits, whatever its
exit code.  The traced run of cli_session starts its commands through
this file instead of ``python -m biphoton.cli``.
"""

import sys

import biphoton.cli

from tracer import Tracer


def main() -> None:
    spans_path, op_id, separator, *args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_traced.py SPANS_JSON OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    try:
        biphoton.cli.main(args=args, prog_name="biphoton")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
