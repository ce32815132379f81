"""The flagparam command line, run with spans around its public functions.

Usage: traced_cli.py SPAWN_NS SUBCOMMAND [ARGS...]

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the first span covers interpreter start.  The CLI reads
stdin and writes stdout as usual; the spans go to stderr as one JSON line.
"""

import time

FIRST_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    tracer = tracing.Tracer()
    tracer.add("cli.interpreter_start", int(sys.argv[1]), FIRST_NS, -1)
    tracer.open("cli.import_flagparam")
    import flagparam.cli

    tracer.close()
    tracing.instrument(tracer)
    tracer.open("cli.main")
    code = flagparam.cli.main(sys.argv[2:])
    tracer.close()
    sys.stdout.flush()
    sys.stderr.write(json.dumps({"spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
