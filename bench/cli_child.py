"""Traced CLI process: ``python3 cli_child.py SPANS_OUT FINITE_N ARG...``.

Runs ``mixsep.cli.main(ARG...)`` inside a ``cli.main`` span with the package's
functions traced, writes the spans as JSON to SPANS_OUT and exits with the
CLI's status.  FINITE_N is 1 when the command needs a finite-n critical value.
"""
import json
import sys

import tracing


def main() -> int:
    out, finite_n, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import mixsep.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("cli.main", finite_n=finite_n):
            status = mixsep.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
