"""``python -m minsurf.cli`` with spans: traced_cli.py SPANS_OUT ARGS...

Runs the same ``minsurf.cli.main`` as the module entry point, after wrapping
the public functions, and writes the spans to SPANS_OUT on exit.
"""

import sys

import minsurf.cli
from spans import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = minsurf.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    raise SystemExit(code)
