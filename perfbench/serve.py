"""``repro serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve.py <spans.json> serve --port 0 ...``

Runs the normal CLI ``serve`` command after wrapping every layer
boundary (see :mod:`tracer`), and writes the recorded spans to
``<spans.json>`` once the server has shut down (on SIGTERM).
"""

import json
import sys
from pathlib import Path

import tracer


def main() -> int:
    out = Path(sys.argv[1])
    recorder = tracer.install(tracer.Tracer())
    from repro.cli.main import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        out.write_text(json.dumps({"spans": recorder.export()}))


if __name__ == "__main__":
    sys.exit(main())
