"""Run ``pendular.cli`` under the span tracer and save the spans as JSON.

Usage: traced_cli.py SPANS_FILE [pendular CLI arguments...]

Used for the traced passes of the ``cli`` workload in place of
``python -m pendular.cli``.  Spans of process-pool workers stay in those
workers and are not collected.
"""

import json
import sys
from pathlib import Path

import pendular.cli as cli
from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse exits after --version and on usage errors
        code = exc.code
    finally:
        tracer.restore()
        out.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
