"""Run one CLI invocation in this process under ``tracing.Tracer``.

Usage: python3 bench/traced_child.py <spans.json> <drulearn.cli arguments...>

Calls ``drulearn.cli.main(argv)`` (``src`` must be on PYTHONPATH), keeps the
spans in memory, and when the run ends writes them and the per-layer totals
to the given JSON file.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import drulearn.cli
from tracing import Tracer


def main(argv):
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    with Tracer() as tracer:
        code = drulearn.cli.main(cli_argv)
    spans_path.write_text(
        json.dumps(
            {
                "spans": [span.as_dict() for span in tracer.spans],
                "totals": tracer.layer_totals(),
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
