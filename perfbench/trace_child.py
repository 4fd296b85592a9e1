"""The `baru` console entry point with the span tracer installed.

    python3 perfbench/trace_child.py SPANS.json <baru arguments...>

Runs `baru.cli.main` on the arguments exactly as the console script does,
then writes the recorded spans to SPANS.json for the parent to merge.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from baru.cli import main  # noqa: E402
from spans import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    code = 2
    try:
        code = main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
