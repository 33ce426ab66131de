"""Run one zdsg command with the tracer installed.

    python3 perfbench/cli_launcher.py <summary.json> <zdsg arguments...>

Installs the wrappers, calls ``zdsemigroups.cli.main(argv)``, restores
the originals and writes the tracer summary, plus the time spent
building it (``write_s``), to ``summary.json``.  Exits with the
command's exit code.
"""

import json
import sys
from time import perf_counter

import zdsemigroups.cli

from tracer import Tracer

summary_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
tracer.install()
try:
    code = zdsemigroups.cli.main(argv)
finally:
    tracer.restore()
start = perf_counter()
summary = tracer.summary()
summary["write_s"] = perf_counter() - start
with open(summary_path, "w") as fh:
    json.dump(summary, fh)
raise SystemExit(code)
