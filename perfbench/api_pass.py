"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/api_pass.py '<config json>'

The config holds ``ops`` (a list of [op id, call, n] in run order) and
``trace`` (0 or 1).  The script prints ``ready <time.monotonic()>`` once the package is
imported (and, when tracing, the wrappers are installed), runs the
calls in order, and prints one JSON line with each call's latency and
output and, when tracing, the tracer summary.
"""

import json
import sys
import time
from time import perf_counter

import zdsemigroups as zd

from tracer import Tracer
from workloads import CALLS, ApiOp, call_output

config = json.loads(sys.argv[1])
tracer = Tracer() if config["trace"] else None
if tracer is not None:
    tracer.install()
print("ready", time.monotonic(), flush=True)

results = {}
latencies = {}
for op_id, call, n in config["ops"]:
    start = perf_counter()
    results[op_id] = CALLS[call](zd, n)
    latencies[op_id] = perf_counter() - start

if tracer is not None:
    tracer.restore()
print(json.dumps({
    "ops": {
        op_id: {"s": latencies[op_id], "out": call_output(zd, ApiOp(call, n), results[op_id])}
        for op_id, call, n in config["ops"]
    },
    "trace": tracer.summary() if tracer is not None else None,
}))
