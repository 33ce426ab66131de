"""Start the benchmark's timed processes and report their resource use.

    python3 -S perfbench/spawner.py

Reads one JSON request per line on stdin, ``{"argv": [...], "stdout":
path, "stderr": path}``, runs the process to completion with stdin on
the null device, and answers one JSON line: exit ``code``, ``start`` and
``end`` on ``time.monotonic()``, ``cpu_s`` (user + system) and
``maxrss_kb``.  Both resource figures come from ``wait4`` and so cover
the process's reaped children too, such as pool workers.  At end of
input it answers ``{"self_hwm_kb": ...}``, its own peak resident set,
and exits.

Why a separate process: Linux carries the peak resident set of the
process that starts a child into the child's ``ru_maxrss``.  This
helper imports almost nothing and runs without ``site``, so its peak
stays below that of any interpreter it starts, whereas the harness's
own peak is about that of an interpreter with the package imported.
"""

import json
import os
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        *((os.POSIX_SPAWN_OPEN, fd, request[name], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
          for fd, name in ((1, "stdout"), (2, "stderr"))),
    ]
    start = time.monotonic()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "start": start,
        "end": end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }), flush=True)
# VmHWM, not ru_maxrss: the latter includes the harness's peak, inherited at exec
with open("/proc/self/status") as fh:
    hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"self_hwm_kb": hwm}), flush=True)
