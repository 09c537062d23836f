"""Start commands from a small process and report each one's peak memory.

    python3 -S perfbench/spawner.py

Reads one JSON request a line on standard input, {"cmd", "env", "cwd",
"stdout", "stderr", "timeout"}, runs the command to completion (killing it
after "timeout" seconds) and writes one JSON line back, {"code", "rss_mb"}.
It exits at the end of its input.

The kernel's peak resident set of a child (ru_maxrss) also counts the
memory of the process that started it, because the child holds that
process's address space until it execs. Started from the benchmark
process, which holds numpy, scipy and the program, every CLI command would
read as that process's size; started from here it reads as its own.
"""

import json
import os
import subprocess
import sys
import threading


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        reply = {"code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
