"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing the program (the library and its CLI module) plus
generating the workload's inputs from the seed: everything a run does
before its timed part. Run from a checkout root with PYTHONPATH=src.
"""

import sys
import time

t0 = time.perf_counter()

import dicke2  # noqa: E402
import dicke2.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - t0)
