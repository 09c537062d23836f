"""Host-speed gauge: a fixed kernel timed around each timed call.

On a shared virtual machine the host's speed drifts by up to 1.5x between
runs and by more within one, for seconds to minutes at a time (other
tenants on the same cores; no steal time shows in the guest, and CPU time
tracks wall time). A run's wall times carry that drift whole. The gauge
times a fixed kernel just before and just after each call; it never calls
the program, so no change to the program can move it. Scaling a call's
wall time by REFERENCE_S over the kernel's time around the call gives the
time the call would take on a host where one kernel pass takes
REFERENCE_S.

The kernel does what the timed calls spend their time on: interpreted
Python, small LAPACK eigenproblems and 30-digit mpmath arithmetic (the
library calls), and unmarshalling and executing a module body plus
touching fresh memory (the imports that dominate a CLI command's
start-up, which computation alone tracks poorly).
"""

from __future__ import annotations

import marshal
import statistics
import time

import mpmath
import numpy as np

#: Kernel passes timed between two consecutive calls.
PASSES = 3
#: One pass on an idle two-vCPU Xeon VM (2.1 GHz, Python 3.11, numpy 2.4,
#: mpmath 1.3) takes about 8 ms; adjusted times are at that speed.
REFERENCE_S = 0.008

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_MODULE = marshal.dumps(compile(
    "\n".join(
        f"def f{i}(a, b=1, *c, **d):\n    return a + b + {i}\n"
        f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n"
        for i in range(300)
    ),
    "<gauge>", "exec",
))


def _kernel() -> None:
    s = 0
    for i in range(3000):
        s += i * i % 7
    for _ in range(20):
        np.linalg.eigvals(_MATRIX)
    with mpmath.workdps(30):
        x = mpmath.mpf(1)
        for i in range(300):
            x = x * mpmath.mpf(1.0001) + mpmath.mpf(1) / (i + 1)
    exec(marshal.loads(_MODULE), {"__name__": "gauge_module"})


def sample() -> list[float]:
    """Wall seconds of PASSES kernel passes, one after another."""
    out = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out


def adjusted(latency: float, before: list[float], after: list[float]) -> float:
    """A call's wall time at the reference host speed.

    The host speed around the call is the median of the kernel passes just
    before and just after it.
    """
    return latency * REFERENCE_S / statistics.median(before + after)
