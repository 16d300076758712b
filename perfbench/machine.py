"""Machine-speed calibration and the environment record of a run.

The host is shared: the same work can take 40% longer from one minute to
the next.  A fixed kernel of numpy and interpreter work, timed before
every scan, tracks that speed.  The kernel is benchmark code, so no change
to the package can move it.

The workloads do not slow down as much as the kernel does: over about a
hundred runs of the three workloads on a 2-core Xeon VM, log workload speed
moved 0.56 to 0.80 times as far as log kernel speed (correlation 0.77 to
0.90).  A run's times are therefore scaled by
``(CAL_REFERENCE_S / median(kernel times)) ** TRACKING``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

import numpy as np

CAL_REFERENCE_S = 0.010
TRACKING = 2.0 / 3.0
_DATA = np.random.default_rng(0).normal(size=50_000)


def calibration_s() -> float:
    """Seconds the fixed kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(8):
        b = np.exp(_DATA) * np.sin(_DATA)
        b[np.argsort(b[:4096])].sum()
    x = 0
    for i in range(40_000):
        x += i * i
    return time.perf_counter() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside ``samples`` into reference time."""
    return (CAL_REFERENCE_S / statistics.median(samples)) ** TRACKING


def environment(thread_vars) -> dict:
    import scipy

    env = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
           "numpy": np.__version__, "scipy": scipy.__version__}
    env.update({v: os.environ.get(v) for v in thread_vars})
    return env
