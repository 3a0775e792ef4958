"""Machine-speed reference for the timings.

The machine shares its cores with other work.  The same operation takes
from 0.5 s to 1.0 s depending on the phase the host is in, and a phase can
last longer than a run.  So each run also times a fixed reference loop,
many times: before the first operation, after every operation, and around
every process it starts.  The loop is pure Python and small numpy calls,
like the program's own work, and never touches orbitlift.  The run's times
are then scaled by REFERENCE_S over the median of those loop times.  A time
is reported in seconds on a machine on which the loop takes REFERENCE_S.
One factor per run: a single 25 ms loop is too noisy to scale one interval
by, and the median of a whole run's loops follows the phases that move
whole runs.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025  # the loop's median time on the 2-core sandbox of README.md's figures

_X = np.linspace(-1.0, 1.0, 7)


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float(np.polyval(_X, 0.3 + i * 1e-4))
        acc += sum(j * j for j in range(30)) * 1e-9
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale from wall times to the reference speed: the loop's speed swings
    by 2x within a second, so the mean over a run's samples is used.  With
    no samples (an unscaled workload) the wall times stand as they are."""
    return REFERENCE_S / statistics.fmean(samples) if samples else 1.0
