"""Machine-speed probe: a fixed computation timed next to the program.

This benchmark was tuned on a shared 2-CPU host. Other tenants there
change the speed of the whole machine, by up to half, in stretches from
seconds to longer than a run. Minima and medians of a run cannot see past
such a stretch. So the worker times `probe` right before and after each
invocation, and `scaled` converts the invocation's seconds to seconds on a
machine where the probe takes REFERENCE_S. A faster program still reads
proportionally faster; a slower stretch of the machine slows the probe
and the program alike and cancels out.

The probe is a pure-Python float loop, the median of REPS runs of about
0.6 ms each. It allocates no arrays, so it neither depends on nor changes
the allocator state and peak memory of the worker. Of the probes tried on
five seeds each, it tracked the program best on both the numpy-heavy
full-chain and the Python-heavy mc-counts workloads (spread of the median
scaled pass 0.039 and 0.044, against 0.229 and 0.102 unscaled). A numpy
exp-and-sum over a 2 MiB buffer sped up and slowed down more than the
program did, and over-corrected (0.078 and 0.137).
"""

from __future__ import annotations

import statistics
import time

REPS = 10
REFERENCE_S = 0.0006


def probe() -> float:
    """Median seconds of REPS runs of the fixed computation."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        acc = 0.0
        for k in range(4000):
            acc += (k * 0.5) % 3.0
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` of work done between two probes, in reference seconds."""
    return seconds * REFERENCE_S / (0.5 * (probe_before + probe_after))
