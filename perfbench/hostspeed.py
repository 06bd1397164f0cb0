"""Host-speed normalization of wall times.

The machines this benchmark is meant for are shared, and the speed they
give one process drifts: over an hour the same op was seen to run 1.5 to
2 times faster or slower, whatever the program did.  So a fixed reference
kernel, which does not touch mixedframes, is timed right after every op,
and each op's wall time is rescaled by REFERENCE_S over the median
reference time of the nearby ops.  A reported time is thus the time the
op would take on a host where the reference kernel takes REFERENCE_S.
The benchmark records the raw wall times and the reference time as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
WINDOW = 8  # ops on each side whose reference times give the local host speed

_SMALL = np.arange(8.0).reshape(4, 2) + 1j
_LARGE = np.full((192, 64), 1 + 1j)


def reference_kernel():
    """About a millisecond of fixed work: small-array numpy calls, which
    cost interpreter time like the optimizer's inner loop, and one product
    of the largest shape the workloads use."""
    acc = 0.0
    for i in range(100):
        y = _SMALL @ _SMALL.conj().T
        acc += float(np.sum(np.abs(y) ** 2)) + i
    return acc + float((_LARGE @ _LARGE.conj().T)[0, 0].real)


def time_reference():
    """Wall time of one reference call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def normalize(durations, references):
    """Rescale each duration by the median reference time around it."""
    return [d * REFERENCE_S / statistics.median(references[max(0, i - WINDOW):i + WINDOW + 1])
            for i, d in enumerate(durations)]
