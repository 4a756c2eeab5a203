"""The host's speed, measured with fixed work that never calls cayleykit.

The host's speed drifts by 10-20% over minutes as other tenants come and
go, and CPU time drifts with wall time, so the drift is slower execution,
not time taken away.  ``reference()`` times a fixed kernel, a
dict-and-integer Python loop plus small numpy sorts, that a run samples
before every timed command and around every set-up.  A run's times are
scaled by ``NOMINAL_S / median(samples)``: they then read as they would on
the host at its nominal speed, the median speed of the 2-core machine the
README's reference figures come from.  The kernel depends only on the
interpreter and numpy, so a change to cayleykit cannot move it.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.016


def reference() -> float:
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(50000):
        table[i & 511] = acc
        acc = (acc * 31 + i) & 0xFFFF
    x = np.arange(64)
    for _ in range(1500):
        x = np.sort((x * 37 + acc) % 64)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes times measured alongside ``samples`` to the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
