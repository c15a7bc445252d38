"""Host speed reference, so that timings survive a shared, noisy machine.

On a host whose cores and caches are shared with other tenants, the same
qfold pass runs up to twice as slowly for seconds to minutes at a time,
and neither wall time, CPU time nor the load average shows it.  A small
in-cache loop does not slow down with it; an allocation- and lookup-heavy
one over a working set of some megabytes, like qfold's own, does.

`reference_seconds` times such a workload, which uses no qfold code.  The
benchmark runs it before and after each pass and reports times as
``seconds * REFERENCE_S / reference_seconds``: the host's slow phases
cancel, and a change in qfold shows in full because the reference work
does not change with qfold.
"""

from __future__ import annotations

import random
import time

# reference_seconds() on an uncontended 2-core Xeon VM with CPython 3.11.7.
REFERENCE_S = 0.3


def reference_seconds():
    """Seconds for a fixed allocation- and lookup-heavy piece of pure Python."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    cells = [{j: i * j for j in range(8)} for i in range(40_000)]
    acc = 0
    for _ in range(200_000):
        cell = cells[rng.randrange(40_000)]
        acc += cell[3] * cell[5]
        cell[7] = acc & 0xFFFF
    x = 3
    for k in range(300):
        x = x * (x + k) % (1 << 8192)
    return time.perf_counter() - t0
