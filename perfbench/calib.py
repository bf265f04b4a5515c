"""Host speed reference for the timed runs.

On a shared virtual machine the speed of the host drifts by a third and
more within a minute, in steps of a few seconds, with the load of the
other guests; raw wall times then mostly measure the neighbours.  To cancel
that, every job process (and every round of a session) also times
`reference()`: a fixed pure-Python workload of integer, tuple and dict
arithmetic in the style of grasscoh's own inner loops, which imports
nothing from grasscoh.  A time t measured next to a reference time r is
reported as

    t * NOMINAL_S / r

that is, in seconds at the speed where the reference takes NOMINAL_S.
The workload has a part that fits in the core's caches and a part of
about 2 MB: neighbours slow the jobs both by taking the core and by
taking the shared cache, and a reference with only the first part
tracked the cold jobs half as well.
Each t is paired with the median of the reference times around it
(`local_refs`), so a single disturbed reference sample does not move it.
Raw times are kept in the run's record next to the scaled ones.

A change to grasscoh should not move the reference: job processes time
it before grasscoh is imported, and it always runs with the cyclic
garbage collector paused, so the size of the program's heap does not
enter it.
"""

from __future__ import annotations

import gc
import time

# Time of one reference() on a 2-vCPU x86-64 Xeon guest with Python 3.11,
# in its faster state; only a unit of measure.
NOMINAL_S = 0.0083
LOCAL_HALF_WIDTH = 2


def _workload() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    p = {}
    x = 1
    for _ in range(24):
        x = x * 1103515245 % 2147483648
        p[(x % 4, x // 4 % 4, x // 16 % 4, x // 64 % 4)] = x % 8 + 1
    q = dict(p)
    for _ in range(2):
        r = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max(e) < 9:
                    r[e] = r.get(e, 0) + c1 * c2
        p = {e: c for e, c in r.items() if c % 3}
    d = {}
    for i in range(12000):
        d[(i, i * 7 % 1000)] = [i]
    for k, v in d.items():
        s += k[1] ^ v[0]
    return s + len(p)


def reference() -> float:
    """Seconds taken by one pass of the reference workload, with the
    cyclic garbage collector paused so that the caller's heap does not
    enter the measurement."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_refs(refs, half=LOCAL_HALF_WIDTH):
    """For each position, the median of the reference times within `half`
    positions of it."""
    import statistics  # not at the top: job processes import this module first

    return [statistics.median(refs[max(0, i - half):i + half + 1]) for i in range(len(refs))]


def scale(seconds: float, ref: float) -> float:
    """`seconds` measured next to reference time `ref`, at nominal speed."""
    return seconds * NOMINAL_S / ref
