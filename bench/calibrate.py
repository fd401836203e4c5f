"""Reference-speed probe: how fast this CPU runs Python right now.

The host this benchmark runs on is shared.  Other tenants slow it down
by up to a factor of two, for seconds to minutes at a time, and CPU
time rises with wall time, so neither clock sees it.  The benchmark
therefore times a fixed kernel between items.  The kernel is part of
the benchmark, not of linmetric, so no change to the library can make
it faster or slower.  Each item's latency is rescaled by the kernel's
speed around it to what it would have been at ``REF_PROBE_S``.
"""

from __future__ import annotations

import gc
import time

# The probe's time on the 2-vCPU Xeon VM the benchmark was written on,
# in a quiet period.  Rescaled times read as milliseconds on that VM.
REF_PROBE_S = 1.9e-4
# Take a probe before an item once this long has passed since the last.
PROBE_EVERY_S = 0.02
PROBE_REPS = 5


def _kernel() -> int:
    """A small tree walk: tuples, dict lookups and recursion, the work of
    a term interpreter, with a fixed result."""
    env = {"a": 1, "b": 2, "c": 3, "d": 5}
    names = ("a", "b", "c", "d")

    def build(n: int, k: int):
        if n == 0:
            return ("var", names[k % 4])
        return ("app", build(n - 1, 2 * k), build(n - 1, 2 * k + 1))

    def walk(t) -> int:
        if t[0] == "var":
            return env[t[1]]
        return (walk(t[1]) * 3 + walk(t[2])) % 1009

    total = 0
    for k in range(4):
        total += walk(build(7, k))
    return total


KERNEL_RESULT = _kernel()


def probe() -> float:
    """Seconds for one kernel run: the median of ``PROBE_REPS``, with the
    garbage collector off so the library's heap cannot reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            result = _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    if result != KERNEL_RESULT:
        raise RuntimeError("reference kernel gave a different result")
    return sorted(times)[PROBE_REPS // 2]
