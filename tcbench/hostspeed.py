"""The host's speed, measured around every timed operation, to scale it.

On a shared host the CPU runs in two states: at full speed, or about 1.6
times slower while another tenant shares its core.  The state flips many
times a second in some phases and hardly at all in others, and the share
of slow time differs from run to run by more than any useful regression
bound, so raw wall times of the same program taken minutes apart do not
agree.

So the benchmark times a fixed loop of its own right before and right
after every timed operation (a set-up, a closure cell, a piece of at most
50 requests), and reports the operation scaled to the reference speed:
wall time × ``REFERENCE_S / mean(loop time before, loop time after)``.
A slower program moves a scaled timing exactly as it moves the wall
time; a slower host moves both the operation and the loop around it.

The loop runs in this process, on the CPU the run (and the server child)
is pinned to, with the garbage collector off, so the program's heap
cannot slow it: nothing the program does changes its time.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0015
"""The loop's time on an uncontended core of a 2-vCPU cloud host, so
scaled timings read as wall times in that state.  The loop is short, so
that it can be taken often."""


def _reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does: dict and set
    updates, small allocations, a sort."""
    seen = set()
    table = {}
    for i in range(6000):
        table[(i * 7919) % 10007] = [i]
    for key in sorted(table):
        seen.add(key // 3)
    return len(seen)


class HostSpeed:
    """The calibration samples of one run.

    A disabled one takes no samples and scales by 1: the traced run
    reports wall times, so that its per-layer numbers, some of them timed
    inside a single call, are all on the same footing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the loop once; return the scale for the interval since the
        previous sample (the first sample returns that of itself)."""
        if not self.enabled:
            return 1.0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_loop()
            seconds = time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()
        previous = self.samples[-1] if self.samples else seconds
        self.samples.append(seconds)
        return REFERENCE_S / ((previous + seconds) / 2)

    def summary(self) -> str:
        if not self.enabled:
            return "host calibration: off; timings are wall times"
        return (f"host calibration: median {statistics.median(self.samples) * 1e3:.3f} ms "
                f"over {len(self.samples)} samples; reference {REFERENCE_S * 1e3:.3f} ms")
