"""Speed-adjusted timing: cancel drift in the machine's CPU speed.

On a shared machine the speed of one CPU drifts with load from outside, by
about 25 % either way over tens of seconds.  Raw wall times drift with it.  So
the timed work is split into segments, and around each segment a fixed
pure-Python reference loop is timed (outside the segment).  A segment's
adjusted time is its wall time scaled by REFERENCE_S over the mean of the two
reference times around it: seconds at the reference machine's typical speed.
Both the raw and the adjusted times are kept.

Stdlib only, so a fresh interpreter can probe before importing numpy.
"""
from time import perf_counter

# Typical time of reference_loop() on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7), whose speed drifts; it measured 12.5 to 17 ms.  Any constant
# works, since it only sets the scale of adjusted seconds.
REFERENCE_S = 0.016
# Shortest segment worth a probe; shorter ones are merged with the next.
SEGMENT_S = 0.2


def reference_loop():
    """Time a fixed pure-Python loop (about 16 ms on the reference machine)."""
    t0 = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return perf_counter() - t0


def adjust(raw_s, ref_before, ref_after):
    return raw_s * REFERENCE_S / ((ref_before + ref_after) / 2)


class SpeedClock:
    """Times one pass in segments; the work calls ``tick`` at natural boundaries."""

    def start(self):
        self.raw_s = 0.0
        self.adjusted_s = 0.0
        self._ref = reference_loop()
        self._t0 = perf_counter()

    def tick(self, force=False):
        elapsed = perf_counter() - self._t0
        if elapsed < SEGMENT_S and not force:
            return
        ref = reference_loop()
        self.raw_s += elapsed
        self.adjusted_s += adjust(elapsed, self._ref, ref)
        self._ref = ref
        self._t0 = perf_counter()

    def stop(self):
        """End the pass; returns (raw seconds, adjusted seconds)."""
        self.tick(force=True)
        return self.raw_s, self.adjusted_s
