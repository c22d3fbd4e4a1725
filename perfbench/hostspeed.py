"""Host-speed calibration for the benchmark's time metrics.

On a shared host the speed of one core drifts, by up to 1.6x, over
seconds to minutes, and no statistic taken within a 20-second run
removes that.  So a fixed pure-Python kernel, which shares no code with
babyverma, is timed between items, at most every GAP_S.  Each timed
interval is rescaled by the kernel samples on either side of it:

    reported = measured * REF_S / kernel time around the interval

which reads as seconds on a host where the kernel takes REF_S.  One
kernel sample is itself noisy, so the kernel time around an interval is
the median of the samples from WINDOW before it to WINDOW after it.  The
kernel mixes the engine's two kinds of work: sparse row reduction over
F_p with dict vectors, and a tuple-keyed memo of small dicts.
"""

import gc
import random
import statistics
import time

REF_S = 0.014
GAP_S = 0.5
WINDOW = 2


def kernel():
    p = 31
    rng = random.Random(12345)
    rows = {}
    for _ in range(60):
        v = {rng.randrange(600): rng.randrange(1, p) for _ in range(20)}
        for q in [k for k in v if k in rows]:
            c = v.get(q, 0)
            if c:
                for k, x in rows[q].items():
                    n = (v.get(k, 0) - c * x) % p
                    if n:
                        v[k] = n
                    elif k in v:
                        del v[k]
        if v:
            j = min(v)
            inv = pow(v[j], -1, p)
            rows[j] = {k: (inv * x) % p for k, x in v.items()}
    memo = {}
    for i in range(12000):
        memo[("x", (i % 3, i % 5)), (i % 7, (i >> 3) % 11, (i >> 7) % 13), i % 4] = {i: 1}
    return len(rows) + len(memo)


class HostSpeed:
    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def tick(self, force=False):
        """Time the kernel if GAP_S has passed since the last sample, or
        if forced.  Returns the index of the latest sample; the next
        interval measured lies between it and the following sample."""
        if force or time.perf_counter() - self._last >= GAP_S:
            # With the collector on, the kernel's allocations would make
            # it traverse whatever the engine holds between steps.
            gc.disable()
            try:
                kernel()  # warm-up: after a large step the caches are cold
                t0 = time.perf_counter()
                kernel()
                self._last = time.perf_counter()
            finally:
                gc.enable()
            self.samples.append(self._last - t0)
        return len(self.samples) - 1

    def scale(self, before):
        """Factor for an interval measured right after sample `before`:
        REF_S over the median of the samples from WINDOW before it to
        WINDOW after the one that follows it."""
        lo = max(0, before - WINDOW)
        return REF_S / statistics.median(self.samples[lo : before + 2 + WINDOW])
