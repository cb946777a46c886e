"""Scaling timings to a reference core speed, for hosts whose speed drifts.

On a shared host the core a run gets can be 30% slower for a minute and
then fast again; the process cannot see it (no steal time, CPU time grows
with wall time).  Raw pass times then spread more between runs than any
regression worth catching.  ``SpeedProbe`` measures the drift while the
work runs: a timer signal fires every ``INTERVAL_S`` seconds and its
handler times ``calibration``, a fixed pure-Python routine kept here so
that no change to the package can alter it (its 4 MiB buffer adds to
the process's peak RSS on every workload alike).  A timing is then scaled by
``REFERENCE_S / mean(calibration time during that timing)``, which reads
as seconds on a core where the routine takes ``REFERENCE_S``.

The handler's own time is kept out of every measurement: ``clock``
is ``perf_counter`` minus the time spent in calibration so far.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_S = 0.001
INTERVAL_S = 0.04
#: Size of the buffer the calibration reads at random: past the per-core
#: caches, so that the routine feels cache and memory contention from
#: other tenants the way the package's dict- and tuple-heavy code does.
BUFFER_BYTES = 1 << 22


def calibration(buffer: bytearray) -> int:
    """Fixed work: a memoised down-set DP, tuple splicing, and random reads of ``buffer``."""
    memo = {0: 1}

    def count(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        total = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            total += count(mask ^ bit)
        memo[mask] = total
        return total

    count((1 << 9) - 1)
    words = [(1,)]
    for k in range(2, 40):
        w = words[-1]
        a = k % (len(w) + 1)
        words.append(w[:a] + w[a : a + 2] + (k,) + w[a : a + 2] + w[a + 2 :])
    mask = len(buffer) - 1
    j = total = 0
    for _ in range(1500):
        j = (j * 1103515245 + 12345) & mask
        total += buffer[j]
    return len(memo) + len(words) + total


class SpeedProbe:
    """Samples the core's speed during ``sampling`` blocks; one per process."""

    def __init__(self) -> None:
        self._buffer = bytearray(bytes(range(256)) * (BUFFER_BYTES // 256))
        self.spent = 0.0
        self._samples: list | None = None
        # Installed once and left in place: a no-op outside ``sampling``, so a
        # signal still pending after the timer stops can never hit the default
        # action (terminate).
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """Seconds, excluding the time spent in calibration."""
        return perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        if self._samples is not None:
            self._sample()

    def _sample(self) -> None:
        at = self.clock()
        start = perf_counter()
        calibration(self._buffer)
        elapsed = perf_counter() - start
        self.spent += elapsed
        self._samples.append((at, elapsed))

    @contextmanager
    def sampling(self, interval: float = INTERVAL_S):
        """Yield a list that collects ``(clock time, calibration seconds)``:
        one before the block, one every ``interval`` seconds inside it
        (none if 0), one after."""
        samples = self._samples = []
        self._sample()
        if interval:
            signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()
            self._samples = None


def scale(samples: list) -> float:
    """Factor that turns a timing taken during ``samples`` into reference seconds."""
    return REFERENCE_S / statistics.fmean(elapsed for _, elapsed in samples)


def local_scaler(samples: list, margin: float = 0.5):
    """Function from a unit's (start, seconds) to the factor of the samples around it.

    Speed can change within one pass, and a unit of work sees only the
    speed of its own interval; each unit is scaled by the mean of the
    samples taken while it ran, widened by ``margin`` on both sides.
    """
    times = [at for at, _ in samples]
    prefix = [0.0]
    for _, elapsed in samples:
        prefix.append(prefix[-1] + elapsed)

    def factor(start: float, seconds: float) -> float:
        lo = bisect.bisect_left(times, start - margin)
        hi = bisect.bisect_right(times, start + seconds + margin)
        if hi <= lo:  # no sample that close: take the nearest one
            lo = min(lo, len(times) - 1)
            hi = lo + 1
        return REFERENCE_S * (hi - lo) / (prefix[hi] - prefix[lo])

    return factor
