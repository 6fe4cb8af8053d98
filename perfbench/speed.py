"""Reading the machine's speed, to report times at a fixed reference speed.

On a shared machine the same Python code runs up to ~35% slower for seconds
to minutes at a time, as neighbours load the host.  A fixed probe (bitset BFS
sweeps over a fixed graph, the kind of loop genpos runs) is timed next to
the measured work.  A time measured while the probe ran at ``p`` seconds is
reported as ``time * PROBE_REFERENCE_S / p``: the time the work would have
taken at the reference speed.  The probe never changes, so a change to
genpos moves the reported time and a change of machine load does not.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

PROBE_REFERENCE_S = 0.0015  # median probe time on the 2-CPU Xeon the benchmark was sized on
PROBE_EVERY_S = 0.05
WINDOW_S = 0.3  # probes this close to an operation describe its speed

_N = 48
_rng = random.Random(7)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.12:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def probe() -> float:
    """Seconds taken by three BFS sweeps from every vertex of the fixed graph."""
    t0 = time.perf_counter()
    for _ in range(3):
        for s in range(_N):
            seen = frontier = 1 << s
            while frontier:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= _ADJ[low.bit_length() - 1]
                    m ^= low
                frontier = nxt & ~seen
                seen |= frontier
    return time.perf_counter() - t0


class Speedometer:
    """Probe readings of one process.

    ``tick()`` probes between operations, at most every PROBE_EVERY_S.  In a
    serial pass ``start_timer()`` also probes every PROBE_EVERY_S from a
    SIGALRM handler, inside long operations too; ``busy`` sums the seconds
    spent probing, which the caller subtracts from what it timed.
    """

    def __init__(self):
        self.times: list[float] = []  # when each probe ended
        self.probes: list[float] = []  # how long it took
        self.busy = 0.0
        self._handler = None
        self._probing = False

    def _record(self) -> None:
        if self._probing:  # the timer fired inside a probe
            return
        self._probing = True
        try:
            d = probe()
            self.probes.append(d)
            self.times.append(time.perf_counter())
            self.busy += d
        finally:
            self._probing = False

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self._record()

    def start_timer(self) -> None:
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._record())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def factor(self, start: float, end: float) -> float:
        """PROBE_REFERENCE_S over the median probe near [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.probes[lo:hi]
        if not near:  # cannot happen after tick() around each operation
            i = min(bisect.bisect_left(self.times, start), len(self.probes) - 1)
            near = [self.probes[i]]
        return PROBE_REFERENCE_S / statistics.median(near)
