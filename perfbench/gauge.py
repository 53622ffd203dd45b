"""A clock that runs at a fixed host speed, for timing on a shared host.

On a shared host the same pass can take 20-30 % longer from one minute to the
next, and its speed changes within a second too, most likely because other
tenants compete for the machine's cores, caches and memory bandwidth: the
guest sees no steal time and no other busy process. Raw seconds then measure the host as
much as ccarena.

`Gauge` times a fixed bit of pure-Python work (`probe`) about every
`PERIOD_S` seconds while a pass runs: a SIGALRM handler interrupts the pass
between two bytecodes, runs the probe and returns. `Gauge.clock()` advances
each stretch of host time between probes by `NOMINAL_S / p`, where `p` is the
median of the last `RECENT` probe times, and does not advance during the
probes. Its seconds are seconds at a fixed host speed: the speed at which the
probe takes `NOMINAL_S`. A change that makes ccarena do less work shortens
them as it shortens raw seconds; a host that runs everything slower for a
while leaves them as they are.

The probe allocates no object the garbage collector tracks and runs with the
collector off, so it never sets off, or takes over, a collection of
ccarena's heap. It runs a quarter of its loop untimed first, so that
ccarena's data in the caches does not slow the timed loop.
"""

import gc
import signal
import statistics
from collections import deque
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.02
PROBE_LOOPS = 6_000
RECENT = 3
NOMINAL_S = 0.0006      # the probe's time on a quiet 2-vCPU host of 2026

_TABLE = {k: (k * 7919) & 1023 for k in range(256)}


class _Slot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_SLOT = _Slot()


def _work(loops: int) -> int:
    """Dict lookups, attribute stores and loads, and int arithmetic: the mix
    of a pure-Python simulator's inner loops, without tracked allocations."""
    table, slot, acc = _TABLE, _SLOT, 0
    for i in range(loops):
        acc += table[i & 255]
        slot.value = acc & 1023
        acc ^= slot.value
    return acc


def probe() -> float:
    """Seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work(PROBE_LOOPS // 4)
        t0 = perf_counter()
        _work(PROBE_LOOPS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Probe times, the host seconds spent taking them, and the clock."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._recent: deque[float] = deque(maxlen=RECENT)
        self._scaled = 0.0
        self._mark = perf_counter()
        self._ticks = 0         # bumped after each sample: clock() rereads
        self._busy = False      # a tick that fires inside a sample is dropped
        self.sample(RECENT)

    def _scale(self) -> float:
        return NOMINAL_S / statistics.median(self._recent)

    def clock(self) -> float:
        """Seconds at the fixed host speed since the gauge was made, probes
        not counted."""
        while True:
            ticks = self._ticks
            value = self._scaled + (perf_counter() - self._mark) * self._scale()
            if ticks == self._ticks:    # no probe ran while it was read
                return value

    def host_clock(self) -> float:
        """Host seconds, probes not counted."""
        while True:
            ticks = self._ticks
            value = perf_counter() - self.spent
            if ticks == self._ticks:
                return value

    def sample(self, k: int = 1) -> None:
        """Take `k` probes now, in the caller's time."""
        self._busy = True
        t0 = perf_counter()
        if self._recent:
            self._scaled += (t0 - self._mark) * self._scale()
        for _ in range(k):
            p = probe()
            self.samples.append(p)
            self._recent.append(p)
        self._mark = perf_counter()
        self.spent += self._mark - t0
        self._ticks += 1
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    @contextmanager
    def running(self):
        """Probe every `PERIOD_S` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
