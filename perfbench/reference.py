"""The reference computation that scales the benchmark's timings to a fixed
machine speed.

The benchmark's machine is shared, and its speed moves by a factor of up to
about two within seconds; process CPU time moves with it.  So the benchmark
times a short fixed computation of its own right before and right after
every set-up and operation, and every ``PERIOD`` seconds while it runs (from
a SIGALRM handler, whose own time is taken out of the step's; a command run
as a child process samples in the child, so that the sample does not run
beside it).  A reported
time is the step's time at the reference speed: its wall time times
``REF_S`` times the mean of 1/(reference time) over those samples, which is
the time the step would have taken on a machine where the reference takes
``REF_S`` seconds throughout.  A change to bipembed moves the step and not
the reference, so it shows in full.  The reference mixes interpreted loops
over dicts and small integers, AND and popcount of wide integers, and code
shaped like bipembed's sampled pair certification.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# the scale: about the reference's time on this benchmark's machine at its fastest
REF_S = 0.005
# seconds between samples of the reference while a step runs
PERIOD = 0.25


_rng = random.Random(7)
ROWS = [_rng.getrandbits(512) for _ in range(512)]
MEMBERS = list(range(512))


def _work() -> int:
    rng = random.Random(12345)
    acc = 0
    # dict and small-integer loops, and AND/popcount of wide integers
    table: dict[int, int] = {}
    for i in range(3_000):
        k = rng.randrange(4096)
        table[k] = table.get(k, 0) + i
        acc ^= k * i
    x, y = rng.getrandbits(4096), rng.getrandbits(4096)
    for i in range(1_000):
        acc += (x & (y >> (i & 63))).bit_count()
    # shaped like sampled pair certification: random subsets, masks, row
    # degrees into the mask, sorting and a Fraction comparison
    for t in range(60):
        uc = rng.sample(MEMBERS, 24)
        mask = 0
        for i in rng.sample(MEMBERS, 24):
            mask |= 1 << i
        degs = sorted(((ROWS[m] & mask).bit_count(), m) for m in uc)
        acc += sum(d for d, _ in degs[:8])
        if Fraction(acc, 576 * (t + 1)) > Fraction(1, 4):
            acc += 1
    return acc


def reference() -> float:
    """Time one pass of the reference computation, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Clock:
    """Times steps at the reference speed; keeps every reference sample."""

    def __init__(self):
        self.refs: list[float] = []
        self.in_tick = 0.0  # seconds spent in the SIGALRM handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference())
        self.in_tick += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample the reference every ``PERIOD`` seconds while the body runs."""
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    @contextmanager
    def paused(self):
        """Stop sampling inside a step while a child process samples for
        itself (see ``sampled_cli.py``) and ``absorb`` its samples after."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def absorb(self, refs: list[float], in_tick: float) -> None:
        self.refs.extend(refs)
        self.in_tick += in_tick

    @contextmanager
    def step(self):
        """Time the body; then ``last`` is (wall seconds, seconds at the
        reference speed), also when the body raised."""
        first = len(self.refs)
        self.refs.append(reference())
        ticks = self.in_tick
        t0 = time.perf_counter()
        try:
            with self.sampling():
                yield
        finally:
            wall = time.perf_counter() - t0 - (self.in_tick - ticks)
            self.refs.append(reference())
            self.last = (wall, wall * REF_S * statistics.fmean(1 / r for r in self.refs[first:]))
