"""The host's current speed, sampled while the benchmark times the program.

A shared host's speed drifts: on the 2-core machine this benchmark was tuned
on, the same pure-Python work took up to 1.6 times as long for stretches of
seconds to a minute, while the process was never descheduled (its CPU time
tracked wall time).  Runs of the same code then spread by 0.3 to 0.5 of
their median, more than the largest bound a metric may carry.

``Speed`` runs a small fixed kernel from a ``SIGALRM`` handler every
``INTERVAL`` seconds, so samples land inside long operations as well as
between short ones.  An operation's wall time, less the time its samples
took, is then scaled by ``NOMINAL_S`` over the kernel's time around that
operation.  The result is the operation's time on a host that runs the
kernel in ``NOMINAL_S``: drift scales the kernel and the operation alike and
cancels, while a change to the program moves only the operation.  The
kernel is part of the benchmark, never of the program, so no change to the
program can move it.

The signal handler runs in the main thread between bytecodes, so the run
stays one thread.  A sample that falls inside a call to numpy waits for the
call to return.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# fixed reference time of the kernel, about its time on a 2-core Intel Xeon
# host (Python 3.11); it sets the unit of every scaled time
NOMINAL_S = 0.0016
INTERVAL = 0.1  # seconds between two samples
MIN_SAMPLES = 9  # an operation is scaled by at least this many samples
TRIM = 0.2  # share of the samples dropped at each end before averaging


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return self.a + x if x & 1 else self.b - x


_ROW = np.arange(8, dtype=np.int64)


def kernel() -> int:
    """Fixed work of five kinds, 1.2 to 2.6 ms on the host named above.

    Dict and set updates, method calls, tuple allocation and sorting, small
    numpy array operations and string splitting: the mix of the engine's own
    loops.  A host slowdown hits these kinds unequally, and a blend of them
    tracks the engine better than any one kind does.
    """
    acc = 0
    seen: dict[int, int] = {}
    members: set[int] = set()
    for i in range(1000):
        k = (i * 7919) % 1031
        seen[k] = seen.get(k, 0) + 1
        if k in members:
            acc += 1
        else:
            members.add(k)
        acc += len((k, i & 7))
    node = _Node(1, 2)
    for i in range(2000):
        acc += node.step(i)
    for i in range(15):
        pairs = [((i * j) % 97, j) for j in range(100)]
        pairs.sort()
        acc += pairs[0][0]
    for i in range(80):
        acc += int((np.maximum(_ROW, i % 5) <= 4).sum())
    for i in range(200):
        parts = f"t{i % 13} w v{i % 7}".split()
        acc += sum(len(p) for p in parts if p[0] != "w")
    return acc


class Speed:
    """Kernel samples taken on a timer, and the scale they give each operation.

    Use it as a context manager: the timer runs inside the ``with`` block.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []
        self._spent = [0.0]  # running total of ``took``, one entry ahead
        self._previous = None

    def sample(self, *_signal) -> None:
        clock = time.perf_counter
        started = clock()
        kernel()
        took = clock() - started
        self.at.append(started)
        self.took.append(took)
        self._spent.append(self._spent[-1] + took)

    def __enter__(self) -> "Speed":
        kernel()  # warm-up, not kept
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def _span(self, started: float, ended: float) -> tuple[int, int]:
        return bisect.bisect_left(self.at, started), bisect.bisect_left(self.at, ended)

    def own(self, started: float, ended: float) -> float:
        """Wall time in [started, ended] less the samples taken within it."""
        lo, hi = self._span(started, ended)
        return ended - started - (self._spent[hi] - self._spent[lo])

    def scale(self, started: float, ended: float) -> float:
        """Factor turning time spent in [started, ended] into nominal time.

        It averages the samples within the interval, widened to the nearest
        ``MIN_SAMPLES``, after trimming ``TRIM`` of them at each end.
        """
        lo, hi = self._span(started, ended)
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi == len(self.at) or started - self.at[lo - 1] < self.at[hi] - ended):
                lo -= 1
            else:
                hi += 1
        took = sorted(self.took[lo:hi])
        cut = int(len(took) * TRIM)
        kept = took[cut : len(took) - cut]
        return NOMINAL_S * len(kept) / sum(kept)
