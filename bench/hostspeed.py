"""Host-speed sampling: fixed calibration loops timed during each operation.

The benchmark's 2-vCPU hosts change speed by 20-50 % within seconds under
other tenants' load, and CPU time moves with wall time, so neither clock
removes the swing. While an operation runs, a ``Sampler`` interrupts it
every ``INTERVAL_S`` (a ``SIGALRM`` timer; the handler runs between Python
bytecodes of the main thread, so no thread or process is added) and times
one short calibration loop. The mean loop time says how fast the host ran
during the operation; the time spent in the handler is taken off the
operation's time.

Each loop does a fixed amount of one kind of work the package does:
pure-Python dictionary and integer work, as in parsing, canonicalization
and structural keys; many numpy calls on tiny arrays, as in the small fits
of a 24-molecule evaluation; and numpy on arrays of thousands of values, as
in large tree and SVR fits. A workload names the loop that matches its
work. The loops use nothing from the package, so no change to the package
moves them.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2

_SORTED = np.linspace(0.0, 1.0, 4096)[::-1].copy()
_POINTS = np.linspace(0.0, 1.0, 200 * 24).reshape(200, 24)


def _python(reps: int) -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(5_000 * reps):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def _small_numpy(reps: int) -> int:
    total = 0
    x = np.arange(64.0)
    for _ in range(200 * reps):
        total += int(np.argsort(x[::-1])[0])
        x.cumsum()
    return total


def _arrays(reps: int) -> int:
    total = 0
    for _ in range(4 * reps):
        total += int(np.argsort(_SORTED)[0])
        total += int(np.exp(-(_POINTS @ _POINTS.T)).sum() > 0)
    return total


LOOPS = {"python": _python, "small_numpy": _small_numpy, "arrays": _arrays}
# Repetitions in one sample: about 4 ms on an unloaded host, so sampling
# every 0.2 s costs about 2 % of an operation's time.
SAMPLE_REPS = 4
# A sample's time on the unloaded 2-vCPU host the benchmark was built on
# (Intel Xeon, Python 3.11, numpy 2.4). A reference time is a wall time
# scaled to that speed: seconds * REFERENCE_S / the mean sample time.
REFERENCE_S = 0.004


def loop_seconds(name: str, reps: int = SAMPLE_REPS) -> float:
    start = time.perf_counter()
    LOOPS[name](reps)
    return time.perf_counter() - start


class Sampler:
    """Times the ``name`` loop every ``INTERVAL_S`` while active.

    ``with sampler:`` around an operation; then ``samples`` holds the loop
    times and ``overhead_s`` the time the handler took."""

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(loop_seconds(self.name))
        self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples, self.overhead_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_s(self) -> float:
        """Mean sample time; one fresh sample if the operation took less
        than ``INTERVAL_S``."""
        return statistics.mean(self.samples) if self.samples else loop_seconds(self.name)
