"""A fixed reference kernel, sampled on a timer, that steadies timings.

On a shared virtual machine the speed this process gets moves between a few
levels (the slowest common level runs the same code about twice as long as
the fastest); a level lasts from a tenth of a second to several seconds, and the
share of time spent at each drifts from minute to minute. A play of a second
or more spans several levels, so neither its time nor the fastest of a few
plays is steady between runs.

``ReferenceClock`` runs a tiny fixed kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` while the benchmark plays, so samples of the host's speed land
inside every timed step as well as between them. Each sample runs the
kernel twice and times the second call, which finds the caches warm whatever
the library did before. A step's time, less the time its samples took, is
divided by the mean kernel time sampled within it (or by its nearest
samples, for a step too short to hold one) and multiplied by
``REFERENCE_S``, the kernel's time at the fastest level. The result is in
reference seconds: the time the step would take if the host ran this
process at its fastest level throughout.

The kernel is frozen benchmark code with the solvers' operation mix (small
incidence products, an argmin and a dot product in a Python loop). It never
imports the library, so a change to the library leaves it unmoved.
``REFERENCE_S`` is its fastest time on a 2-vCPU x86-64 virtual machine
(Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: kernel time at the host's fastest level, in seconds
REFERENCE_S = 2.3e-4

#: seconds between kernel samples
INTERVAL_S = 0.02

_ITERATIONS = 40
_RNG = np.random.default_rng(20240417)
_INC = (_RNG.random((12, 24)) < 0.3).astype(float)
_QUAD = _RNG.uniform(0.5, 2.0, 12)


def kernel() -> float:
    """One fixed unit of work; returns a checksum that never varies."""
    x = np.full(_INC.shape[1], 1.0 / _INC.shape[1])
    checksum = 0.0
    for _ in range(_ITERATIONS):
        x_link = _INC @ x
        g = _QUAD * x_link + 1.0
        j = int(np.argmin(_INC.T @ g))
        x *= 0.9
        x[j] += 0.1
        checksum += float(np.dot(g, x_link))
    return checksum


class ReferenceClock:
    """Kernel samples taken on a timer while the clock runs (a context manager)."""

    def __init__(self) -> None:
        self.expected = kernel()  # also warms the kernel's code paths
        self.starts: list[float] = []
        self.samples: list[float] = []  # time of the timed kernel call
        self.spent: list[float] = []  # time of the whole sample
        self.wrong = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        kernel()  # warms the caches, so the timed call sees the host, not what ran before
        t1 = perf_counter()
        checksum = kernel()
        t2 = perf_counter()
        self.starts.append(t0)
        self.samples.append(t2 - t1)
        self.spent.append(t2 - t0)
        self.wrong += checksum != self.expected

    def __enter__(self) -> ReferenceClock:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.wrong:
            raise RuntimeError(f"reference kernel gave a wrong checksum {self.wrong} times")

    def reference_seconds(self, start: float, seconds: float, busy: float | None = None) -> float:
        """Reference seconds of a step that began at ``start`` and took ``seconds``.

        The step's own time is ``seconds`` less the samples taken within
        it, unless ``busy`` gives it (for work in another process, which the
        samples did not interrupt).
        """
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, start + seconds)
        speed = statistics.fmean(self.samples[i:j] or self.samples[max(0, i - 1):i + 1])
        if busy is None:
            busy = seconds - sum(self.spent[i:j])
        return busy * REFERENCE_S / speed
