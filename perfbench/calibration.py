"""Machine-speed probe that puts stage times on one reference speed.

On a shared host the speed of a core changes by a third or more over
seconds to minutes as other tenants load it, which moves every stage time
of a run together.  ``probe`` times a fixed mix of the work glemarket does
(a convolution march of growing ``np.dot`` calls as in ``volterra``,
small-array numpy calls as in the audits and fits, a batched FFT and
Gaussian draws as in the noise synthesis, plain Python arithmetic) that
involves no glemarket code.  A stage time divided by the probe time measured around it, times
``REFERENCE_S``, is the stage time at the speed the probe had when
``REFERENCE_S`` was measured; a change to glemarket moves it exactly as it
moves the wall time.  The run report prints the raw wall times beside it.
"""

import time

import numpy as np

# median probe time on a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4, one thread)
REFERENCE_S = 0.025

_KERNEL = np.random.default_rng(0).random(3000)[::-1]  # reversed view, as in the marches
_SERIES = np.random.default_rng(1).random(3000)
_SMALL = np.random.default_rng(2).random(8)
_BLOCK = np.random.default_rng(3).random((64, 8192))
_RNG = np.random.default_rng(4)


def probe():
    """Seconds taken by the fixed reference work (about 25 ms)."""
    start = time.perf_counter()
    current = 0.0
    for j in range(1, 3000, 2):  # a convolution march: growing dot products
        tail = 0.5 * _KERNEL[j] + np.dot(_KERNEL[2999 - j : 2999], _SERIES[1 : j + 1])
        current = (current - 0.05 * (tail + current)) / 1.01
    for _ in range(1600):  # many small-array calls, as in the audits and fits
        np.interp(0.5, _SMALL, np.abs(_SMALL * 1.5 - 1.0))
    np.fft.rfft(_BLOCK, axis=1)  # batched FFTs and Gaussian draws, as in the noise
    _RNG.standard_normal(200_000)
    total = 0
    for i in range(30000):  # plain interpreter work
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Stage samples, each with the reference-speed factor measured around it.

    A probe runs when the clock starts and again after every timed part, so
    each part sits between two probes.  A stage is one part (``add``) or the
    sum of several (``part`` for each, then ``close``).
    """

    def __init__(self):
        self.samples = []  # (metric name, wall seconds, reference-speed factor)
        self._last = probe()
        self._wall = self._timed = 0.0

    def part(self, seconds):
        now = probe()
        self._wall += seconds
        self._timed += seconds * REFERENCE_S * 2.0 / (self._last + now)
        self._last = now

    def close(self, key):
        self.samples.append((key, self._wall, self._timed / self._wall))
        self._wall = self._timed = 0.0

    def add(self, key, seconds):
        self.part(seconds)
        self.close(key)
