"""A fixed reference kernel that measures how fast the machine runs now.

On a shared virtual machine the speed of a core drifts by 20-40% over
minutes, with other tenants, and the drift is in CPU time as much as in
wall time.  The measuring process therefore times this kernel between
ops, twice a second, and the benchmark scales CPU seconds by
`REFERENCE_S / mean kernel time`: a calibrated second is what the work
would have taken on the baseline machine at its usual speed.  The kernel
does no stpcs work, so a change to the package does not move it.

It mixes the kinds of work the workloads do, in about equal shares of
its time: interpreted Python, small dense linear algebra, and allocating
and streaming over a matrix larger than the caches.  The streaming part
follows the drift of the core least, so it is kept to a third.  Its
large buffer raises a process's peak RSS, so the benchmark reads the peak
before the first kernel run.
"""

from __future__ import annotations

import time

import numpy as np

# Usual kernel time, in CPU seconds, on the baseline machine (README.md).
REFERENCE_S = 0.032

_SMALL = np.random.default_rng(0).standard_normal((16, 16))


def _kernel() -> float:
    total = 0
    for i in range(120000):
        total += i * i % 7
    for _ in range(360):
        total += float(np.linalg.svd(_SMALL, compute_uv=False)[0])
    big = np.zeros((2048, 2048))
    big[::7] = 1.0
    return total + float(big.sum())


def kernel_s() -> float:
    """CPU seconds of one run of the kernel."""
    t0 = time.process_time()
    _kernel()
    return time.process_time() - t0


class Sampler:
    """Called between ops: times the kernel once every `every_s` seconds.

    Samples spread over the whole run follow the drift of the core better
    than a few taken at pass boundaries (a `basis-geometry` pass lasts
    about 7 s).
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.times: list[float] = []
        self._due = time.perf_counter()

    def __call__(self) -> None:
        if time.perf_counter() >= self._due:
            self.times.append(kernel_s())
            self._due = time.perf_counter() + self.every_s
