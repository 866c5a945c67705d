"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same op can take 30-60% longer for minutes at a time,
because other tenants load the same physical cores. The loop here does a
fixed amount of the kinds of work the workloads do: interpreter-bound Python,
many tiny numpy calls, LAPACK on a small Hermitian matrix, a product of
343x343 complex matrices shaped like the dual effects of the d=7 device, and
a streaming pass over a vector. It never calls ``qmultimeter``,
so a change to the package cannot change its cost.

``worker.py`` runs it between ops in the same process. An op's reported time
is its wall time scaled by ``REFERENCE_S`` over the mean of the calibration
times just before and just after it: the time the op would take on a host
where the loop takes ``REFERENCE_S``. Raw wall times are reported beside it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the loop's time in a quiet phase of a 2-vCPU Intel Xeon VM, BLAS on 1 thread
REFERENCE_S = 0.045
_SEED = 20161024


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(_SEED)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.hermitian = a + a.conj().T
        self.product = rng.standard_normal((343, 343)) + 1j * rng.standard_normal((343, 343))
        self.small = [rng.standard_normal((2, 2)) for _ in range(8)]
        self.vector = rng.standard_normal(500_000)
        self.run()  # the first LAPACK and BLAS calls pay one-off set-up

    def run(self) -> float:
        """Seconds one pass of the loop takes now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        for _ in range(300):
            for m in self.small:
                acc += float(np.trace(m @ m.T))
        for _ in range(10):
            np.linalg.eigh(self.hermitian)
        self.product.conj().T @ self.product @ self.product
        np.exp(self.vector).sum()
        return time.perf_counter() - t0

    def median(self, passes: int) -> float:
        return statistics.median(self.run() for _ in range(passes))
