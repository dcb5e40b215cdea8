"""Machine-speed probe, for hosts shared with other tenants.

On the reference machine the wall time of one fixed job moved by up to 40%
between runs a minute apart, and every job and process start of a run moved
with it, so run-to-run spreads of raw wall times reached 0.25 of the median.
A fixed kernel that calls no peribessel code therefore runs after every job
(outside the job's timing).  Each cycle's job times are multiplied by
REFERENCE_MS over the median kernel time of that cycle; reported times are
wall times at the speed at which the kernel takes REFERENCE_MS.  The raw wall
times are printed beside them.  The kernel mixes what the workloads spend
their time on: small complex FFTs, interpreter-bound slice updates, scalar
Python, and passes over an array larger than the per-core L2 cache.
"""

import statistics
import time

import numpy as np

# Median kernel time on the reference machine when it was quiet (2-vCPU
# x86-64 container, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread).
REFERENCE_MS = 20.0


class SpeedProbe:
    def __init__(self):
        phase = np.arange(18**3, dtype=np.float64).reshape(18, 18, 18)
        self.cube = np.cos(phase) + 1j * np.sin(0.5 * phase)
        self.acc = np.zeros((17, 17, 17), dtype=np.complex128)
        # 4 MiB: twice the per-core L2, so each pass streams through L3.
        self.stream = np.ones(2**19, dtype=np.float64)

    def sample_ms(self) -> float:
        start = time.perf_counter()
        for _ in range(60):
            np.fft.ifftn(self.cube)
        block = self.cube[:9, :9, :9]
        for i in range(400):
            self.acc[i % 9 : i % 9 + 9, :9, :9] += block
        total = 0
        for i in range(20000):
            total += i & 7
        for _ in range(40):
            np.multiply(self.stream, 1.0, out=self.stream)
        return 1e3 * (time.perf_counter() - start)

    def scale(self, samples_ms=None) -> float:
        """REFERENCE_MS over the median of ``samples_ms`` (default: five
        fresh samples)."""
        if samples_ms is None:
            samples_ms = [self.sample_ms() for _ in range(5)]
        return REFERENCE_MS / statistics.median(samples_ms)
