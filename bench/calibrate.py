"""Machine-speed calibration: fixed kernels, timed between the ops, so that
each op's latency can be stated at one reference speed.

The benchmark runs on a shared virtual machine whose speed is not its own:
while a neighbour thrashes the shared caches, the same code runs up to 1.5x
slower, and the slow and fast spells last seconds to minutes.  No estimator
inside a run removes a drift that lasts longer than the run.

A spell slows different code by different amounts (interpreted Python 1.3x,
JSON encoding 1.75x, a 576 x 576 eigensolve 1.1x), so each workload is
calibrated with kernels like the work its ops do (``workloads.py`` names
them): interpreted Python, batched small eigensolves, JSON encoding and a
memory-bound Kronecker product for ``sweep`` and ``cli``; one dense 300 x 300
eigensolve for ``large_n``.  ``slowdown`` times each kernel once and returns
the geometric mean of their times over ``REFERENCE_S``; an op's latency
divided by the mean slowdown measured just before and just after it is its
latency at the reference speed.  Measured on a 2-vCPU Xeon VM, this cut the
spread (interquartile range over median) of ``wall_s`` over five 30-s runs
from 0.125 to 0.018 on ``sweep`` and from 0.082 to 0.037 on ``cli``, and that
of one ``large_n`` pass's scaled time from 0.090 to 0.041; the four small
kernels left ``large_n`` at 0.082, and the dense one alone did best there.

Set-up, a fresh process, is calibrated instead with the start of a bare
interpreter that imports numpy (``START_CMD``), timed just before and just
after each set-up probe: over sixteen sets of nine probes this cut the spread
of the median probe time from 0.315 to 0.048 (the kernels: 0.176).

The kernels use only the standard library and numpy, never ``cyclemaps``, and
their inputs come from a fixed seed, so a change to the package cannot change
them.
"""
from __future__ import annotations

import json
import math
import sys
from time import perf_counter

import numpy as np

# Each kernel's time in seconds on a 2-vCPU Xeon VM (OpenBLAS at 2 threads)
# in its fast spells; the stated latencies are at this speed.
REFERENCE_S = {"python": 1.0e-3, "eig": 1.2e-3, "json": 1.2e-3, "kron": 1.3e-3, "dense": 5.3e-3}

START_CMD = [sys.executable, "-c", "import numpy"]
REFERENCE_START_S = 0.13  # START_CMD's wall time on the same VM in its fast spells


class Speedometer:
    def __init__(self, kernels: tuple[str, ...]) -> None:
        rng = np.random.default_rng(20170404)
        a = rng.standard_normal((30, 25, 25))
        self._batch = a + a.transpose(0, 2, 1)
        self._floats = [float(x) for x in rng.standard_normal(1500)]
        self._block = rng.standard_normal((24, 24))
        d = rng.standard_normal((300, 300))
        self._dense = d + d.T
        eigvalsh = np.linalg.eigvalsh  # bound now, so that a traced run does not record it
        every = {
            "python": self._python,
            "eig": lambda: eigvalsh(self._batch),
            "json": lambda: json.dumps(self._floats),
            "kron": lambda: np.kron(self._block, self._block).sum(),
            "dense": lambda: eigvalsh(self._dense),
        }
        self._kernels = {name: every[name] for name in kernels}

    @staticmethod
    def _python() -> int:
        s = 0
        for i in range(12000):
            s += i * i % 7
        return s

    def times(self) -> dict[str, float]:
        """Each kernel's wall time, in seconds, from one run of each."""
        out = {}
        for name, kernel in self._kernels.items():
            t0 = perf_counter()
            kernel()
            out[name] = perf_counter() - t0
        return out

    def slowdown(self) -> float:
        """Geometric mean over the kernels of their time over the reference."""
        t = self.times()
        return math.exp(sum(math.log(t[k] / REFERENCE_S[k]) for k in t) / len(t))
