"""Machine-speed reference kernels, timed between ops.

On the shared 2-vCPU host this benchmark was defined on, the speed of the
machine itself drifts by far more than the bounds a regression gate needs:
the same graph-star op, in one process with nothing else running in the
container, took 213 ms and 386 ms a minute apart, and the median of 10-s
windows spread by ~0.34 (quartile distance over median) across two minutes.
A fixed kernel of the same character, timed between ops, drifts with it:
over the same windows, op time divided by the kernel time spread by ~0.06
(graph-star, python kernel), ~0.09 (probe-coarse, python kernel), ~0.10
(interval-fine, numpy kernel; raw ~0.13) and ~0.04 (cli-batch, spawn
kernel; raw ~0.07, and ~0.20 against the python kernel, which does not
follow process start-up).  Set-up time (`import openmult` plus a small
warm-up op, in fresh interpreters) follows the spawn kernel: medians of 9
samples spread 0.31 as measured and 0.09 scaled.

Timing metrics are therefore reported at the reference speed: each
measured time is multiplied by REF_S[kind] / the median kernel time of the
five samples around it.  Scaling each op by its own neighbourhood, not by the
run's median, matters for the tail: the slowest ops fall in the machine's
slow moments.  The raw measured values are printed beside them in the run's
info line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Typical kernel times between ops on the reference machine (2-vCPU Xeon,
# Python 3.11, numpy 2.4); they only fix the scale of the reported numbers.
REF_S = {"python": 0.0050, "numpy": 0.0170, "spawn": 0.0150}


class SpeedProbe:
    """Times one reference kernel on demand and keeps the samples."""

    def __init__(self, kind):
        if kind not in REF_S:
            raise ValueError(f"unknown speed kernel {kind!r}")
        self.kind = kind
        self.samples = []
        # 16 MiB, beyond L2 on every machine considered, like the streaming
        # arrays of the interval pipeline
        self._arr = np.linspace(0.0, 1.0, 2**21) if kind == "numpy" else None

    def sample(self):
        t0 = time.perf_counter()
        if self.kind == "spawn":
            # process start-up: fork/exec, dynamic loading, interpreter init
            subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        elif self.kind == "python":
            # interpreter-bound: integer arithmetic, a dict store, a loop
            acc = 0
            table = {}
            for i in range(30000):
                acc += i * 3 % 7
                table[i & 255] = acc
        else:
            x = self._arr
            np.exp(x) * x + x
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self, samples):
        """REF / median kernel time of `samples` (the whole run's speed)."""
        return REF_S[self.kind] / statistics.median(samples)

    def scale(self, times, samples, reach=2):
        """Each of `times` at the reference speed.

        `samples[i]` is the kernel time taken next to `times[i]`; each time is
        scaled by the median of the samples up to `reach` places away.
        """
        ref = REF_S[self.kind]
        return [
            t * ref / statistics.median(samples[max(0, i - reach): i + reach + 1])
            for i, t in enumerate(times)
        ]
