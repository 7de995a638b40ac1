"""A fixed piece of reference work that tracks how fast the machine runs.

On a shared host a core can run 1.2-1.7x slower for stretches of a
second to minutes, and process CPU time slows with it, so identical work
spreads by 10-36 % from run to run.  So ``run.py`` times this probe all
through its windows, from a wall-clock timer signal every ``PERIOD_S``,
and scales every measured time by ``REF_S`` over the mean probe time
around it, after taking the probes' own time out.  A reported second is
a second at the speed at which the probe takes ``REF_S``.  The probe
mixes what a load step does (sparse mat-vecs as in PCG, scatter-adds and
a COO-to-CSR conversion as in assembly, and a pure-Python loop as in the
mesh code), so a slow stretch slows it as it slows the program.  It never
calls xifrac, so no change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

# Probe time at the reference speed: the median probe time inside a
# benchmark process on an idle core of a 2-core Intel Xeon VM.
REF_S = 0.0020
REPEATS = 3  # the probe is the fastest of these, so a brief stall is ignored
# Seconds between probes: 2-4 % of the time goes to probing, and every
# load step has probes within this distance of it.
PERIOD_S = 0.15


class Probe:
    """Call to time the reference work; returns seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 64
        m = n * n
        ones = np.ones(m)
        self.matrix = sp.diags([4 * ones, -ones[1:], -ones[1:], -ones[n:],
                                -ones[n:]], [0, 1, -1, n, -n], format="csr")
        self.x = rng.random(m)
        # Arrays stay small enough to come from the heap: a probe that
        # maps fresh pages would time the allocator, not the core.
        self.rows = rng.integers(0, m, 4 * m)
        self.cols = rng.integers(0, m, 4 * m)
        self.vals = rng.random(4 * m)
        self.cells = [(k, k % n, k // n) for k in range(m)]

    def work(self) -> float:
        y = self.x
        for _ in range(40):
            y = self.matrix @ y
            y *= 1.0 / np.linalg.norm(y)
        acc = np.bincount(self.rows, self.vals, minlength=self.x.size)
        coo = sp.coo_matrix((self.vals, (self.rows, self.cols)),
                            shape=self.matrix.shape)
        nnz = coo.tocsr().nnz
        index = {}
        for k, i, j in self.cells:
            index[(i, j)] = k + i - j
        return float(y[0] + acc[0]) + nnz + len(index)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best


def at_ref(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference speed, from the probe times around it."""
    return seconds * REF_S / statistics.fmean(probes)


class Sampler:
    """Times the probe every ``PERIOD_S`` of wall time while active.

    The timer's signal handler runs the probe between two bytecodes of
    whatever Python code is running, so a probe lies wholly inside or
    wholly outside any interval the main code timestamps.
    """

    def __init__(self):
        self.probe = Probe()
        self.ticks: list[tuple[float, float, float]] = []  # start, end, probe

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        took = self.probe()
        self.ticks.append((start, time.perf_counter(), took))

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def time(self, start: float, end: float) -> tuple[float, float]:
        """Plain and reference-speed seconds of program work in [start, end].

        Probe time inside the interval is taken out.  The speed is the mean
        of the probes within ``PERIOD_S`` of the interval, or the nearest
        probe.  With no probes (sampler never active) both are plain.
        """
        busy = sum(e - s for s, e, _ in self.ticks if start <= s and e <= end)
        plain = end - start - busy
        if not self.ticks:
            return plain, plain
        near = [p for s, e, p in self.ticks
                if start - PERIOD_S <= e and s <= end + PERIOD_S]
        if not near:
            middle = 0.5 * (start + end)
            near = [min(self.ticks, key=lambda t: abs(t[0] - middle))[2]]
        return plain, at_ref(plain, near)
