"""Host speed, sampled while the benchmark runs, to rescale wall times.

The benchmark shares its cores with other tenants of the host, and the speed
they leave it drifts: on a 2-vCPU Xeon guest, a fixed computation took 16 ms
for stretches of many seconds and 23 ms for others, with CPU time equal to
wall time throughout (the guest sees no steal; the core itself runs slower).
Timing more operations does not average this away, because one slow stretch
can cover a whole run.

`SpeedProbe` times a fixed reference computation, interleaved with the
program: while installed, a timer interrupts the main thread every
`PERIOD_S` seconds to run it once.  `rescale` turns a wall-time interval
into seconds at reference speed: the interval's wall time less the probes
that ran inside it, times `REFERENCE_S` over the median probe time near it.
A change to truncsm cannot move the probe, so rescaled times compare across
runs and across versions of the program.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.optimize import brentq

PERIOD_S = 0.05
REFERENCE_S = 1.1e-3       # probe time in the fast stretches on the host above
NEAR_S = 0.1               # probes this close to an interval also describe it

_SMALL = np.random.default_rng(0).standard_normal((5000, 2))
_V = np.array([0.3, 0.4])
_Q = np.array([[0.8, 0.6], [-0.6, 0.8]])


def reference():
    """The fixed computation, one part for each kind of work in truncsm's hot
    paths, each part about a third of the whole: an interpreted loop, a
    Python loop over numpy calls on 2-vectors with a scalar root find (the
    ellipsoid distance) and vectorised arithmetic on a (5000, 2) array (model
    densities).  The host's slowdowns hit these kinds of work by different
    amounts; their sum tracks truncsm's operations better than any one alone."""
    s = 0.0
    for i in range(4500):
        s += (i % 7) * 0.5
    for _ in range(3):
        z = _Q @ _V
        s += float(np.linalg.norm(z - _V))
        s += brentq(lambda t: float(np.sum(_V * _V / (1.0 + t) ** 2)) - 0.1, 0.0, 10.0)
    for _ in range(2):
        d = _SMALL - _V
        s += float(np.exp(-0.5 * (d * d).sum(axis=1)).sum())
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)

    def _probe(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    @contextlib.contextmanager
    def installed(self):
        """Probes on entry, every PERIOD_S, and on exit, so that work shorter
        than PERIOD_S still has probes near it."""
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()

    def rescale(self, t0, t1):
        """Seconds at reference speed of the wall interval [t0, t1], judged by
        the probes that ran inside it or within NEAR_S seconds of it."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        durations = [d for s, d in self.samples if t0 - NEAR_S <= s < t1 + NEAR_S]
        if not durations:
            raise RuntimeError(f"no speed probe within {NEAR_S} s of [{t0:.3f}, {t1:.3f}]")
        return (t1 - t0 - inside) * REFERENCE_S / statistics.median(durations)
