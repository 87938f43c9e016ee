"""Time one import of truncsm in this fresh interpreter, at reference speed.

    python3 perfbench/import_child.py <src directory>

Prints one number: the seconds `import truncsm.cli` took, less the probes
that ran inside it, times REFERENCE_S over the median probe time.  This is
speed.py's rescaling, done in the process that imports, so that the probes
see the speed the import ran at.  Only the standard library is loaded before
the import, because numpy and scipy are part of what is timed; the probe is
therefore the interpreted loop alone.
"""

import signal
import statistics
import sys
import time

PERIOD_S = 0.05
REFERENCE_S = 0.4e-3       # probe time in the fast stretches of speed.py's host
AROUND = 10                # probes run back to back before and after the import


def reference():
    s = 0.0
    for i in range(4500):
        s += (i % 7) * 0.5
    return s


def main(src):
    sys.path.insert(0, src)
    probes = []

    def probe(_signum=None, _frame=None):
        t = time.perf_counter()
        reference()
        probes.append(time.perf_counter() - t)

    for _ in range(AROUND):
        probe()
    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    import truncsm.cli  # noqa: F401
    t1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    inside = sum(probes[AROUND:])
    for _ in range(AROUND):
        probe()
    print((t1 - t0 - inside) * REFERENCE_S / statistics.median(probes))


if __name__ == "__main__":
    main(sys.argv[1])
