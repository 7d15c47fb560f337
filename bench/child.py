"""One measured qbip CLI process, launched by run.py with src/ on PYTHONPATH.

    python3 bench/child.py [qbip argv ...]

Imports ``qbip.cli`` and, given argv, runs ``cli.main(argv)`` once under a
SpeedProbe; with no argv it only imports (a set-up probe).  The last stdout
line is a JSON object: ``ready`` (CLOCK_MONOTONIC once the import is done),
``setup_probe_s`` (probe samples taken right after it) and, with argv, ``rc``, ``wall_s`` of ``cli.main``, ``cpu_s`` (user+sys of this
process and any workers it reaped), both less the probe's own time,
``probe_s`` (the probe's samples) and ``maxrss_kb`` (peak resident memory of
this process).
"""

import signal
import sys
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.04
SETUP_PROBES = 5  # probe samples right after the import, to scale set-up time


def probe_work():
    """A fixed mix of int, tuple, dict and Fraction work, about 1 ms unloaded.

    Standard library only, so a change to qbip cannot change its cost.
    """
    acc = Fraction(0)
    table = {}
    for i in range(1, 201):
        coeffs = tuple(range(i % 23))
        table[coeffs] = sum(c * c * i for c in coeffs)
        acc += Fraction(i % 97, i % 89 + 1)
    return acc


def time_probe() -> float:
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Times probe_work() once on entry, then every PROBE_INTERVAL_S (SIGALRM).

    How long the same work takes, sampled through the run, tells how fast the
    (shared) CPU was running the program at the time.
    """

    def __init__(self, on_sample=None):
        self.samples = []
        self._on_sample = on_sample  # called with each sample's duration
        self._old = None

    def _tick(self, signum=None, frame=None):
        took = time_probe()
        self.samples.append(took)
        if self._on_sample is not None:
            self._on_sample(took)

    def __enter__(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def main():
    from qbip import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    report = {
        "ready": ready,
        "module": cli.__file__,
        "setup_probe_s": [time_probe() for _ in range(SETUP_PROBES)],
    }
    argv = sys.argv[1:]
    if argv:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - start

        import resource

        own = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
        in_main = sum(probe.samples[1:])
        report.update(rc=rc, wall_s=wall - in_main, cpu_s=cpu - sum(probe.samples),
                      probe_s=probe.samples, maxrss_kb=own.ru_maxrss)

    import json

    sys.stdout.flush()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
