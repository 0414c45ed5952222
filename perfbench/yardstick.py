"""A fixed pure-Python workload that measures how fast the host runs now.

The benchmark shares a few cores of a host with other tenants, and their
load changes the speed of this process by up to about 2x for seconds or
minutes at a time, in CPU time as well as in wall time.  `measure` times a
fixed mix of the operations logchern spends its time in (sparse polynomial
products over exponent tuples, sorting by a key function, gcds and products
of multi-thousand-bit integers, `Fraction` arithmetic, frozenset algebra),
none of which calls logchern, so a change to the program never changes it.

`Sampler` runs the yardstick on a CPU-time timer while a job runs, so the
samples see the host speed during the job.  The job's own CPU time (its CPU
time less the samples') times `REFERENCE_S` over the median sample is the
job's time on a host running at the reference speed: a change in the program
moves that figure in full, a change in host speed moves it much less.
"""

import signal
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

# The scale that turns a ratio of CPU times back into seconds: about the
# CPU time of one pass on a quiet 2 GHz Xeon vCPU with Python 3.11.7 (it
# measured up to twice that there as the load of other tenants changed).
REFERENCE_S = 0.004

# CPU seconds between two samples during a job: about 4% of its CPU time
SAMPLE_INTERVAL_S = 0.1

_BIG_X, _BIG_Y = 3 ** 3000, 7 ** 2500


def _poly_product():
    a = {(i, j, k): i * 7 + j * 3 - k + 1
         for i in range(4) for j in range(4) for k in range(3)}
    b = {(i, j, k): (2 * i - j + 5 * k - 2) or 1
         for i in range(3) for j in range(3) for k in range(2)}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return len(sorted(((e, c) for e, c in out.items() if c),
                      key=lambda t: (-sum(t[0]), t[0][::-1])))


def _gcds():
    x, acc = 3, 0
    for i in range(1, 150):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 640)
        acc += gcd(x, (x >> 7) * i + 1).bit_length()
    return acc


def _big_products():
    acc = 0
    for i in range(16):
        acc ^= (_BIG_X * _BIG_Y + i) % (_BIG_Y + 12345)
    return acc.bit_length()


def _fractions():
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i * i - 3, 2 * i + 1) * Fraction(7, i + 2)
    return s.numerator.bit_length()


def _flats():
    sets = [frozenset(c) for c in combinations(range(8), 3)]
    return len({u | v for u, v in combinations(sets[:30], 2)})


def run_once():
    return (_poly_product() + _gcds() + _big_products() + _fractions()
            + _flats())


def measure():
    """Seconds of one pass of the yardstick mix.

    Wall time: inside a SIGPROF handler on a 2-vCPU Xeon cloud VM, the
    process CPU clock advanced in 4 ms steps, as long as a whole pass.  The
    median over a job's samples leaves out the rare pass that is preempted.
    """
    start = time.perf_counter()
    run_once()
    return time.perf_counter() - start


def samples(seconds):
    """At least one pass, more until they took ``seconds``; returns the
    seconds of each pass."""
    out = [measure()]
    while sum(out) < seconds:
        out.append(measure())
    return out


class Sampler:
    """Within ``with sampler:``, one yardstick pass per ``interval`` CPU
    seconds of this process, run from a SIGPROF handler on the main thread;
    ``sampler.samples`` holds their seconds."""

    def __init__(self, interval=SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples.append(measure())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False
