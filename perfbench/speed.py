"""Machine-speed reference for timings on a shared, drifting machine.

The benchmark machine is shared: the speed of plain Python code drifts by
20-35% over tens of seconds, and CPU time drifts with wall time, so no
estimator taken inside one run is steady across runs. The benchmark
therefore runs a fixed probe around each batch and after its long calls,
and reports every time scaled to the speed at which the probe takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / (median probe time in the batch)

The probe does the same kind of work as the library's hot loops (dict
updates keyed by exponent tuples, int and some Fraction arithmetic) and
shares no code with hpbundles, so a change to the library moves the
reported times and a change in machine speed mostly does not. Raw times
are printed on stderr beside the scaled ones.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Probe time at the machine's typical speed (2-core Xeon VM, Python 3.11.7),
# so scaled times read close to the raw times seen there.
REFERENCE_S = 0.0027

# One probe before and one after each batch, and one after every call that
# ran at least LONG_CALL_S. None follow a short call: a probe evicts the
# caller's data from the CPU caches, and a following microsecond memo hit
# would pay for it, while a long call has already evicted them itself.
# Probes are taken singly because back-to-back probes run with warm caches
# and read faster than the others, which would split the median.
LONG_CALL_S = 0.05

_rng = random.Random(20260811)
_A = {(_rng.randrange(24), _rng.randrange(24)): _rng.randrange(1, 10) for _ in range(90)}
_B = {(_rng.randrange(24), _rng.randrange(24)): _rng.randrange(1, 10) for _ in range(90)}
_F = [Fraction(_rng.randrange(-50, 50), _rng.randrange(1, 12)) for _ in range(60)]


def probe():
    """Run the probe once: (wall seconds, CPU seconds)."""
    wall, cpu = time.perf_counter(), time.process_time()
    res = {}
    for (p1, q1), c1 in _A.items():
        for (p2, q2), c2 in _B.items():
            e = (p1 + p2, q1 + q2)
            s = res.get(e, 0) + c1 * c2
            if s:
                res[e] = s
            else:
                del res[e]
    total = Fraction(0)
    for x in _F:
        total += x * x - x
    return time.perf_counter() - wall, time.process_time() - cpu


class Probes:
    """Probe samples taken around one measured stretch."""

    def __init__(self):
        self.walls = []
        self.cpus = []

    def take(self):
        wall, cpu = probe()
        self.walls.append(wall)
        self.cpus.append(cpu)

    def wall_scale(self):
        """Factor taking wall times to the reference speed."""
        return REFERENCE_S / statistics.median(self.walls)

    def cpu_scale(self):
        """Factor taking CPU times to the reference speed."""
        return REFERENCE_S / statistics.median(self.cpus)
