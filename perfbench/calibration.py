"""CPU-speed calibration for scaling wall times to a reference speed.

On a shared machine the speed of one core drifts by up to about 2x over
seconds, as neighbours load the host, and the drift swamps the run-to-run
differences the benchmark must resolve. Timing a fixed piece of work next
to each measurement and scaling the measurement by ``REF_S / calibration``
cancels most of it. The calibration is the same kinds of work skymarket
does, numpy calls on small arrays and Python-level sorting, tuples and
dicts, and runs no skymarket code, so a change to skymarket cannot move
it. Timing both kinds tracked all three workloads better than either
kind alone.
"""

from time import perf_counter

import numpy as np

# calibration time that defines the reference speed: scaled times read as
# wall times on a core that runs ``calibrate()`` in exactly this long
REF_S = 0.025


def calibrate() -> float:
    """Seconds this core takes for the fixed calibration work."""
    a = np.arange(16.0)
    b = np.ones(16)
    acc = 0.0
    t0 = perf_counter()
    for i in range(2500):
        idx = np.flatnonzero(a > 3.0)
        a[idx] += 0.5
        acc += float(np.hypot(a, b)[i % 16])
        record = {"id": i, "pair": (i, acc)}
    for i in range(3000):
        ranked = sorted(((j * 7) % 11, j) for j in range(8))
        acc += ranked[0][0] * 0.5
        record = {"id": i, "pair": (i, acc)}
    del record
    return perf_counter() - t0
