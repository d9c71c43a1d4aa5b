"""Host-speed calibration: scales measured wall times to a fixed reference speed.

The benchmark runs on shared hosts whose speed changes from minute to minute.
On the 2-vCPU VM it was tuned on, a fixed pure-Python loop took up to 1.8
times as long in one 10 s window as in another, and a run's wall-time
metrics moved with it: ten 25 s runs of one workload on the same code spread
by as much as 43% (q3 - q1 over the median).  patdual's requests slowed and
sped up with that loop: run side by side, request by request, for 150 s,
while the loop's time moved over a 1.55x range, the ratio of a request's
time to its usual time over the loop's stayed within 0.86-1.11 per 10 s.

So the client times `calibrate`, a fixed task that does not use patdual,
between requests, outside the timed interval.  A request's wall time is
scaled by REFERENCE_S over the host's current calibration time: the result
is the time the request would take on a host where the calibration takes
REFERENCE_S.  The calibration mixes the two kinds of work patdual does:
`Fraction` and list arithmetic in the interpreter, like the exact solver,
and vectorised numpy steps, like the simulator.  Both parts are needed:
either alone left the workloads that lean on the other noisy.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The calibration's time at the reference speed.  On the VM above it took
# 4-7.5 ms as the host's speed moved.
REFERENCE_S = 0.005
# Calibrations on each side of a sample that set its scale.
NEIGHBOURS = 2


def calibrate() -> float:
    """Seconds that the fixed calibration task takes now."""
    start = time.perf_counter()
    for _ in range(3):
        x, total, row = Fraction(2, 3), Fraction(0), [1]
        for k in range(1, 120):
            total += x ** (k % 9) / k
            row = [a + b for a, b in zip(row + [0], [0] + row)][:40]
    rng = np.random.Generator(np.random.PCG64(7))
    transitions = rng.integers(0, 8, size=(8, 3))
    thresholds = np.array([0.5, 0.8])
    state = np.zeros(4000, dtype=np.int64)
    for _ in range(15):
        state = transitions[state, np.searchsorted(thresholds, rng.random(state.size), side="right")]
    return time.perf_counter() - start


def scaled(samples: list[float], calibrations: list[float]) -> list[float]:
    """Wall times at the reference speed.

    `calibrations[j]` was timed just before `samples[j]`, and the last one
    after the last sample.  Each sample is scaled by the median of the
    2 * NEIGHBOURS calibrations nearest to it, half before and half after.
    """
    assert len(calibrations) == len(samples) + 1
    return [
        t * REFERENCE_S / statistics.median(calibrations[max(0, j - NEIGHBOURS + 1): j + NEIGHBOURS + 1])
        for j, t in enumerate(samples)
    ]
