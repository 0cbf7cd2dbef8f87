"""Reference probe: how fast the machine runs right now.

The benchmark was built on a shared machine whose speed changes by up to
half from one minute to the next: a slow state and a fast one, each lasting
from tens of seconds to minutes, with no steal time reported. Every timing
moves with it, so a raw time mostly measures which state a run fell into.

``probe`` times a fixed piece of work that uses nothing from orbitlab: a
pure-Python loop and numpy passes over an array of a few MB, the two kinds
of work orbitlab's jobs do. The benchmark probes before and after every job
(and every set-up sample) and multiplies the time it measured by ``REF_S``
over the mean of the two probes: the time the work would have taken with
the machine at reference speed, the speed at which the probe takes
``REF_S``. A change to orbitlab cannot move the probe, so it moves the
scaled time by the same share as the raw time.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.02  # the probe's time at reference speed: about its median on a 2-vCPU Xeon VM

_N_LOOP = 100_000
_N_ARRAY = 500_000


def probe() -> float:
    """Seconds the reference work takes now."""
    # allocated and touched before the clock starts: the first touch of fresh
    # pages depends on the allocator's history in this process, not on speed
    a = np.arange(_N_ARRAY, dtype=np.float64)
    t0 = time.perf_counter()
    s = 0
    for i in range(_N_LOOP):
        s += i * i % 7
    for _ in range(4):
        np.multiply(a, 1.0001, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
    np.negative(a, out=a)
    a.sort()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """The factor that takes a time measured between two probes to reference speed."""
    return REF_S / ((before + after) / 2)
