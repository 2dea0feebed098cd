"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared 2-vCPU virtual machine (2.1 GHz) the same ops take up to 1.6
times longer at some moments than at others, and 30-second runs of
identical work differ by up to 30%.  Each run therefore interleaves this
kernel with its ops and rescales op times by REFERENCE_S / (measured kernel
time).  ``bench/BASELINE.md`` gives each metric's spread over ten seeds
both rescaled and as measured, and the spread of the factor itself.  The kernel
imports nothing from swapalg, so a change to the library cannot move it;
it mixes the same kinds of work as the library (small rational arithmetic,
hashing and dict traffic, small numpy products) and runs with the garbage
collector paused, so the library's heap does not change its cost.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3  # nominal kernel time; a run at this speed is left unscaled

_STEP = np.array([[1.0, 1e-3, 0.0], [0.0, 1.0, 1e-3], [1e-3, 0.0, 1.0]])


def _kernel():
    table = {}
    for k in range(1, 75):
        x = Fraction(k % 97, k + 1) + Fraction(1, k % 13 + 1)
        table[(x, k % 7)] = x * x
    keys = sorted(table, key=lambda key: key[0])
    m = np.eye(3)
    for _ in range(20):
        m = m @ _STEP
    return keys[0], m


def time_kernel(repeats: int) -> float:
    """Total seconds for `repeats` runs of the kernel, collector paused.

    One untimed run first brings the kernel's code and data back into the
    caches, so what the library left there does not change the timing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        start = perf_counter()
        for _ in range(repeats):
            _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
