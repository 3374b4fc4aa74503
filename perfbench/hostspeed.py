"""Host-speed reference, so wall times can be read at one host speed.

On a shared host the speed a run gets drifts by a third within
minutes, and a slow stretch slows every kernel at once: one tuned cell
repeated for four minutes on a 2-vCPU host took 3.3 to 6.1 s, with CPU
time tracking wall time exactly.  This module times a fixed mix of
kernels that never touches the program -- a random gather past the
private caches, a sort, an interpreter loop and a small argsort/cumsum
split scan -- between units of work.  :func:`factor` is the host's
speed relative to the nominal one; dividing a unit's wall time by the
mean factor of the samples taken just before and after it gives its
seconds at nominal speed.  On that same repeated cell this took the
spread (interquartile range over median) from 0.31 to 0.11.

The nominal times are what each kernel took (best of three) in a quiet
stretch on a shared 2-vCPU Xeon; on another host the scale differs,
but it is the same for every commit measured there.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_TABLE = _RNG.random(4_000_000)
_INDEX = _RNG.integers(0, len(_TABLE), 200_000)
_VALUES = _RNG.random(200_000)
_SMALL = _RNG.random((400, 8))


def _gather() -> None:
    _TABLE[_INDEX].sum()


def _sort() -> None:
    np.sort(_VALUES)


def _interpreter() -> None:
    total = 0
    for i in range(20_000):
        total += i * i


def _split_scan() -> None:
    for _ in range(30):
        order = np.argsort(_SMALL, axis=0)
        np.cumsum(_SMALL[order[:, 0]], axis=0)


#: ``(kernel, nominal seconds)``; the factor weighs the kernels equally.
KERNELS = (
    (_gather, 4.3e-3),
    (_sort, 2.2e-3),
    (_interpreter, 1.8e-3),
    (_split_scan, 2.8e-3),
)


def factor() -> float:
    """How much slower than nominal the host runs now (1.0 = nominal)."""
    ratios = []
    for kernel, nominal in KERNELS:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        ratios.append(best / nominal)
    return sum(ratios) / len(ratios)
