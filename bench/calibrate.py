"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine every process can run up to 2x slower for
seconds to minutes at a time, which moves wall times far more than one code
change should.  So the runner times this fixed kernel right after each
set-up and each operation and scales that operation's time by
``REFERENCE_S / kernel time``.  The figures then read as seconds on a
machine where the kernel takes ``REFERENCE_S``.  The kernel is the
benchmark's own code and never calls boxact, so a change to the program
moves the scaled figures in the same proportion as the raw ones.  Raw times
are kept in every record.

The kernel mixes what boxact spends its time on: Python float arithmetic,
tuple unpacking and dict updates per frame, and numpy calls on arrays of a
few dozen values (argsort, cumsum, median), as in forest training.
"""

from __future__ import annotations

import gc
import math
import random
import time

import numpy as np

REFERENCE_S = 0.020  # the kernel's time on the reference machine


def _kernel() -> float:
    rng = random.Random(7)
    boxes = [
        (rng.uniform(0, 300), rng.uniform(0, 200), rng.uniform(5, 40), rng.uniform(5, 40))
        for _ in range(3000)
    ]
    acc: dict[str, float] = {}
    for i in range(1, len(boxes)):
        x1, y1, w1, h1 = boxes[i]
        x2, y2, w2, h2 = boxes[i - 1]
        ox = max(0.0, min(x1 + w1, x2 + w2) - max(x1, x2))
        oy = max(0.0, min(y1 + h1, y2 + h2) - max(y1, y2))
        key = f"k{i % 31}"
        acc[key] = (
            acc.get(key, 0.0)
            + ox * oy / (w1 * h1)
            + math.hypot(x1 - x2, y1 - y2)
            + math.atan2(y1 - y2, x1 - x2)
        )
    column = np.array([b[0] for b in boxes])
    total = sum(acc.values())
    for j in range(300):
        part = column[j : j + 64]
        order = np.argsort(part, kind="stable")
        total += float(np.median(part)) + float(np.cumsum(part[order])[-1])
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
