"""Host-speed reference: timed work rescaled to a quiet host.

The benchmark runs on two vCPUs of a shared host whose speed drifts, in
phases lasting seconds to minutes, from full speed to several times
slower, with little or no steal time reported (a 2-vCPU 2.0 GHz Xeon
VM: the same ``boot_helr`` program took 0.47 s in quiet phases and up
to 1.6 s in busy ones).  A wall-clock median of one run then mostly
says how busy the neighbours were.

So every timed request group is bracketed by :func:`reference_s`, a
fixed kernel that touches no program code, and its wall time is
rescaled by :func:`speed_factor` to *reference seconds*: the time the
same work would take on a host where the reference kernel takes
:data:`REFERENCE_S`.  The kernel does what the programs spend their
time on — modular multiply-adds and a gather over 1024-word rows of a
2 MiB table, like RNS limbs — so that a neighbour who crowds the
shared caches slows it about as much as the program.  It does not
track perfectly: on a busy host the rescaled time still reads 10-40%
above the quiet-host one, but ten runs agree within a few percent.

The kernel is part of the yardstick: changing it (or
:data:`REFERENCE_S`) changes every time metric.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference-kernel time (min of :data:`REPS`) on a quiet 2-vCPU 2.0 GHz
#: Xeon VM; times are reported as seconds on a host this fast.
REFERENCE_S = 0.0063
#: Kernel runs per reference sample; the sample is their minimum.
REPS = 3

_ROWS, _N = 256, 1024
_PASSES = 3
_Q = np.uint64(1073741789)
_rng = np.random.default_rng(20220611)
_TABLE = _rng.integers(1, int(_Q), (_ROWS, _N), dtype=np.uint64)
_PERM = _rng.permutation(_N)


def reference_kernel() -> int:
    """Fixed work: per table row, a modular multiply-add and a gather."""
    acc = np.zeros(_N, dtype=np.uint64)
    for _ in range(_PASSES):
        for row in range(_ROWS):
            acc = (acc + _TABLE[row] * np.uint64(row + 1)) % _Q
            acc = acc[_PERM]
    return int(acc[0])


def reference_s() -> float:
    """Wall time of the reference kernel now: the minimum of ``REPS`` runs."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(before_s: float, after_s: float) -> float:
    """Reference seconds per wall second for work bracketed by two samples."""
    if before_s <= 0.0 or after_s <= 0.0:
        raise ValueError("reference samples must be positive")
    return REFERENCE_S / ((before_s + after_s) / 2.0)
