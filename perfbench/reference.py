"""A frozen reference kernel that scales measured times to one host speed.

Each vCPU of the two-vCPU host this benchmark was built on drifts
between a fast and a slow state, on its own, for seconds to minutes at
a time (a pure-Python loop: 12 vs 18 ms; a numpy reduction: 6 vs
12 ms), so an untouched simulation read 20-45% apart between runs.
Every timed block of ``sim-figure2`` (a set-up, a churn segment) is
therefore bracketed by two passes of this kernel on the same thread,
and every time measured in the block is multiplied by ``REFERENCE_S``
over the mean of the two passes: it reads as on a host where the kernel
takes ``REFERENCE_S``.  Across a four-minute series the ratio of segment
time to kernel time stayed within about 7% while both moved by 30%.

The kernel is the benchmark's own code, fixed here and independent of
the program under test: masked gathers and reductions over
connection-table-sized arrays, the memory-bound numpy work that the
slow state hurts most.  A change of the program moves the scaled
figures in full; only a change of host speed cancels out.  The raw
figures are printed beside the scaled ones.

``service-recovery`` brackets each recovery the same way, with the mean
of this kernel and a pure-Python one, run on the vCPU the recovered
server is pinned to (see ``service_recovery``).
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Kernel CPU time the figures are scaled to (seconds).
REFERENCE_S = 0.01
SLOTS = 4096
REPEATS = 100

_rng = np.random.default_rng(0)
_ALLOC = _rng.random(SLOTS) < 0.4
_STATE = _rng.integers(0, 4, SLOTS).astype(np.int8)
_LEVEL = _rng.integers(0, 9, SLOTS).astype(np.int64)
_ON_BACKUP = _rng.random(SLOTS) < 0.05
_B_MIN = np.full(SLOTS, 100.0)
_INCREMENT = np.full(SLOTS, 50.0)


def kernel_s() -> float:
    """CPU seconds of one pass of the reference kernel on this thread."""
    t0 = time.thread_time()
    for _ in range(REPEATS):
        mask = _ALLOC & (_STATE <= 1)
        bandwidth = _B_MIN[mask] + _LEVEL[mask] * _INCREMENT[mask]
        np.copyto(bandwidth, _B_MIN[mask], where=_ON_BACKUP[mask])
        float(np.sum(bandwidth)) / max(1, int(np.count_nonzero(mask)))
        active = _ALLOC & (_STATE == 0) & ~_ON_BACKUP
        np.bincount(np.minimum(_LEVEL[active], 8), minlength=9).tolist()
    return time.thread_time() - t0


_KEYS = [f"conn{i}" for i in range(2048)]


def python_kernel_s() -> float:
    """CPU seconds of one pass of a pure-Python kernel: a string-keyed
    dict of small tuples built, probed and sorted, interpreter-bound work
    like a server's request path."""
    t0 = time.thread_time()
    for _ in range(10):
        table = {}
        for i, key in enumerate(_KEYS):
            table[key] = (i, i * 3 % 7)
        total = 0
        for key in _KEYS:
            level, state = table[key]
            if state <= 1:
                total += level
        sorted(table.items(), key=lambda item: item[1][1])
    return time.thread_time() - t0


def mixed_kernel_s() -> float:
    """Mean CPU seconds of one pass of each kernel, for work that mixes
    numpy with pure Python (the server's recovery and requests)."""
    return (kernel_s() + python_kernel_s()) / 2.0


class Reference:
    """The kernel passes of one run."""

    def __init__(self, kernel: Optional[Callable[[], float]] = None) -> None:
        self.kernel = kernel or kernel_s
        self.passes: List[float] = []

    def around(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` between two kernel passes; returns its result and the
        factor that scales times measured inside it to the reference speed."""
        before = self.kernel()
        result = fn()
        after = self.kernel()
        self.passes += [before, after]
        return result, 2.0 * REFERENCE_S / (before + after)

    def note(self) -> str:
        return (f"times scaled to a {REFERENCE_S * 1e3:g} ms reference kernel; its median "
                f"here {median(self.passes) * 1e3:.3f} ms over {len(self.passes)} passes")
