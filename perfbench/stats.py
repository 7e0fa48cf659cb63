"""Arithmetic the benchmark reports: percentiles and failure shares.

Kept free of any ``repro`` import so the unit tests exercise it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile together with the sample it came from.

    ``beyond`` is the number of samples strictly above the reported
    rank; a tail percentile is only trustworthy when it is at least ten.
    """

    value: float
    count: int
    beyond: int


def nearest_rank(samples: Sequence[float], fraction: float) -> Percentile:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the sample at or below it (rank ``ceil(p * n)``).

    Raises:
        ValueError: on an empty sample or a fraction outside (0, 1].
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {fraction}")
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * n - 1e-9))
    return Percentile(ordered[rank - 1], n, n - rank)


@dataclass
class OpTally:
    """Attempted and failed operations of one run.

    A failure is an error reply, a shed, an expired deadline, a request
    dropped after its retries, or a transport error.  An admission
    rejection is a correct answer and is *not* a failure.
    """

    attempted: int = 0
    failed: int = 0

    def ok(self) -> None:
        self.attempted += 1

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1

    def add(self, other: "OpTally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def failed_frac(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed_frac
