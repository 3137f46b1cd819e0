"""Summary rules shared by the benchmark's metrics (standard library only)."""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# Candidate percentiles in tenths of a percent, highest first.
PERCENTILE_LADDER = (999, 990, 900, 500)
MIN_BEYOND = 10


def reportable_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it.

    None when even the median leaves fewer than ``MIN_BEYOND`` samples above it.
    """
    for tenths in PERCENTILE_LADDER:
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            return tenths / 10
    return None


def percentile(samples: list[float], p: float) -> float:
    """Linearly interpolated percentile ``p`` (0-100) of ``samples``."""
    data = sorted(samples)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile used, value) for a latency tail.

    Uses the highest reportable percentile; with too few samples for any,
    the sample maximum stands in (reported as percentile 100).
    """
    p = reportable_percentile(len(samples))
    if p is None:
        return 100.0, max(samples)
    return p, percentile(samples, p)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


@dataclass
class Tally:
    """Attempted and failed operations.

    ``fail_share`` counts every operation that raised or failed its check.
    ``failed`` counts the operations whose outcome is not acceptable: a
    failed check, an exception outside the library's typed hierarchy, and a
    typed library error unless the workload measures those as an outcome
    (``typed_errors_expected``: a sweep whose points may lie where the solver
    signals no root).  A failed exact check or an untyped exception also
    makes the run incorrect; a failed statistical check (a z-test, which a
    correct program also fails now and then) does not.
    """

    typed_errors_expected: bool = False
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    doubtful: int = 0
    untyped: int = 0
    errors: dict[str, int] = field(default_factory=dict)

    def record(self, error: BaseException | None = None, typed: bool = True,
               problems: list[str] | None = None, statistical: bool = False) -> None:
        self.attempted += 1
        if error is not None:
            self.raised += 1
            self.untyped += not typed
            name = type(error).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        elif problems and statistical:
            self.doubtful += 1
        elif problems:
            self.wrong += 1

    @property
    def failed(self) -> int:
        unacceptable_errors = self.untyped if self.typed_errors_expected else self.raised
        return unacceptable_errors + self.wrong + self.doubtful

    @property
    def fail_share(self) -> float:
        return (self.raised + self.wrong + self.doubtful) / self.attempted

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.untyped == 0
