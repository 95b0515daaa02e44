"""Confidence-interval analysis of throughput (paper §III.B-D).

The paper reports, for each trial, that "the actual average throughput is
within X Mbps of the observed value, with a 95% confidence and a Y%
relative precision".  :func:`mean_confidence_interval` computes exactly
that triple (mean, half-width, relative precision) with a Student-t
interval.

scipy is imported inside the two functions that need a quantile: it
takes about a second to import, and every trial imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ConfidenceResult:
    """A mean with its confidence half-width."""

    mean: float
    half_width: float
    level: float
    n: int

    @property
    def low(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    @property
    def relative_precision(self) -> float:
        """Half-width as a fraction of the mean (the paper's Y%)."""
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} ± {self.half_width:.4f} "
            f"({self.level * 100:.0f}% CI, "
            f"{self.relative_precision * 100:.1f}% relative precision, n={self.n})"
        )


def mean_confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceResult:
    """Student-t confidence interval for the mean of ``values``."""
    from scipy import stats as scipy_stats

    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    n = len(values)
    if n < 2:
        raise ValueError("need at least two samples for a confidence interval")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std_err = math.sqrt(variance / n)
    t_crit = float(scipy_stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceResult(
        mean=mean, half_width=t_crit * std_err, level=level, n=n
    )


def required_samples(
    values: Sequence[float], target_relative_precision: float, level: float = 0.95
) -> int:
    """Estimate how many samples reach a target relative precision.

    Uses the normal approximation n ≈ (z·s / (r·mean))²; useful when
    planning longer runs for tighter intervals.
    """
    from scipy import stats as scipy_stats

    if not 0 < target_relative_precision < 1:
        raise ValueError("target_relative_precision must be in (0, 1)")
    result = mean_confidence_interval(values, level)
    if result.mean == 0:
        raise ValueError("cannot target relative precision of a zero mean")
    n = len(values)
    variance = sum((v - result.mean) ** 2 for v in values) / (n - 1)
    z = float(scipy_stats.norm.ppf(0.5 + level / 2.0))
    needed = (z * math.sqrt(variance) / (
        target_relative_precision * abs(result.mean)
    )) ** 2
    return max(2, math.ceil(needed))
