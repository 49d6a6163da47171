"""Estimator output record shared by every MI calculation method."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

METHOD_ANALYTIC = "analytic"
METHOD_NAIVE_KDE = "naive_kde"
METHOD_INVMI_KDE = "invmi_kde"
METHOD_MISMC = "mismc"

ALL_METHODS = (METHOD_ANALYTIC, METHOD_NAIVE_KDE, METHOD_INVMI_KDE, METHOD_MISMC)


@dataclass(frozen=True)
class MiEstimate:
    """One MI evaluation: point value, method, elapsed time and budget.

    ``sample_counts`` is a method-specific budget record (particle counts,
    draw counts, clamp/floor event counters).
    """

    value: float
    method: str
    elapsed: float
    sample_counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"MI estimate must be finite, got {self.value}")
        if self.elapsed < 0.0:
            raise ValueError("elapsed time cannot be negative")
        if self.method not in ALL_METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
