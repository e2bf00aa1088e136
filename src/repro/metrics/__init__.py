"""Measurement machinery: collectors fed by pipelines and trace analysis."""

from repro.metrics.collectors import (
    FpsCollector,
    LatencyCollector,
    ResilienceStats,
    SvmStats,
)
from repro.metrics.stats import cdf_points, mean, percentile

__all__ = [
    "FpsCollector",
    "LatencyCollector",
    "ResilienceStats",
    "SvmStats",
    "mean",
    "percentile",
    "cdf_points",
]
